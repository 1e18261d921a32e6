//! Long-lived rewriting state for incremental multi-pass flows.
//!
//! Logic rewriting is locally optimal, so real flows apply it many times
//! (§1 of the paper). The one-shot engine entry points rebuild every piece
//! of pass state — the [`ConcurrentAig`] arena, the [`CutStore`] memo, the
//! [`LockTable`] — on every call, and every later pass re-enumerates and
//! re-evaluates the whole graph even when the previous pass changed a
//! small fraction of it.
//!
//! [`RewriteSession`] owns that state for the lifetime of a flow:
//!
//! * Allocation happens once. The `Aig ↔ ConcurrentAig` round-trip moves to
//!   the session boundaries ([`RewriteSession::new`] /
//!   [`RewriteSession::finish`]); `cfg.runs` iterations inside one
//!   [`RewriteSession::run`] call and successive `run` calls all reuse the
//!   same arena, memo and locks. Node ids never change inside a session:
//!   recovery from a contained panic salvages the graph in place
//!   (ARCHITECTURE.md §12).
//! * A **dirty-set** makes later passes incremental. Seeded from §4.4's
//!   recursive invalidation (every memo invalidation marks its node dirty)
//!   plus gain-only marking — committed replacements mark the transitive
//!   fanout of their cut leaves, canonicalization and cleanup mark the
//!   nodes whose reference counts or fanout sets they touch — the set
//!   conservatively over-approximates the nodes whose cuts *or* MFFC could
//!   have changed. A pass drains it and visits only those nodes, in
//!   topological order; everything else is reported as
//!   [`RewriteStats::clean_skipped`] (obs counter `session.clean_skipped`).
//! * An empty dirty set is a **fixpoint**: `run` returns immediately with
//!   zero [`RewriteStats::evaluations`] — the evaluate stage never runs.
//!
//! Only the two engines that operate on shared state — [`Engine::DacPara`]
//! and [`Engine::Iccad18`] — run on a session; the other four run on a
//! serial [`Aig`] through [`crate::run_engine`] or [`crate::optimize`].

use std::sync::atomic::Ordering;

use dacpara_aig::concurrent::ConcurrentAig;
use dacpara_aig::{Aig, AigError, AigRead, NodeId};
use dacpara_cut::CutStore;
use dacpara_galois::LockTable;
use dacpara_nst::MAX_STRUCTURE_GATES;

use crate::eval::EvalContext;
use crate::pass::{run_pass, Engine, Pass};
use crate::{ConfigError, RewriteConfig, RewriteStats};

/// Reusable state for incremental multi-pass rewriting.
///
/// # Example
///
/// ```
/// use dacpara::{Engine, RewriteConfig, RewriteSession};
/// use dacpara_circuits::control;
///
/// let aig = control::voter(15);
/// let cfg = RewriteConfig::rewrite_op().with_threads(2);
/// let mut session = RewriteSession::new(&aig, &cfg)?;
/// let first = session.run(Engine::DacPara)?;
/// let second = session.run(Engine::DacPara)?; // incremental: dirty nodes only
/// assert!(second.area_after <= first.area_after);
/// let optimized = session.finish();
/// optimized.check()?;
/// # Ok::<(), dacpara_aig::AigError>(())
/// ```
pub struct RewriteSession {
    pub(crate) cfg: RewriteConfig,
    pub(crate) ctx: EvalContext,
    pub(crate) shared: ConcurrentAig,
    pub(crate) store: CutStore,
    pub(crate) locks: LockTable,
    /// The next worklist must cover the whole graph (first pass, or the
    /// run a recovery interrupted).
    fresh: bool,
    converged: bool,
    passes_run: usize,
    /// In-pass recoveries performed, bounded by [`MAX_RECOVERIES`] over the
    /// session lifetime.
    recoveries: u64,
}

/// Session-lifetime bound on in-pass recoveries from contained panics. A
/// fixed backstop rather than a tunable: a persistently panicking operator
/// must eventually surface its [`AigError::WorkerPanicked`] instead of
/// looping.
const MAX_RECOVERIES: u64 = 8;

/// One run of a resident engine's parallel work over a worklist:
/// DACPara's level split and three stages, or ICCAD'18's single operator
/// drive.
type Round = fn(&RewriteSession, &Pass, Vec<NodeId>);

/// Spare arena slots for a pass at `threads` workers: each worker's
/// in-flight commit allocates at most [`MAX_STRUCTURE_GATES`] gates before
/// it frees the old cone, and holds at most one more slot between marking
/// it free and pushing it on the free list. Every commit's net change is
/// `-gain <= 0`, so the live graph never needs more (ARCHITECTURE.md §12).
fn spare_slots(threads: usize) -> usize {
    threads * (MAX_STRUCTURE_GATES + 1)
}

impl RewriteSession {
    /// Builds a session over a copy of `aig`, allocating the concurrent
    /// arena, cut memo and lock table once.
    ///
    /// # Errors
    ///
    /// Returns the [`crate::ConfigError`] mapped through [`AigError`] if
    /// `cfg` fails [`RewriteConfig::validate`].
    pub fn new(aig: &Aig, cfg: &RewriteConfig) -> Result<RewriteSession, AigError> {
        cfg.validate()?;
        let shared = ConcurrentAig::from_aig(aig, spare_slots(cfg.threads), cfg.threads)?;
        let store = CutStore::new(shared.capacity(), cfg.cut_config());
        let locks = LockTable::new(shared.capacity());
        Ok(RewriteSession {
            ctx: EvalContext::new(cfg),
            cfg: cfg.clone(),
            shared,
            store,
            locks,
            fresh: true,
            converged: false,
            passes_run: 0,
            recoveries: 0,
        })
    }

    /// Runs one engine pass (honouring [`RewriteConfig::runs`]) on the
    /// session state.
    ///
    /// [`Engine::DacPara`] and [`Engine::Iccad18`] run resident: the first
    /// pass processes every node, later passes only the dirty set, and a
    /// pass that finds the dirty set empty returns immediately without
    /// enumerating or evaluating anything.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::NotResident`] (mapped through [`AigError`])
    /// for the four engines that run on a serial graph, and propagates
    /// engine errors: [`AigError::WorkerPanicked`] once the recovery budget
    /// is spent, and [`AigError::InvariantViolation`] if a replacement
    /// fails its certificate (see [`crate::build_replacement`]) or the
    /// arena runs out of slots, which the sizing bound rules out.
    pub fn run(&mut self, engine: Engine) -> Result<RewriteStats, AigError> {
        let round: Round = match engine {
            Engine::DacPara => crate::dacpara_engine::round,
            Engine::Iccad18 => crate::lockstep::round,
            Engine::AbcRewrite | Engine::Dac22 | Engine::Tcad23 | Engine::Partition => {
                return Err(ConfigError::NotResident(engine).into())
            }
        };
        let cfg = self.cfg.clone();
        let stats = run_pass(
            self,
            |sess| &sess.shared,
            engine,
            &cfg,
            |sess, pass| sess.resident_run(pass, round),
        )?;
        // A pass whose runs all found an empty worklist committed nothing
        // and drained the dirty set, so it counts as converged too.
        self.converged = stats.replacements == 0 && self.store.dirty_count() == 0;
        // No worker borrows a cut set any more: the memo may free the
        // entries the pass retired.
        self.store.compact();
        self.passes_run += 1;
        Ok(stats)
    }

    /// Whether the session has reached a fixpoint: the last pass committed
    /// nothing and left no node dirty, so the next resident pass would
    /// return immediately.
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// Number of `run` calls completed so far.
    pub fn passes_run(&self) -> usize {
        self.passes_run
    }

    /// A serial snapshot of the current graph (levels recomputed).
    pub fn extract(&self) -> Aig {
        let mut aig = self.shared.to_aig();
        aig.recompute_levels();
        aig
    }

    /// Consumes the session and returns the optimized graph.
    pub fn finish(self) -> Aig {
        self.extract()
    }

    /// One resident run of a Galois engine: the first run covers the whole
    /// graph, later runs only the dirty set, and an empty worklist returns
    /// immediately — no enumeration, no evaluation.
    ///
    /// `round` does the parallel work over the worklist, reporting into the
    /// pass's [`Pass`] ledger; the between-run canonicalize/sweep and level
    /// refresh follow it here. When a round ends with an error, the team
    /// has already drained cooperatively, and the first error goes to
    /// [`RewriteSession::recover`]; if recovery succeeds, the run is redone
    /// over the whole salvaged graph, keeping committed rewrites.
    fn resident_run(&mut self, pass: &Pass, round: Round) -> Result<(), AigError> {
        loop {
            let (work, skipped) = self.take_worklist();
            pass.clean_skipped.fetch_add(skipped, Ordering::Relaxed);
            if work.is_empty() {
                return Ok(()); // fixpoint: nothing enumerated, nothing evaluated
            }
            round(self, pass, work);
            debug_assert!(
                !self.shared.is_read_only(),
                "a round returned in the read-only phase"
            );
            let Some(e) = pass.error.take() else {
                self.canonicalize_and_sweep(true);
                self.shared.recompute_levels();
                return Ok(());
            };
            // `recover` propagates the error once the session's recovery
            // budget is spent.
            self.recover(e, pass)?;
        }
    }

    /// Attempts in-pass recovery from a contained panic, salvaging every
    /// committed rewrite in place. On `Ok(())` the graph has been swept,
    /// checked and re-levelled on the same arena, and the interrupted pass
    /// should redo its current run from a full worklist (the pre-fault
    /// dirty set does not cover the run's unvisited nodes; the full list is
    /// its superset). On `Err` the caller must propagate: the error is not
    /// a panic, the [`MAX_RECOVERIES`] budget is spent, or the salvaged
    /// graph failed [`ConcurrentAig::check`].
    ///
    /// Every commit installed a root that passed its certificate (see
    /// [`crate::build_replacement`]), so whatever point the team stopped
    /// at, the salvaged graph is function-equivalent to the pass input, or
    /// structurally broken in a way `check()` rejects (ARCHITECTURE.md
    /// §12). Node ids do not change, so the cut memo stays sound through
    /// its generation tags and the invalidations that precede every
    /// rewiring, and the sweep returns a panicked commit's dangling gates
    /// to the free list, so the arena's sizing bound still holds.
    ///
    /// Every replacement the pass committed before the fault is salvaged,
    /// so the ledger's [`RewriteStats::salvaged_commits`] is the pass's
    /// commit count at its latest salvage.
    fn recover(&mut self, err: AigError, pass: &Pass) -> Result<(), AigError> {
        if !matches!(err, AigError::WorkerPanicked { .. }) || self.recoveries >= MAX_RECOVERIES {
            return Err(err);
        }
        // Restore canonicity and drop the dangling cones a failed or
        // interrupted replacement left behind, then prove the structure.
        self.canonicalize_and_sweep(true);
        if self.shared.check().is_err() {
            return Err(err);
        }
        self.shared.recompute_levels();
        self.fresh = true;
        self.recoveries += 1;
        pass.salvaged_commits
            .store(pass.replacements.value(), Ordering::Relaxed);
        pass.recoveries.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// The worklist for the next resident pass: every live AND node on a
    /// fresh graph, otherwise the dirty nodes (drained) in topological
    /// order. Also returns the number of live AND nodes skipped as clean,
    /// which feeds [`RewriteStats::clean_skipped`].
    pub(crate) fn take_worklist(&mut self) -> (Vec<NodeId>, u64) {
        if self.fresh {
            self.fresh = false;
            // The flags seeded before the first pass (if any) are covered
            // by the full scan.
            let _ = self.store.drain_dirty();
            return (dacpara_aig::topo_ands(&self.shared), 0);
        }
        let dirty = self.store.drain_dirty();
        let mut is_dirty = vec![false; self.shared.capacity()];
        for n in &dirty {
            is_dirty[n.index()] = true;
        }
        let all = dacpara_aig::topo_ands(&self.shared);
        let total = all.len() as u64;
        let work: Vec<NodeId> = all.into_iter().filter(|n| is_dirty[n.index()]).collect();
        let skipped = total - work.len() as u64;
        (work, skipped)
    }

    /// Single-threaded synchronization-point maintenance shared by the
    /// resident engines: restore strash canonicity, delete dangling cones,
    /// and translate everything either step touched into memo invalidation
    /// + dirty marks so the next pass revisits the affected region.
    ///
    /// Only refanined nodes lose memo entries. Merge targets and the
    /// surviving boundary fanins of deleted cones keep their structure, so
    /// their cones keep their cuts; only their reference counts and fanout
    /// sets — the MFFC and sharing picture — shifted, and a dirty mark is
    /// all they need.
    pub(crate) fn canonicalize_and_sweep(&self, cleanup: bool) {
        let _obs = dacpara_obs::span("sweep");
        let (mut refanined, mut gain_only) = (Vec::new(), Vec::new());
        self.shared
            .canonicalize_traced(&mut refanined, &mut gain_only);
        if cleanup {
            self.shared.cleanup_traced(&mut gain_only);
        }
        for x in gain_only {
            if self.shared.is_alive(x) {
                self.store.mark_dirty_tfo(&self.shared, x);
            } else {
                self.store.invalidate(x);
            }
        }
        for x in refanined {
            if self.shared.is_alive(x) {
                // Entries downstream may be generation-fresh yet
                // content-stale, so clear them.
                self.store.invalidate_tfo(&self.shared, x);
            } else {
                self.store.invalidate(x);
            }
        }
    }
}

impl std::fmt::Debug for RewriteSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RewriteSession")
            .field("capacity", &self.shared.capacity())
            .field("num_ands", &self.shared.num_ands())
            .field("dirty", &self.store.dirty_count())
            .field("passes_run", &self.passes_run)
            .field("converged", &self.converged)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dacpara_circuits::{arith, control};

    fn cfg() -> RewriteConfig {
        RewriteConfig {
            num_classes: 222,
            threads: 2,
            ..RewriteConfig::rewrite_op()
        }
    }

    #[test]
    fn new_rejects_invalid_config() {
        let aig = control::voter(11);
        let bad = RewriteConfig {
            threads: 0,
            ..cfg()
        };
        assert!(RewriteSession::new(&aig, &bad).is_err());
    }

    #[test]
    fn arena_holds_the_live_graph_plus_a_per_thread_bound() {
        let aig = control::voter(15);
        for threads in [1, 2, 8] {
            let sess = RewriteSession::new(&aig, &cfg().with_threads(threads)).unwrap();
            let want = 1 + aig.num_inputs() + aig.num_ands() + threads * (MAX_STRUCTURE_GATES + 1);
            assert_eq!(sess.shared.capacity(), want);
            assert_eq!(sess.locks.len(), want);
        }
    }

    #[test]
    fn recovery_salvages_in_place_and_redoes_the_whole_graph() {
        use dacpara_equiv::{check_equivalence, CecConfig, CecResult};
        use dacpara_fault::{points, FaultPlan};

        dacpara_fault::silence_injected_panics();
        let aig = arith::adder(10);
        let plan = FaultPlan::parse("operator.panic=@5*1", 0).unwrap();
        for threads in [2, 8] {
            // Fault plans are process-global, so a sibling test's engine
            // can take the one panic; retry until it lands here.
            let (mut sess, stats, fired) = (0..20)
                .find_map(|_| {
                    let mut sess = RewriteSession::new(&aig, &cfg().with_threads(threads)).unwrap();
                    let injection = dacpara_fault::inject(&plan);
                    let stats = sess.run(Engine::DacPara).unwrap();
                    let fired = injection.fired(points::OPERATOR_PANIC);
                    drop(injection);
                    (stats.recoveries > 0).then_some((sess, stats, fired))
                })
                .expect("the injected panic never landed in the session");
            let label = format!("x{threads}: {stats}");
            assert_eq!((fired, stats.recoveries), (1, 1), "{label}");
            // The same arena and lock table, sized once in `new`.
            let want = 1 + aig.num_inputs() + aig.num_ands() + spare_slots(threads);
            assert_eq!(sess.shared.capacity(), want, "{label}");
            assert_eq!(sess.locks.len(), want, "{label}");
            // The interrupted run was redone over the whole graph.
            assert_eq!(stats.clean_skipped, 0, "{label}");
            // The next pass is incremental again.
            let next = sess.run(Engine::DacPara).unwrap();
            assert_eq!(next.recoveries, 0, "x{threads}: {next}");
            assert!(next.clean_skipped > 0, "x{threads}: {next}");
            let out = sess.finish();
            out.check().unwrap();
            assert_eq!(
                check_equivalence(&aig, &out, &CecConfig::default()),
                CecResult::Equivalent,
                "x{threads}"
            );
        }
    }

    #[test]
    fn fixpoint_pass_returns_without_evaluating() {
        let aig = arith::adder(8);
        let mut sess = RewriteSession::new(&aig, &cfg()).unwrap();
        let mut last = sess.run(Engine::DacPara).unwrap();
        for _ in 0..6 {
            if sess.converged() {
                break;
            }
            last = sess.run(Engine::DacPara).unwrap();
        }
        assert!(sess.converged(), "adder converges quickly: {last}");
        let fix = sess.run(Engine::DacPara).unwrap();
        assert_eq!(fix.evaluations, 0, "converged pass must skip evaluation");
        assert_eq!(fix.replacements, 0);
        assert_eq!(fix.area_reduction(), 0);
    }

    #[test]
    fn the_sweep_clears_only_refanined_cones() {
        use dacpara_aig::Lit;

        let mut aig = Aig::new();
        let [a, b, c, d, e] = [(); 5].map(|_| aig.add_input());
        let ac = aig.add_and(a, c);
        let bc = aig.add_and(b, c);
        let top = aig.add_and(ac, bc);
        let w = aig.add_and(top, d);
        let x = aig.add_and(w, e);
        let u = aig.add_and(ac, e);
        let y = aig.add_and(u, d);
        aig.add_output(x);
        aig.add_output(y);
        let sess = RewriteSession::new(&aig, &cfg().with_threads(1)).unwrap();
        let (shared, store) = (&sess.shared, &sess.store);
        let ins = shared.input_ids();
        let [a, b, c, d, e] = [0, 1, 2, 3, 4].map(|i| ins[i].lit());
        let find = |p: Lit, q: Lit| shared.find_and(p, q).unwrap();
        let (ac, bc) = (find(a, c), find(b, c));
        let top = find(ac.lit(), bc.lit());
        let (w, u) = (find(top.lit(), d), find(ac.lit(), e));
        let (x, y) = (find(w.lit(), e), find(u.lit(), d));

        // A commit replaces bc by ac: top becomes ac & ac, and the sweep
        // folds it into ac, moving w onto ac. Every live cone is memo-hot
        // before the sweep.
        shared.replace_locked(bc, ac.lit());
        for n in [ac, top, w, x, u, y] {
            store.try_cuts(shared, n).unwrap();
        }
        let _ = store.drain_dirty();
        sess.canonicalize_and_sweep(false);
        assert!(!shared.is_alive(top), "top folds into its merge target ac");

        // The merge target's cone keeps its cuts; the refanined w's cone
        // (x's cuts still name top) loses them.
        for n in [ac, u, y] {
            assert!(store.get(shared, n).is_some(), "{n:?} lost its cuts");
        }
        for n in [w, x] {
            assert!(store.get(shared, n).is_none(), "{n:?} kept stale cuts");
        }
        for n in [ac, u, y, w, x] {
            assert!(store.is_dirty(n), "{n:?} is not dirty");
        }
    }

    #[test]
    fn memo_memory_stays_bounded_over_many_passes() {
        let aig = dacpara_circuits::mtm(&dacpara_circuits::MtmParams {
            inputs: 32,
            gates: 2000,
            outputs: 12,
            seed: 3,
        });
        let mut sess = RewriteSession::new(&aig, &cfg()).unwrap();
        for pass in 0..20 {
            // Every pass clears the whole memo and revisits every node, so
            // it recomputes every set and retires the previous pass's.
            for i in sess.shared.input_ids() {
                sess.store.invalidate_tfo(&sess.shared, i);
            }
            sess.fresh = true;
            sess.run(Engine::DacPara).unwrap();
            let bytes = sess.store.memo_bytes();
            assert!(
                bytes.held <= 2 * bytes.live + bytes.slack,
                "pass {pass}: {bytes:?}"
            );
        }
    }

    #[test]
    fn serial_engines_are_refused_with_a_config_error() {
        let mut sess = RewriteSession::new(&control::voter(15), &cfg()).unwrap();
        for engine in [
            Engine::AbcRewrite,
            Engine::Dac22,
            Engine::Tcad23,
            Engine::Partition,
        ] {
            assert_eq!(
                sess.run(engine).unwrap_err(),
                ConfigError::NotResident(engine).into()
            );
        }
        assert_eq!(sess.passes_run(), 0);
    }
}
