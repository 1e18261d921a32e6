//! Long-lived rewriting state for incremental multi-pass flows.
//!
//! Logic rewriting is locally optimal, so real flows apply it many times
//! (§1 of the paper). The one-shot engine entry points rebuild every piece
//! of pass state — the [`ConcurrentAig`] arena, the [`CutStore`] memo, the
//! [`LockTable`], the per-slot candidate storage — on every call, and every
//! later pass re-enumerates and re-evaluates the whole graph even when the
//! previous pass changed a small fraction of it.
//!
//! [`RewriteSession`] owns that state for the lifetime of a flow:
//!
//! * Allocation happens once. The `Aig ↔ ConcurrentAig` round-trip moves to
//!   the session boundaries ([`RewriteSession::new`] /
//!   [`RewriteSession::finish`]); `cfg.runs` iterations inside one
//!   [`RewriteSession::run`] call and successive `run` calls all reuse the
//!   same arena, memo, locks and candidate vector.
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
//! The two engines that operate on shared state — [`Engine::DacPara`] and
//! [`Engine::Iccad18`] — run *resident* on the session. The other four are
//! still accepted: the session extracts the serial graph, runs them, and
//! re-syncs (losing incrementality for that pass, keeping allocations).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use dacpara_aig::concurrent::ConcurrentAig;
use dacpara_aig::{Aig, AigError, AigRead, NodeId};
use dacpara_cut::CutStore;
use dacpara_galois::{LockTable, SpecStats, StealPool};
use dacpara_nst::MAX_STRUCTURE_GATES;
use parking_lot::Mutex;

use crate::eval::{Candidate, EvalContext};
use crate::pass::Engine;
use crate::recovery::FirstError;
use crate::{
    rewrite_partition, rewrite_serial, rewrite_static, RewriteConfig, RewriteStats, StaticMode,
};

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
    pub(crate) prep: Vec<Mutex<Option<Candidate>>>,
    /// The next worklist must cover the whole graph (first pass, or first
    /// pass after a re-sync).
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
    /// arena, cut memo, lock table and candidate storage once.
    ///
    /// # Errors
    ///
    /// Returns the [`crate::ConfigError`] mapped through [`AigError`] if
    /// `cfg` fails [`RewriteConfig::validate`].
    pub fn new(aig: &Aig, cfg: &RewriteConfig) -> Result<RewriteSession, AigError> {
        cfg.validate()?;
        let shared = ConcurrentAig::from_aig(aig, spare_slots(cfg.threads))?;
        let store = CutStore::new(shared.capacity(), cfg.cut_config());
        let locks = LockTable::new(shared.capacity());
        let prep = (0..shared.capacity()).map(|_| Mutex::new(None)).collect();
        Ok(RewriteSession {
            ctx: EvalContext::new(cfg),
            cfg: cfg.clone(),
            shared,
            store,
            locks,
            prep,
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
    /// enumerating or evaluating anything. The remaining engines run on an
    /// extracted serial graph and re-sync the session afterwards.
    ///
    /// # Errors
    ///
    /// Propagates engine errors: [`AigError::WorkerPanicked`] once the
    /// recovery budget is spent, and [`AigError::InvariantViolation`] if a
    /// replacement fails its certificate (see [`crate::build_replacement`])
    /// or the arena runs out of slots, which the sizing bound rules out.
    pub fn run(&mut self, engine: Engine) -> Result<RewriteStats, AigError> {
        let stats = match engine {
            Engine::DacPara => {
                self.resident_pass("dacpara", "rewrite_dacpara", crate::dacpara_engine::round)?
            }
            Engine::Iccad18 => {
                self.resident_pass("iccad18", "rewrite_lockstep", crate::lockstep::round)?
            }
            Engine::AbcRewrite | Engine::Dac22 | Engine::Tcad23 | Engine::Partition => {
                let mut aig = self.extract();
                let stats = match engine {
                    Engine::AbcRewrite => rewrite_serial(&mut aig, &self.cfg)?,
                    Engine::Dac22 => rewrite_static(&mut aig, &self.cfg, StaticMode::Conditional)?,
                    Engine::Tcad23 => {
                        rewrite_static(&mut aig, &self.cfg, StaticMode::Unconditional)?
                    }
                    Engine::Partition => rewrite_partition(&mut aig, &self.cfg)?,
                    Engine::Iccad18 | Engine::DacPara => unreachable!("resident engines"),
                };
                self.resync(&aig)?;
                self.converged = stats.area_reduction() == 0;
                stats
            }
        };
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

    /// Re-homes the session onto `aig`, reusing every allocation that is
    /// still large enough — after an external mutation, and after an
    /// in-pass recovery. The cut memo is reset (node ids were renumbered)
    /// and the next pass processes the whole graph again.
    ///
    /// # Errors
    ///
    /// Propagates [`ConcurrentAig::resync_from`] sizing errors; the session
    /// keeps its previous graph on error.
    pub fn resync(&mut self, aig: &Aig) -> Result<(), AigError> {
        self.shared
            .resync_from(aig, spare_slots(self.cfg.threads))?;
        let cap = self.shared.capacity();
        self.store.grow(cap);
        self.store.reset();
        self.locks.ensure_capacity(cap);
        if self.prep.len() < cap {
            self.prep.resize_with(cap, || Mutex::new(None));
        }
        self.fresh = true;
        self.converged = false;
        Ok(())
    }

    /// One resident pass of a Galois engine: the first pass (after creation
    /// or re-sync) covers the whole graph, later passes only the dirty set,
    /// and an empty dirty set returns immediately — no enumeration, no
    /// evaluation.
    ///
    /// `round` runs the engine's parallel work for one run over the
    /// worklist (DACPara's level split and three stages, or ICCAD'18's
    /// single operator drive), reporting into the pass's one [`Pass`]
    /// ledger. Everything around it lives here: the `cfg.runs` loop, the
    /// between-run canonicalize/sweep and level refresh, and the fault
    /// path — when a round ends with an error, the team has already
    /// drained cooperatively, and the first error goes to
    /// [`RewriteSession::recover`]; if recovery succeeds, the same run is
    /// redone on the salvaged graph, keeping committed rewrites.
    pub(crate) fn resident_pass(
        &mut self,
        engine: &str,
        span_name: &'static str,
        mut round: impl FnMut(&RewriteSession, &Pass, Vec<NodeId>, &mut RewriteStats),
    ) -> Result<RewriteStats, AigError> {
        let start = Instant::now();
        let _pass_span = dacpara_obs::span!(span_name, threads = self.cfg.threads);
        let mut stats = RewriteStats {
            engine: engine.into(),
            area_before: self.shared.num_ands(),
            delay_before: self.shared.depth(),
            ..Default::default()
        };
        let pass = Pass::new(self.cfg.threads);
        let mut worked = false;
        // Replacements already credited to a previous salvage, so each
        // recovery reports only the commits it newly carries over.
        let mut salvage_mark = 0u64;

        let mut run = 0;
        while run < self.cfg.runs.max(1) {
            let (work, skipped) = self.take_worklist();
            stats.clean_skipped += skipped;
            if work.is_empty() {
                run += 1;
                continue; // fixpoint: nothing enumerated, nothing evaluated
            }
            worked = true;
            round(self, &pass, work, &mut stats);
            debug_assert!(
                !self.shared.is_read_only(),
                "a round returned in the read-only phase"
            );
            match pass.error.take() {
                None => {
                    self.canonicalize_and_sweep(true);
                    self.shared.recompute_levels();
                    run += 1;
                }
                Some(e) => {
                    // `recover` propagates the error once the session's
                    // recovery budget is spent.
                    let committed = pass.replacements.load(Ordering::Relaxed);
                    self.recover(e, &mut stats, committed - salvage_mark)?;
                    salvage_mark = committed;
                }
            }
        }

        stats.area_after = self.shared.num_ands();
        stats.delay_after = self.shared.depth();
        stats.replacements = pass.replacements.load(Ordering::Relaxed);
        stats.stale_skipped = pass.stale_skipped.load(Ordering::Relaxed);
        stats.revalidated = pass.revalidated.load(Ordering::Relaxed);
        stats.evaluations = pass.evaluations.load(Ordering::Relaxed);
        stats.errors_observed = pass.error.superseded();
        stats.spec = pass.spec.snapshot();
        stats.sched = pass.pool.stats().snapshot();
        stats.time = start.elapsed();
        if dacpara_obs::is_enabled() {
            dacpara_obs::counter("rewrite.evaluations").add(stats.evaluations);
        }
        self.converged = !worked || (stats.replacements == 0 && self.store.dirty_count() == 0);
        Ok(stats)
    }

    /// Attempts in-pass recovery from a contained panic, salvaging every
    /// committed rewrite. On `Ok(())` the session has been re-homed onto
    /// the salvaged graph and the interrupted pass should redo its current
    /// run from a full worklist (resync renumbers nodes, so the pre-fault
    /// dirty set is not translatable — the full list is its superset). On
    /// `Err` the caller must propagate: the error is not a panic, the
    /// [`MAX_RECOVERIES`] budget is spent, or the salvaged graph failed
    /// [`ConcurrentAig::check`].
    ///
    /// Every commit installed a root that passed its certificate (see
    /// [`crate::build_replacement`]), so whatever point the team stopped
    /// at, the salvaged graph is function-equivalent to the pass input, or
    /// structurally broken in a way `check()` rejects (ARCHITECTURE.md
    /// §12).
    ///
    /// `newly_committed` is the number of replacements committed since the
    /// last salvage point; it feeds [`RewriteStats::salvaged_commits`].
    pub(crate) fn recover(
        &mut self,
        err: AigError,
        stats: &mut RewriteStats,
        newly_committed: u64,
    ) -> Result<(), AigError> {
        if !matches!(err, AigError::WorkerPanicked { .. }) || self.recoveries >= MAX_RECOVERIES {
            return Err(err);
        }
        // Restore canonicity and drop the dangling cones a failed or
        // interrupted replacement left behind, then prove the structure.
        self.canonicalize_and_sweep(true);
        if self.shared.check().is_err() {
            return Err(err);
        }
        let salvaged = self.extract();
        self.resync(&salvaged)?;
        self.recoveries += 1;
        stats.recoveries += 1;
        stats.salvaged_commits += newly_committed;
        if dacpara_obs::is_enabled() {
            dacpara_obs::counter("session.recoveries").incr();
            dacpara_obs::counter("session.salvaged_commits").add(newly_committed);
        }
        Ok(())
    }

    /// The worklist for the next resident pass: every live AND node on a
    /// fresh graph, otherwise the dirty nodes (drained) in topological
    /// order. Also returns the number of live AND nodes skipped as clean,
    /// which feeds [`RewriteStats::clean_skipped`] and the
    /// `session.clean_skipped` obs counter.
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
        if dacpara_obs::is_enabled() {
            dacpara_obs::counter("session.clean_skipped").add(skipped);
        }
        (work, skipped)
    }

    /// Single-threaded synchronization-point maintenance shared by the
    /// resident engines: restore strash canonicity, delete dangling cones,
    /// and translate everything either step touched into memo invalidation
    /// + dirty marks so the next pass revisits the affected region.
    pub(crate) fn canonicalize_and_sweep(&self, cleanup: bool) {
        let _obs = dacpara_obs::span("sweep");
        let mut touched = Vec::new();
        self.shared.canonicalize_traced(&mut touched);
        if cleanup {
            // Boundary fanins of deleted cones: structure unchanged, but
            // their reference counts (MFFC picture) shifted.
            let mut boundary = Vec::new();
            self.shared.cleanup_traced(&mut boundary);
            for b in boundary {
                if self.shared.is_alive(b) {
                    self.store.mark_dirty_tfo(&self.shared, b);
                }
            }
        }
        for x in touched {
            if self.shared.is_alive(x) {
                // Merged/refanned nodes: entries downstream may be
                // generation-fresh yet content-stale, so clear them.
                self.store.invalidate_tfo(&self.shared, x);
            } else {
                self.store.invalidate(x);
            }
        }
    }
}

/// What one resident pass shares with its workers: the one speculation
/// ledger (attempts, commits, aborts, and the lock conflicts
/// [`LockTable::try_acquire`] records), the scheduler, the first-error
/// slot, and the operators' counters. Built once per
/// [`RewriteSession::resident_pass`] and reused by every run and redo, so
/// its totals are the pass's totals.
pub(crate) struct Pass {
    pub(crate) spec: SpecStats,
    pub(crate) pool: StealPool,
    pub(crate) error: FirstError,
    pub(crate) replacements: AtomicU64,
    pub(crate) evaluations: AtomicU64,
    pub(crate) stale_skipped: AtomicU64,
    pub(crate) revalidated: AtomicU64,
}

impl Pass {
    fn new(threads: usize) -> Pass {
        Pass {
            spec: SpecStats::new(),
            pool: StealPool::new(threads),
            error: FirstError::default(),
            replacements: AtomicU64::new(0),
            evaluations: AtomicU64::new(0),
            stale_skipped: AtomicU64::new(0),
            revalidated: AtomicU64::new(0),
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
            let mut sess = RewriteSession::new(&aig, &cfg().with_threads(threads)).unwrap();
            let want = 1 + aig.num_inputs() + aig.num_ands() + threads * (MAX_STRUCTURE_GATES + 1);
            assert_eq!(sess.shared.capacity(), want);
            assert_eq!(sess.locks.len(), want);
            assert_eq!(sess.prep.len(), want);
            // A pass never takes the arena past its bound, and a re-sync
            // onto the smaller result keeps the allocation.
            sess.run(Engine::DacPara).unwrap();
            let out = sess.extract();
            sess.resync(&out).unwrap();
            assert_eq!(sess.shared.capacity(), want);
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
    fn non_resident_engines_round_trip_through_the_session() {
        let aig = control::voter(15);
        let mut sess = RewriteSession::new(&aig, &cfg()).unwrap();
        let s1 = sess.run(Engine::AbcRewrite).unwrap();
        assert!(s1.area_reduction() > 0);
        let s2 = sess.run(Engine::DacPara).unwrap();
        assert!(s2.area_after <= s1.area_after);
        let out = sess.finish();
        out.check().unwrap();
        assert_eq!(out.num_ands(), s2.area_after);
    }

    #[test]
    fn resync_resets_incrementality() {
        let aig = control::voter(15);
        let mut sess = RewriteSession::new(&aig, &cfg()).unwrap();
        sess.run(Engine::DacPara).unwrap();
        let snapshot = sess.extract();
        sess.resync(&snapshot).unwrap();
        // After a resync the next pass is a full pass again.
        let stats = sess.run(Engine::DacPara).unwrap();
        assert_eq!(stats.clean_skipped, 0);
    }
}
