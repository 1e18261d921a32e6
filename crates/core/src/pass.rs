//! One pass of an engine, and the uniform driver over the engines.
//!
//! [`run_pass`] is the one frame every pass runs in, whatever the engine:
//! it validates the configuration, opens the engine's pass span, measures
//! area and depth before and after, calls one *run* of the engine
//! [`RewriteConfig::runs`] times, and builds the [`RewriteStats`] from the
//! pass's one [`Pass`] ledger. An engine supplies only its single run:
//!
//! * serial (`serial::run`): one topological sweep, cleanup, level refresh;
//! * static (`static_info::run`): one phase A plus phase B;
//! * partition (`partition::run`): one claim → extract → optimize → stitch;
//! * resident (`RewriteSession::resident_run`): one worklist → round →
//!   sweep, redone after a recovery.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use dacpara_aig::{Aig, AigError, AigRead};
use dacpara_galois::{CachePadded, SpecStats, StealPool};
use dacpara_obs::ShardedCounter;

use crate::eval::EvalContext;
use crate::recovery::FirstError;
use crate::{partition, serial, static_info, RewriteConfig, RewriteSession, RewriteStats};

/// Which rewriting engine to run (one per comparison column of the paper).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Engine {
    /// Serial ABC `rewrite` (Table 2, "ABC (1 Thread)").
    AbcRewrite,
    /// ICCAD'18 combined-operator parallel rewriting.
    Iccad18,
    /// DAC'22 NovelRewrite emulation (static info, conditional replacement).
    Dac22,
    /// TCAD'23 emulation (static info, sharing-blind, merge afterwards).
    Tcad23,
    /// DACPara (this paper).
    DacPara,
    /// Partition-based coarse-grain parallelism (Liu & Zhang, FPGA'17 —
    /// the paper's reference \[15\]) over `2 × threads` regions.
    Partition,
}

impl Engine {
    /// All engines, in the order the paper's tables list them.
    pub const ALL: [Engine; 6] = [
        Engine::AbcRewrite,
        Engine::Iccad18,
        Engine::Dac22,
        Engine::Tcad23,
        Engine::DacPara,
        Engine::Partition,
    ];

    /// Short name used in reports. [`str::parse`] parses every name this
    /// returns, so `e.name().parse::<Engine>() == Ok(e)`.
    pub fn name(self) -> &'static str {
        match self {
            Engine::AbcRewrite => "abc-rewrite",
            Engine::Iccad18 => "iccad18",
            Engine::Dac22 => "dac22-static",
            Engine::Tcad23 => "tcad23-static",
            Engine::DacPara => "dacpara",
            Engine::Partition => "partition-fpga17",
        }
    }

    /// The engine's configuration in the paper's comparisons, at one
    /// thread: the GPU emulations ([`Engine::Dac22`], [`Engine::Tcad23`])
    /// run the `drw` setup ([`RewriteConfig::drw_op`]), every other engine
    /// the ABC `rewrite` operator setup ([`RewriteConfig::rewrite_op`]).
    pub fn paper_config(self) -> RewriteConfig {
        match self {
            Engine::Dac22 | Engine::Tcad23 => RewriteConfig::drw_op(),
            _ => RewriteConfig::rewrite_op(),
        }
    }

    /// Name of the obs span around one pass of this engine.
    fn span_name(self) -> &'static str {
        match self {
            Engine::AbcRewrite => "rewrite_serial",
            Engine::Iccad18 => "rewrite_lockstep",
            Engine::Dac22 | Engine::Tcad23 => "rewrite_static",
            Engine::DacPara => "rewrite_dacpara",
            Engine::Partition => "rewrite_partition",
        }
    }

    /// Comma-separated list of every engine name, for CLI help text.
    pub fn help_list() -> String {
        let names: Vec<&str> = Engine::ALL.iter().map(|e| e.name()).collect();
        names.join(", ")
    }
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// An engine name [`str::parse`] did not recognize as an [`Engine`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseEngineError {
    input: String,
}

impl std::fmt::Display for ParseEngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown engine {:?} (expected one of: {})",
            self.input,
            Engine::help_list()
        )
    }
}

impl std::error::Error for ParseEngineError {}

impl std::str::FromStr for Engine {
    type Err = ParseEngineError;

    /// Parses a canonical [`Engine::name`], or one of the short aliases the
    /// `rewrite` binary has historically accepted (`abc`, `dac22`, `tcad23`,
    /// `partition`).
    fn from_str(s: &str) -> Result<Engine, ParseEngineError> {
        if let Some(&e) = Engine::ALL.iter().find(|e| e.name() == s) {
            return Ok(e);
        }
        match s {
            "abc" => Ok(Engine::AbcRewrite),
            "dac22" => Ok(Engine::Dac22),
            "tcad23" => Ok(Engine::Tcad23),
            "partition" => Ok(Engine::Partition),
            _ => Err(ParseEngineError { input: s.into() }),
        }
    }
}

/// What every run of a pass reports into: the speculation ledger
/// (attempts, commits, aborts, and the lock conflicts
/// [`dacpara_galois::LockTable::try_acquire`] records), the Galois
/// engines' scheduler, the first-error slot, and the engines' counters.
/// [`run_pass`] builds one per pass and reads [`RewriteStats`] off it, so
/// its totals are the pass's totals.
///
/// What workers count per item — the speculation ledger and the per-item
/// counters — is sharded by thread, and the error flag every item reads
/// has a cache line of its own.
pub(crate) struct Pass {
    pub(crate) spec: SpecStats,
    pub(crate) pool: StealPool,
    pub(crate) error: CachePadded<FirstError>,
    pub(crate) replacements: ShardedCounter,
    pub(crate) evaluations: ShardedCounter,
    pub(crate) stale_skipped: ShardedCounter,
    pub(crate) revalidated: ShardedCounter,
    pub(crate) clean_skipped: AtomicU64,
    pub(crate) worklists: AtomicUsize,
    pub(crate) recoveries: AtomicU64,
    pub(crate) salvaged_commits: AtomicU64,
}

impl Pass {
    pub(crate) fn new(threads: usize) -> Pass {
        Pass {
            spec: SpecStats::new(),
            pool: StealPool::new(threads),
            error: CachePadded::default(),
            replacements: ShardedCounter::new(),
            evaluations: ShardedCounter::new(),
            stale_skipped: ShardedCounter::new(),
            revalidated: ShardedCounter::new(),
            clean_skipped: AtomicU64::new(0),
            worklists: AtomicUsize::new(0),
            recoveries: AtomicU64::new(0),
            salvaged_commits: AtomicU64::new(0),
        }
    }
}

/// One pass of `engine` over `state`, whose graph `graph` returns: `run`
/// is one run of the engine, called [`RewriteConfig::runs`] times.
///
/// # Errors
///
/// Returns the [`crate::ConfigError`] (mapped through [`AigError`]) if `cfg`
/// fails [`RewriteConfig::validate`], and the first error of a run.
pub(crate) fn run_pass<S, G: AigRead>(
    state: &mut S,
    graph: fn(&S) -> &G,
    engine: Engine,
    cfg: &RewriteConfig,
    mut run: impl FnMut(&mut S, &Pass) -> Result<(), AigError>,
) -> Result<RewriteStats, AigError> {
    cfg.validate()?;
    let start = Instant::now();
    let _pass_span = dacpara_obs::span!(engine.span_name(), threads = cfg.threads);
    let (area_before, delay_before) = (graph(state).num_ands(), graph(state).depth());
    let pass = Pass::new(cfg.threads);
    for _ in 0..cfg.runs {
        run(state, &pass)?;
    }
    let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
    let stats = RewriteStats {
        engine: engine.name().into(),
        area_before,
        area_after: graph(state).num_ands(),
        delay_before,
        delay_after: graph(state).depth(),
        replacements: pass.replacements.value(),
        stale_skipped: pass.stale_skipped.value(),
        revalidated: pass.revalidated.value(),
        evaluations: pass.evaluations.value(),
        clean_skipped: load(&pass.clean_skipped),
        spec: pass.spec.snapshot(),
        sched: pass.pool.stats().snapshot(),
        worklists: pass.worklists.load(Ordering::Relaxed),
        recoveries: load(&pass.recoveries),
        salvaged_commits: load(&pass.salvaged_commits),
        errors_observed: pass.error.superseded(),
        time: start.elapsed(),
    };
    if dacpara_obs::is_enabled() {
        dacpara_obs::counter("rewrite.evaluations").add(stats.evaluations);
    }
    Ok(stats)
}

/// Runs one engine pass over the graph, in place. Every engine takes
/// exactly `(aig, cfg)`: what an engine tunes lives in [`RewriteConfig`] or
/// is derived from it (the partition engine uses `2 × threads` regions).
/// [`Engine::DacPara`] and [`Engine::Iccad18`] run on a one-pass
/// [`RewriteSession`].
///
/// # Errors
///
/// Returns the [`crate::ConfigError`] (mapped through [`AigError`]) if `cfg`
/// fails [`RewriteConfig::validate`]; [`AigError::WorkerPanicked`] from
/// the concurrent engines once the session's recovery budget is spent; or
/// [`AigError::InvariantViolation`] if a replacement fails its certificate
/// (see [`crate::build_replacement`]) or a concurrent arena runs out of
/// slots, which its sizing bound rules out.
///
/// # Example
///
/// ```
/// use dacpara::{run_engine, Engine, RewriteConfig};
/// use dacpara_circuits::arith;
///
/// let mut aig = arith::adder(8);
/// let stats = run_engine(&mut aig, Engine::DacPara, &RewriteConfig::rewrite_op())?;
/// assert_eq!(stats.engine, "dacpara");
/// # Ok::<(), dacpara_aig::AigError>(())
/// ```
pub fn run_engine(
    aig: &mut Aig,
    engine: Engine,
    cfg: &RewriteConfig,
) -> Result<RewriteStats, AigError> {
    let _obs = dacpara_obs::span!("run_engine", engine = engine.name());
    type RunOnAig = fn(&mut Aig, &RewriteConfig, &EvalContext, &Pass) -> Result<(), AigError>;
    let run: RunOnAig = match engine {
        Engine::AbcRewrite => serial::run,
        Engine::Dac22 | Engine::Tcad23 => static_info::run,
        Engine::Partition => partition::run,
        Engine::DacPara | Engine::Iccad18 => {
            let mut session = RewriteSession::new(aig, cfg)?;
            let stats = session.run(engine)?;
            *aig = session.finish();
            return Ok(stats);
        }
    };
    let mut ctx = EvalContext::new(cfg);
    // TCAD'23 evaluates sharing-blind (see `static_info`).
    ctx.count_sharing = engine != Engine::Tcad23;
    run_pass(
        aig,
        |aig| aig,
        engine,
        cfg,
        |aig, pass| run(aig, cfg, &ctx, pass),
    )
}

/// Runs `engine` repeatedly (up to `max_passes`) until a pass stops
/// improving the area, returning the statistics of every pass that ran.
///
/// Logic rewriting is locally optimal, so real flows apply it several times
/// (§1 of the paper: "logic rewriting techniques are often applied many
/// times for optimization due to its local optimality").
///
/// [`Engine::DacPara`] and [`Engine::Iccad18`] run on one
/// [`crate::RewriteSession`]: the arena, cut memo and lock table are
/// allocated once, and every pass after the first visits only the nodes
/// the previous pass dirtied (see [`RewriteStats::clean_skipped`]). The
/// other engines make one [`run_engine`] call per pass.
///
/// # Errors
///
/// Propagates the first engine error.
///
/// # Example
///
/// ```
/// use dacpara::{optimize, Engine, RewriteConfig};
/// use dacpara_circuits::control;
///
/// let mut aig = control::voter(15);
/// let passes = optimize(&mut aig, Engine::DacPara, &RewriteConfig::rewrite_op(), 4)?;
/// assert!(!passes.is_empty());
/// // Area is monotonically non-increasing across passes.
/// for w in passes.windows(2) {
///     assert!(w[1].area_after <= w[0].area_after);
/// }
/// # Ok::<(), dacpara_aig::AigError>(())
/// ```
pub fn optimize(
    aig: &mut Aig,
    engine: Engine,
    cfg: &RewriteConfig,
    max_passes: usize,
) -> Result<Vec<RewriteStats>, AigError> {
    let mut all = Vec::new();
    match engine {
        Engine::DacPara | Engine::Iccad18 => {
            let mut session = RewriteSession::new(aig, cfg)?;
            for _ in 0..max_passes.max(1) {
                let stats = session.run(engine)?;
                let improved = stats.area_reduction() > 0;
                all.push(stats);
                if session.converged() || !improved {
                    break;
                }
            }
            *aig = session.finish();
        }
        Engine::AbcRewrite | Engine::Dac22 | Engine::Tcad23 | Engine::Partition => {
            for _ in 0..max_passes.max(1) {
                let stats = run_engine(aig, engine, cfg)?;
                let improved = stats.area_reduction() > 0;
                all.push(stats);
                if !improved {
                    break;
                }
            }
        }
    }
    Ok(all)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dacpara_aig::aiger;
    use dacpara_circuits::{arithmetic_suite, control, mtm_suite, Scale};
    use dacpara_equiv::{check_equivalence, CecConfig, CecResult};

    /// The counts a pass sums over its runs.
    fn run_counts(stats: &[RewriteStats]) -> (u64, u64, u64) {
        stats.iter().fold((0, 0, 0), |(r, e, s), st| {
            (
                r + st.replacements,
                e + st.evaluations,
                s + st.stale_skipped,
            )
        })
    }

    /// At one thread every engine is deterministic, so a pass of two runs
    /// must equal two passes of one: the same graph and the same summed
    /// counts. A resident engine's later runs see only the dirty set, so
    /// its two passes share one session; the others' runs start afresh.
    #[test]
    fn a_run_is_the_unit_of_a_pass() {
        let circuits: Vec<_> = arithmetic_suite(Scale::Test)
            .into_iter()
            .chain(mtm_suite(Scale::Test))
            .filter(|b| ["voter_1xd", "log2_1xd", "sixteen"].contains(&b.name.as_str()))
            .collect();
        assert_eq!(circuits.len(), 3);
        for bench in &circuits {
            let configs = [
                ("rewrite_op", RewriteConfig::rewrite_op()),
                ("drw_op", RewriteConfig::drw_op()),
            ];
            for (cfg_name, base) in configs {
                let one = RewriteConfig { runs: 1, ..base };
                let two = RewriteConfig {
                    runs: 2,
                    ..one.clone()
                };
                for engine in Engine::ALL {
                    let label = format!("{engine} on {} under {cfg_name}", bench.name);
                    let mut joined = bench.aig.clone();
                    let pass = run_engine(&mut joined, engine, &two).unwrap();
                    assert_eq!(
                        (pass.area_after, pass.delay_after),
                        (joined.num_ands(), joined.depth()),
                        "{label}: stats disagree with the output graph"
                    );
                    let mut split = bench.aig.clone();
                    let halves = match engine {
                        Engine::DacPara | Engine::Iccad18 => {
                            let mut session = RewriteSession::new(&split, &one).unwrap();
                            let halves = [session.run(engine), session.run(engine)];
                            split = session.finish();
                            halves
                        }
                        _ => [
                            run_engine(&mut split, engine, &one),
                            run_engine(&mut split, engine, &one),
                        ],
                    }
                    .map(Result::unwrap);
                    assert!(
                        aiger::to_string(&joined) == aiger::to_string(&split),
                        "{label}: two runs and two passes wrote different graphs"
                    );
                    assert_eq!(
                        run_counts(&[pass]),
                        run_counts(&halves),
                        "{label}: (replacements, evaluations, stale_skipped)"
                    );
                }
            }
        }
    }

    #[test]
    fn every_engine_is_sound_on_the_same_input() {
        let golden = control::voter(11);
        let cfg = RewriteConfig {
            num_classes: 222,
            threads: 2,
            ..RewriteConfig::rewrite_op()
        };
        for engine in Engine::ALL {
            let mut aig = golden.clone();
            let stats = run_engine(&mut aig, engine, &cfg).unwrap();
            aig.check().unwrap();
            assert_eq!(stats.engine, engine.name());
            assert!(
                stats.area_after <= stats.area_before,
                "{engine} grew the graph"
            );
            assert_eq!(
                check_equivalence(&golden, &aig, &CecConfig::default()),
                CecResult::Equivalent,
                "{engine} broke equivalence"
            );
        }
    }

    #[test]
    fn optimize_converges_and_stays_sound() {
        let golden = control::voter(21);
        let mut aig = golden.clone();
        let cfg = RewriteConfig {
            num_classes: 222,
            ..RewriteConfig::rewrite_op()
        };
        let passes = optimize(&mut aig, Engine::AbcRewrite, &cfg, 6).unwrap();
        assert!(
            passes.len() >= 2,
            "needs at least one improving + one fixpoint pass"
        );
        assert_eq!(passes.last().unwrap().area_reduction(), 0, "converged");
        assert_eq!(
            check_equivalence(&golden, &aig, &CecConfig::default()),
            CecResult::Equivalent
        );
    }

    #[test]
    fn two_runs_reduce_at_least_as_much_as_one() {
        let golden = control::voter(21);
        let base = RewriteConfig {
            num_classes: 222,
            ..RewriteConfig::rewrite_op()
        };
        let mut one = golden.clone();
        let s1 = run_engine(&mut one, Engine::DacPara, &base).unwrap();
        let mut two = golden.clone();
        let s2 = run_engine(
            &mut two,
            Engine::DacPara,
            &RewriteConfig { runs: 2, ..base },
        )
        .unwrap();
        assert!(
            s2.area_after <= s1.area_after,
            "second run must not lose ground: {} vs {}",
            s2.area_after,
            s1.area_after
        );
    }

    #[test]
    fn engine_names_are_distinct() {
        let names: std::collections::HashSet<_> = Engine::ALL.iter().map(|e| e.name()).collect();
        assert_eq!(names.len(), Engine::ALL.len());
    }

    #[test]
    fn engine_names_round_trip_through_from_str() {
        for e in Engine::ALL {
            assert_eq!(e.name().parse(), Ok(e));
        }
        // Historical CLI aliases stay accepted.
        assert_eq!("abc".parse(), Ok(Engine::AbcRewrite));
        assert_eq!("dac22".parse(), Ok(Engine::Dac22));
        assert_eq!("tcad23".parse(), Ok(Engine::Tcad23));
        assert_eq!("partition".parse(), Ok(Engine::Partition));
        let err = "no-such-engine".parse::<Engine>().unwrap_err();
        assert!(err.to_string().contains("dacpara"), "{err}");
        for e in Engine::ALL {
            assert!(Engine::help_list().contains(e.name()));
        }
    }

    #[test]
    fn run_engine_validates_config() {
        let mut aig = control::voter(11);
        let bad = RewriteConfig {
            runs: 0,
            ..RewriteConfig::rewrite_op()
        };
        for engine in Engine::ALL {
            let err = run_engine(&mut aig, engine, &bad).unwrap_err();
            assert!(err.to_string().contains("invalid configuration"));
        }
    }
}
