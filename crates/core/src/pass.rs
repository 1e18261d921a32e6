//! Uniform driver over the rewriting engines.

use dacpara_aig::{Aig, AigError};

use crate::{
    rewrite_dacpara, rewrite_lockstep, rewrite_partition, rewrite_serial, rewrite_static,
    RewriteConfig, RewriteSession, RewriteStats, StaticMode,
};

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

/// Runs one engine over the graph, in place. Every engine takes exactly
/// `(aig, cfg)`: what an engine tunes lives in [`RewriteConfig`] or is
/// derived from it (the partition engine uses `2 × threads` regions).
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
    cfg.validate()?;
    let _obs = dacpara_obs::span!("run_engine", engine = engine.name());
    match engine {
        Engine::AbcRewrite => rewrite_serial(aig, cfg),
        Engine::Iccad18 => rewrite_lockstep(aig, cfg),
        Engine::Dac22 => rewrite_static(aig, cfg, StaticMode::Conditional),
        Engine::Tcad23 => rewrite_static(aig, cfg, StaticMode::Unconditional),
        Engine::DacPara => rewrite_dacpara(aig, cfg),
        Engine::Partition => rewrite_partition(aig, cfg),
    }
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
    use dacpara_circuits::control;
    use dacpara_equiv::{check_equivalence, CecConfig, CecResult};

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
