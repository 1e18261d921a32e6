//! Executes engines over benchmarks and records results.

use std::time::Instant;

use dacpara::{run_engine, Engine, RewriteConfig, RewriteStats};
use dacpara_aig::Aig;
use dacpara_circuits::{Benchmark, Scale};
use dacpara_equiv::{check_equivalence, CecConfig, CecResult};
use dacpara_obs::json::{Json, ToJson};

/// One engine × benchmark measurement.
#[derive(Clone, Debug)]
pub struct BenchRun {
    /// Benchmark name.
    pub benchmark: String,
    /// Mean wall-clock seconds over the repeats.
    pub time_s: f64,
    /// The last repeat's pass statistics (engine name, area, delay and
    /// every count).
    pub stats: RewriteStats,
    /// Equivalence check verdict (`None` = skipped).
    pub equivalent: Option<bool>,
}

impl ToJson for BenchRun {
    fn to_json(&self) -> Json {
        let s = &self.stats;
        Json::obj([
            ("benchmark", self.benchmark.to_json()),
            ("engine", s.engine.to_json()),
            ("time_s", self.time_s.to_json()),
            ("area_before", s.area_before.to_json()),
            ("area_after", s.area_after.to_json()),
            ("area_reduction", s.area_reduction().to_json()),
            ("delay", s.delay_after.to_json()),
            ("delay_before", s.delay_before.to_json()),
            ("replacements", s.replacements.to_json()),
            ("stale_skipped", s.stale_skipped.to_json()),
            ("revalidated", s.revalidated.to_json()),
            ("conflicts", s.spec.conflicts.to_json()),
            ("aborts", s.spec.aborts.to_json()),
            ("wasted_fraction", s.spec.wasted_fraction().to_json()),
            ("equivalent", self.equivalent.to_json()),
        ])
    }
}

/// How the harness runs experiments.
#[derive(Copy, Clone, Debug)]
pub struct Harness {
    /// Benchmark scale.
    pub scale: Scale,
    /// Threads for the parallel engines.
    pub threads: usize,
    /// Timing repeats (the paper averages 5 executions).
    pub repeats: usize,
    /// Check functional equivalence after each run (under [`HARNESS_CEC`]).
    pub check: bool,
}

/// The harness's equivalence check: a 50k-conflict SAT proof for pairs of
/// at most 2,000 ANDs together, random simulation alone above. Only a
/// counterexample fails a run; `Undecided` counts as equivalent.
pub const HARNESS_CEC: CecConfig = CecConfig {
    sim_rounds: 32,
    sat_node_limit: 2_001,
    max_conflicts: 50_000,
    seed: 0xDAC,
};

impl Default for Harness {
    fn default() -> Self {
        Harness {
            scale: Scale::Small,
            threads: 4,
            repeats: 1,
            check: true,
        }
    }
}

impl Harness {
    /// Runs `engine` on a fresh copy of the benchmark, `repeats` times,
    /// averaging the wall-clock time and reporting the last run's quality.
    ///
    /// # Panics
    ///
    /// Panics if `repeats` is zero, if the engine reports an error (a
    /// configuration problem worth failing loudly on) or if the equivalence
    /// check *disproves* equivalence — a rewriting bug must never be
    /// silently recorded as a data point.
    pub fn run_one(&self, bench: &Benchmark, engine: Engine, cfg: &RewriteConfig) -> BenchRun {
        let _obs = dacpara_obs::span!("bench_run", benchmark = bench.name, engine = engine.name());
        let mut last_stats = None;
        let mut last_aig: Option<Aig> = None;
        let mut total = 0.0f64;
        for _ in 0..self.repeats {
            let mut aig = bench.aig.clone();
            let t0 = Instant::now();
            let stats = run_engine(&mut aig, engine, cfg)
                .unwrap_or_else(|e| panic!("{engine} failed on {}: {e}", bench.name));
            total += t0.elapsed().as_secs_f64();
            last_stats = Some(stats);
            last_aig = Some(aig);
        }
        let stats = last_stats.expect("at least one repeat");
        let rewritten = last_aig.expect("at least one repeat");

        let equivalent = if self.check {
            if let CecResult::Inequivalent(_) =
                check_equivalence(&bench.aig, &rewritten, &HARNESS_CEC)
            {
                panic!("{engine} produced a non-equivalent {}", bench.name);
            }
            Some(true)
        } else {
            None
        };

        BenchRun {
            benchmark: bench.name.clone(),
            time_s: total / self.repeats as f64,
            stats,
            equivalent,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dacpara_circuits::mtm_suite;

    #[test]
    fn harness_runs_and_checks() {
        let harness = Harness {
            scale: Scale::Test,
            threads: 2,
            repeats: 1,
            check: true,
        };
        let suite = mtm_suite(Scale::Test);
        let cfg = RewriteConfig::rewrite_op().with_threads(2);
        let run = harness.run_one(&suite[0], Engine::DacPara, &cfg);
        assert_eq!(run.stats.engine, "dacpara");
        assert_eq!(run.equivalent, Some(true));
        assert!(run.stats.area_after <= run.stats.area_before);
    }
}
