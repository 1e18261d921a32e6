//! Shared engine-matrix driver and equivalence policies for differential
//! test suites and the fuzzer.
//!
//! The differential suite (`tests/engines_differential.rs`), the recovery
//! suite and the `dacpara-fuzz` oracle all sweep the same space: every
//! parallel engine across thread counts, with the result checked for equivalence against the input and
//! for area against a serial baseline. This module is the single home for
//! that sweep so the fuzzer exercises exactly the configurations the test
//! suites pin down — a divergence found by one is replayable by the other.
//!
//! It is also the home of the test-side equivalence policies: each is one
//! named [`CecConfig`] plus one reading of [`CecResult::Undecided`].
//!
//! | policy | config | `Undecided` |
//! |---|---|---|
//! | fuzz oracle ([`run_matrix_point`]) | [`FUZZ_CEC`] | passes |
//! | differential suites ([`assert_suite_equiv`]) | [`SUITE_CEC`] | fails below the SAT cap |
//! | engine unit tests ([`assert_equiv`]) | 100k conflicts, no cap | passes |

use dacpara_aig::{Aig, AigRead};
use dacpara_equiv::{check_equivalence, CecConfig, CecResult};

use crate::{run_engine, Engine, RewriteConfig};

/// The fuzz oracle's check: SAT below 4,000 ANDs on a 200k-conflict
/// budget, and more simulation rounds than the default, since refutation is
/// the common case worth being fast at.
pub const FUZZ_CEC: CecConfig = CecConfig {
    sim_rounds: 32,
    sat_node_limit: 4_000,
    max_conflicts: 200_000,
    seed: 0xDAC_2024,
};

/// The differential suites' check: a full 2M-conflict proof below 4,000
/// ANDs, 24 rounds of simulation alone above.
pub const SUITE_CEC: CecConfig = CecConfig {
    sim_rounds: 24,
    sat_node_limit: 4_000,
    max_conflicts: 2_000_000,
    seed: 0xEDA,
};

/// The five parallel engines (everything except the serial baseline).
pub const PARALLEL_ENGINES: [Engine; 5] = [
    Engine::Iccad18,
    Engine::Dac22,
    Engine::Tcad23,
    Engine::DacPara,
    Engine::Partition,
];

/// Engine-dependent envelope around the serial baseline, expressed as a
/// fraction of the reduction the serial order achieved.
///
/// * `dacpara` — §5.2 claims near-parity with the serial result; the suite's
///   observed worst case is ~7% of the serial reduction, so pin 10%.
/// * `iccad18` — the per-level commit order forfeits more rewrites that a
///   global ordering would chain (observed up to 15%); pin 25%.
/// * the static emulations and the coarse partitioner trade quality for
///   structure and on some circuits recover none of the serial reduction —
///   for them the pin is "never worse than the input netlist".
pub fn baseline_slack(engine: Engine, area_before: usize, serial_after: usize) -> usize {
    let reduction = area_before - serial_after;
    match engine {
        Engine::DacPara => 1 + reduction / 10,
        Engine::Iccad18 => 1 + reduction / 4,
        _ => reduction,
    }
}

/// One cell of the engine matrix: an engine and a thread count.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct MatrixPoint {
    /// The rewriting engine under test.
    pub engine: Engine,
    /// Worker thread count.
    pub threads: usize,
}

impl MatrixPoint {
    /// The paper configuration for this cell (see [`Engine::paper_config`]).
    pub fn cfg(&self) -> RewriteConfig {
        self.engine.paper_config().with_threads(self.threads)
    }

    /// Stable human-readable label (used in failure reports and corpus
    /// entries), e.g. `dacpara/x4`.
    pub fn label(&self) -> String {
        format!("{}/x{}", self.engine, self.threads)
    }
}

impl std::fmt::Display for MatrixPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

/// The full differential sweep: every engine in [`PARALLEL_ENGINES`] at
/// each of `threads`.
pub fn engine_matrix(threads: &[usize]) -> Vec<MatrixPoint> {
    let mut points = Vec::new();
    for engine in PARALLEL_ENGINES {
        for &threads in threads {
            points.push(MatrixPoint { engine, threads });
        }
    }
    points
}

/// Verdict of [`run_matrix_point`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MatrixVerdict {
    /// The engine ran, the result passed the structural invariant checker
    /// and was (SAT-proven or sim-checked) equivalent to the input.
    Pass {
        /// AND count of the rewritten graph.
        area_after: usize,
    },
    /// The engine returned an error.
    EngineError(String),
    /// The rewritten graph failed [`Aig::check`].
    InvariantViolation(String),
    /// The rewritten graph is functionally different from the input.
    Inequivalent {
        /// A differing input assignment, when the checker produced one.
        counterexample: Vec<bool>,
    },
}

impl MatrixVerdict {
    /// Whether this verdict is a failure the fuzzer should report.
    pub fn is_failure(&self) -> bool {
        !matches!(self, MatrixVerdict::Pass { .. })
    }
}

/// Runs one matrix cell on a copy of `golden` and returns the verdict:
/// engine error, invariant violation, inequivalence, or pass.
///
/// Equivalence is checked under [`FUZZ_CEC`], so large pairs are only
/// sim-checked; `Undecided` counts as a pass (refutation is the oracle's
/// job, proofs are best-effort).
pub fn run_matrix_point(golden: &Aig, point: &MatrixPoint) -> MatrixVerdict {
    let cfg = point.cfg();
    let mut aig = golden.clone();
    if let Err(e) = run_engine(&mut aig, point.engine, &cfg) {
        return MatrixVerdict::EngineError(e.to_string());
    }
    if let Err(e) = aig.check() {
        return MatrixVerdict::InvariantViolation(e.to_string());
    }
    match check_equivalence(golden, &aig, &FUZZ_CEC) {
        CecResult::Equivalent | CecResult::Undecided => MatrixVerdict::Pass {
            area_after: aig.num_ands(),
        },
        CecResult::Inequivalent(cex) => MatrixVerdict::Inequivalent {
            counterexample: cex,
        },
    }
}

/// The differential suites' strict check under [`SUITE_CEC`]: below the SAT
/// cap the pair must be proven equivalent, above it simulation must find no
/// difference.
///
/// # Panics
///
/// Panics, naming `label`, on a counterexample, or on `Undecided` for a
/// pair small enough to prove.
pub fn assert_suite_equiv(golden: &Aig, rewritten: &Aig, label: &str) {
    match check_equivalence(golden, rewritten, &SUITE_CEC) {
        CecResult::Equivalent => {}
        CecResult::Undecided if !SUITE_CEC.attempts_proof(golden, rewritten) => {}
        other => panic!("{label}: expected equivalence, got {other:?}"),
    }
}

/// The engines' quick equivalence check: SAT on a 100k-conflict budget. A
/// counterexample always fails; an exhausted budget falls back on the
/// (passing) simulation.
///
/// # Panics
///
/// Panics if the check finds a counterexample.
pub fn assert_equiv(before: &Aig, after: &Aig) {
    const QUICK: CecConfig = CecConfig {
        sim_rounds: 32,
        sat_node_limit: usize::MAX,
        max_conflicts: 100_000,
        seed: 0xDAC,
    };
    if let CecResult::Inequivalent(_) = check_equivalence(before, after, &QUICK) {
        panic!("rewriting broke equivalence");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dacpara_aig::RebuildPlan;
    use dacpara_circuits::arith;

    #[test]
    fn matrix_covers_every_engine_at_every_thread_count() {
        let points = engine_matrix(&[1, 2, 4]);
        assert_eq!(points.len(), PARALLEL_ENGINES.len() * 3);
        for engine in PARALLEL_ENGINES {
            assert_eq!(points.iter().filter(|p| p.engine == engine).count(), 3);
        }
    }

    #[test]
    fn matrix_point_passes_on_a_healthy_engine() {
        let golden = arith::multiplier(4);
        let point = MatrixPoint {
            engine: Engine::DacPara,
            threads: 2,
        };
        match run_matrix_point(&golden, &point) {
            MatrixVerdict::Pass { area_after } => {
                assert!(area_after <= golden.num_ands());
            }
            other => panic!("expected a pass, got {other:?}"),
        }
        assert_eq!(point.label(), "dacpara/x2");
    }

    #[test]
    #[should_panic(expected = "expected equivalence")]
    fn suite_assertion_refutes_below_the_sat_cap() {
        let golden = arith::adder(4);
        let broken = RebuildPlan::new().flip_output(1).apply(&golden).unwrap();
        assert!(SUITE_CEC.attempts_proof(&golden, &broken));
        assert_suite_equiv(&golden, &broken, "flipped adder");
    }

    #[test]
    #[should_panic(expected = "expected equivalence")]
    fn suite_assertion_refutes_above_the_sat_cap() {
        let golden = arith::multiplier(32);
        assert!(golden.num_ands() > SUITE_CEC.sat_node_limit);
        let broken = RebuildPlan::new().flip_output(7).apply(&golden).unwrap();
        assert!(!SUITE_CEC.attempts_proof(&golden, &broken));
        assert_suite_equiv(&golden, &broken, "flipped multiplier");
    }
}
