//! Shared engine-matrix driver for differential test suites and the fuzzer.
//!
//! The differential suite (`tests/engines_differential.rs`), the recovery
//! suite and the `dacpara-fuzz` oracle all sweep the same space: every
//! parallel engine across thread counts, with the result checked for equivalence against the input and
//! for area against a serial baseline. This module is the single home for
//! that sweep so the fuzzer exercises exactly the configurations the test
//! suites pin down — a divergence found by one is replayable by the other.

use dacpara_aig::{Aig, AigRead};
use dacpara_equiv::{check_equivalence_budgeted, CecBudget, CecResult};

use crate::{run_engine, Engine, RewriteConfig};

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
/// Equivalence uses [`check_equivalence_budgeted`], so very large pairs are
/// only sim-checked; `Undecided` counts as a pass (the suites' long-standing
/// policy — refutation is the oracle's job, proofs are best-effort).
pub fn run_matrix_point(golden: &Aig, point: &MatrixPoint, budget: &CecBudget) -> MatrixVerdict {
    let cfg = point.cfg();
    let mut aig = golden.clone();
    if let Err(e) = run_engine(&mut aig, point.engine, &cfg) {
        return MatrixVerdict::EngineError(e.to_string());
    }
    if let Err(e) = aig.check() {
        return MatrixVerdict::InvariantViolation(e.to_string());
    }
    match check_equivalence_budgeted(golden, &aig, budget) {
        CecResult::Equivalent | CecResult::Undecided => MatrixVerdict::Pass {
            area_after: aig.num_ands(),
        },
        CecResult::Inequivalent(cex) => MatrixVerdict::Inequivalent {
            counterexample: cex,
        },
    }
}

/// The engines' unit-test equivalence check: a counterexample always
/// fails; an exhausted SAT budget falls back on the (passing) simulation
/// check.
#[cfg(test)]
pub(crate) fn assert_equiv(before: &Aig, after: &Aig) {
    let cfg = dacpara_equiv::CecConfig {
        sim_rounds: 32,
        max_conflicts: 100_000,
        seed: 0xDAC,
    };
    if let CecResult::Inequivalent(_) = dacpara_equiv::check_equivalence(before, after, &cfg) {
        panic!("rewriting broke equivalence");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        match run_matrix_point(&golden, &point, &CecBudget::default()) {
            MatrixVerdict::Pass { area_after } => {
                assert!(area_after <= golden.num_ands());
            }
            other => panic!("expected a pass, got {other:?}"),
        }
        assert_eq!(point.label(), "dacpara/x2");
    }
}
