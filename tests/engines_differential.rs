//! Differential suite: every parallel engine, on every benchmark of the
//! Table 1 test-scale suite, must (a) stay CEC-equivalent to its input and
//! (b) land inside an engine-dependent envelope of the serial ABC-rewrite
//! baseline's final area, across thread counts.
//!
//! This is also the quality pin for the work-stealing scheduler: it may
//! reorder commits (retried nodes land late instead of serializing their
//! worker), and the envelope bounds what that reordering may cost.

use dacpara::testkit::{base_cfg, baseline_slack, PARALLEL_ENGINES};
use dacpara::{run_engine, Engine, RewriteConfig};
use dacpara_aig::{Aig, AigRead};
use dacpara_circuits::{full_suite, Benchmark, Scale};
use dacpara_equiv::{check_equivalence, random_sim_check, CecConfig, CecResult, SimOutcome};

/// CEC via SAT where affordable, exhaustive random simulation otherwise
/// (same policy as `engines_equivalence.rs`).
fn assert_equiv(golden: &Aig, rewritten: &Aig, label: &str) {
    if golden.num_ands() + rewritten.num_ands() < 4_000 {
        assert_eq!(
            check_equivalence(golden, rewritten, &CecConfig::default()),
            CecResult::Equivalent,
            "{label}"
        );
    } else {
        assert_eq!(
            random_sim_check(golden, rewritten, 24, 0xEDA),
            SimOutcome::NoDifferenceFound,
            "{label}"
        );
    }
}

/// Runs the serial baseline for `cfg` and returns its final area.
fn serial_area(bench: &Benchmark, cfg: &RewriteConfig) -> usize {
    let mut aig = bench.aig.clone();
    let stats = run_engine(&mut aig, Engine::AbcRewrite, cfg)
        .unwrap_or_else(|e| panic!("serial baseline failed on {}: {e}", bench.name));
    stats.area_after
}

fn assert_within_baseline(
    bench: &Benchmark,
    engine: Engine,
    area_after: usize,
    serial_after: usize,
    label: &str,
) {
    let bound = serial_after + baseline_slack(engine, bench.aig.num_ands(), serial_after);
    assert!(
        area_after <= bound,
        "{label}: {engine} on {} finished at {} ANDs, serial baseline {} (bound {})",
        bench.name,
        area_after,
        serial_after,
        bound
    );
}

#[test]
fn parallel_engines_track_the_serial_baseline_across_threads() {
    for bench in &full_suite(Scale::Test) {
        let serial_rw = serial_area(bench, &RewriteConfig::rewrite_op());
        let serial_drw = serial_area(bench, &RewriteConfig::drw_op());
        for engine in PARALLEL_ENGINES {
            let serial_after = match engine {
                Engine::Dac22 | Engine::Tcad23 => serial_drw,
                _ => serial_rw,
            };
            for threads in [1, 2, 4] {
                eprintln!("[diff] {} {engine} x{threads}", bench.name);
                let cfg = base_cfg(engine).with_threads(threads);
                let mut aig = bench.aig.clone();
                run_engine(&mut aig, engine, &cfg)
                    .unwrap_or_else(|e| panic!("{engine} failed on {}: {e}", bench.name));
                aig.check()
                    .unwrap_or_else(|e| panic!("{engine} corrupted {}: {e}", bench.name));
                let label = format!("x{threads}");
                assert_equiv(
                    &bench.aig,
                    &aig,
                    &format!("{label}: {engine} on {}", bench.name),
                );
                assert_within_baseline(bench, engine, aig.num_ands(), serial_after, &label);
            }
        }
    }
}

#[test]
fn steal_scheduler_salvages_conflicted_commits_on_the_largest_circuit() {
    // Acceptance for the in-pass retry queue: on the largest suite circuit
    // at 4 threads a conflict-aborted activity must be retried and then
    // commit within the same pass (`sched.retry_commits > 0`). Conflicts
    // are probabilistic, so sweep both Galois engines and a few fresh runs
    // before declaring the retry path dead.
    let suite = full_suite(Scale::Test);
    let bench = suite
        .iter()
        .max_by_key(|b| b.aig.num_ands())
        .expect("non-empty suite");
    let cfg = RewriteConfig::rewrite_op().with_threads(4);
    let mut salvaged = 0u64;
    let mut sweeps = Vec::new();
    'search: for round in 0..5 {
        for engine in [Engine::Iccad18, Engine::DacPara] {
            let mut aig = bench.aig.clone();
            let stats = run_engine(&mut aig, engine, &cfg).unwrap();
            aig.check().unwrap();
            assert_equiv(&bench.aig, &aig, &format!("{engine} on {}", bench.name));
            sweeps.push(format!(
                "round {round} {engine}: {} [{}]",
                stats.spec, stats.sched
            ));
            assert_eq!(
                stats.spec.commits + stats.spec.aborts,
                stats.spec.attempts,
                "attempt accounting broke on {engine}"
            );
            salvaged += stats.sched.retry_commits;
            if salvaged > 0 {
                break 'search;
            }
        }
    }
    assert!(
        salvaged > 0,
        "no conflicted activity was retried to completion on {} at 4 threads:\n{}",
        bench.name,
        sweeps.join("\n")
    );
}
