//! Differential suite: every parallel engine, on every benchmark of the
//! Table 1 test-scale suite, must (a) stay CEC-equivalent to its input and
//! (b) land inside an engine-dependent envelope of the serial ABC-rewrite
//! baseline's final area, across thread counts.
//!
//! This is also the quality pin for the work-stealing scheduler: it may
//! reorder commits (a stolen block runs on another worker, interleaved
//! with that worker's own), and the envelope bounds what that reordering
//! may cost. A lock conflict does not reorder anything: the conflicted
//! activity retries in place, which the injected-conflict test pins.

use std::sync::{Mutex, MutexGuard};

use dacpara::testkit::{assert_suite_equiv, baseline_slack, PARALLEL_ENGINES};
use dacpara::{run_engine, Engine, RewriteConfig, RewriteStats};
use dacpara_aig::{aiger, AigRead};
use dacpara_circuits::{full_suite, Benchmark, Scale};

/// Serializes the tests in this binary: a fault plan is process-global, so
/// an armed test would otherwise inject conflicts into its neighbours' runs
/// and they would consume its firings.
fn exclusive() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
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
    let _serial = exclusive();
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
                let cfg = engine.paper_config().with_threads(threads);
                let mut aig = bench.aig.clone();
                run_engine(&mut aig, engine, &cfg)
                    .unwrap_or_else(|e| panic!("{engine} failed on {}: {e}", bench.name));
                aig.check()
                    .unwrap_or_else(|e| panic!("{engine} corrupted {}: {e}", bench.name));
                let label = format!("x{threads}");
                assert_suite_equiv(
                    &bench.aig,
                    &aig,
                    &format!("{label}: {engine} on {}", bench.name),
                );
                assert_within_baseline(bench, engine, aig.num_ands(), serial_after, &label);
            }
        }
    }
}

/// Every count of `stats` except the speculation ledger (`spec`) and the
/// wall time, for comparing an armed run with an unarmed one.
fn counts(s: &RewriteStats) -> impl PartialEq + std::fmt::Debug {
    (
        (s.area_before, s.area_after, s.delay_before, s.delay_after),
        (
            s.replacements,
            s.stale_skipped,
            s.revalidated,
            s.evaluations,
        ),
        (s.clean_skipped, s.steals, s.worklists),
        (s.recoveries, s.salvaged_commits, s.errors_observed),
    )
}

#[test]
fn injected_conflicts_retry_in_place_at_one_thread() {
    // At one thread nothing else runs between a conflicted attempt and its
    // retry, and a conflict changes nothing, so an injected conflict may
    // cost attempts but must not change the result or its bookkeeping: the
    // same AIGER bytes and every count but the speculation ledger's.
    let _serial = exclusive();
    let plan = dacpara_fault::FaultPlan::parse("lock.acquire=1/8*50", 0).expect("valid plan");
    for bench in &full_suite(Scale::Test) {
        for engine in [Engine::DacPara, Engine::Iccad18] {
            let cfg = engine.paper_config().with_threads(1);
            let run = || {
                let mut aig = bench.aig.clone();
                let stats = run_engine(&mut aig, engine, &cfg)
                    .unwrap_or_else(|e| panic!("{engine} failed on {}: {e}", bench.name));
                (aiger::to_string(&aig), stats)
            };
            let (want, clean) = run();
            let injection = dacpara_fault::inject(&plan);
            let (got, armed) = run();
            drop(injection);
            let label = format!("{engine} on {}", bench.name);
            assert!(
                got == want,
                "{label}: injected conflicts changed the output"
            );
            assert_eq!(counts(&armed), counts(&clean), "{label}");
            assert_eq!(
                armed.spec.commits + armed.spec.aborts,
                armed.spec.attempts,
                "{label}: attempt accounting broke"
            );
            assert!(armed.spec.aborts > 0, "{label}: the plan never fired");
        }
    }
}
