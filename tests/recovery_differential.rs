//! Recovery differential suite: the fault-tolerant concurrent engines must
//! absorb injected lock faults and contained worker panics — completing
//! with a CEC-equivalent graph instead of returning `Err`, and never
//! hanging (every engine run is under a watchdog).
//!
//! Three behaviours are exercised:
//!
//! * **an exact arena** — the session sizes the arena to the live graph
//!   plus a per-thread bound, so fault-free runs never recover;
//! * **injected faults** — `dacpara_fault` plans firing at the speculative
//!   lock table and at both `operator.panic` sites (operator entry and
//!   mid-commit), swept over ≥16 seeds across thread counts and engines;
//! * **panic budgets** — a persistently panicking operator must surface as
//!   `AigError::WorkerPanicked` once the recovery budget is exhausted,
//!   never as a process abort or a hung scope join.
//!
//! Fault plans are process-global, so every test serializes on one lock:
//! an unsynchronized fault-free run racing an armed plan would see someone
//! else's injected faults.

use std::panic;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::thread;
use std::time::Duration;

use dacpara::{run_engine, Engine, RewriteConfig, RewriteStats};
use dacpara_aig::{Aig, AigError, AigRead};
use dacpara_circuits::{full_suite, Benchmark, Scale};
use dacpara_equiv::{check_equivalence, random_sim_check, CecConfig, CecResult, SimOutcome};
use dacpara_fault::{points, FaultPlan};

/// The session's in-pass recovery budget for contained panics
/// (`MAX_RECOVERIES` in `crates/core/src/session.rs`).
const MAX_RECOVERIES: u64 = 8;

/// No single engine run on a test-scale circuit takes anywhere near this
/// long; hitting it means a recovery path deadlocked (the class of bug the
/// stage-guard seeding race produced) and the test must fail, not hang CI.
const WATCHDOG_BASE_SECS: u64 = 300;

/// The watchdog deadline, scaled by the `DACPARA_TEST_TIMEOUT_MUL` env
/// multiplier. Sanitizer builds run the same workload an order of
/// magnitude slower (TSan instruments every memory access), so their
/// workflows export a multiplier instead of this file hardcoding the
/// worst case for everyone — a genuine deadlock should still fail fast in
/// normal CI.
fn watchdog() -> Duration {
    let mul = std::env::var("DACPARA_TEST_TIMEOUT_MUL")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .filter(|&m| m >= 1)
        .unwrap_or(1);
    Duration::from_secs(WATCHDOG_BASE_SECS * mul)
}

/// Serializes the tests in this binary: fault plans and the injection
/// firing counters are process-global state.
fn exclusive() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Runs `engine` on its own thread and panics if it neither reports nor
/// panics within [`watchdog`] — a hang is a test failure, not a CI timeout.
fn run_with_watchdog(
    label: &str,
    aig: Aig,
    engine: Engine,
    cfg: RewriteConfig,
) -> (Aig, Result<RewriteStats, AigError>) {
    let (tx, rx) = mpsc::channel();
    let handle = thread::spawn(move || {
        let mut aig = aig;
        let result = run_engine(&mut aig, engine, &cfg);
        let _ = tx.send((aig, result));
    });
    let deadline = watchdog();
    match rx.recv_timeout(deadline) {
        Ok(out) => {
            handle.join().expect("engine thread exited after reporting");
            out
        }
        Err(RecvTimeoutError::Timeout) => {
            panic!("{label}: engine hung (no result within {deadline:?})")
        }
        Err(RecvTimeoutError::Disconnected) => match handle.join() {
            Ok(()) => unreachable!("engine thread dropped its sender without a result"),
            Err(payload) => panic::resume_unwind(payload),
        },
    }
}

/// CEC via SAT where affordable, exhaustive random simulation otherwise
/// (same policy as `engines_differential.rs`).
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

/// Common post-run checks for a run that must have *recovered*, not failed:
/// structural invariants hold, the result is equivalent to the input, and
/// the recovery and speculation counters are internally consistent.
fn assert_recovered_ok(bench: &Benchmark, aig: &Aig, stats: &RewriteStats, label: &str) -> u64 {
    aig.check()
        .unwrap_or_else(|e| panic!("{label}: recovered graph is corrupt: {e}"));
    assert_equiv(&bench.aig, aig, label);
    assert!(
        stats.salvaged_commits <= stats.replacements,
        "{label}: salvaged more commits than were made: {}",
        stats.summary()
    );
    // Every attempt ends in exactly one commit or abort, including the ones
    // an injected fault cut short.
    assert_eq!(
        stats.spec.attempts,
        stats.spec.commits + stats.spec.aborts,
        "{label}: attempt accounting broke: {}",
        stats.summary()
    );
    stats.recoveries
}

/// The arena holds the live graph plus `threads × (MAX_STRUCTURE_GATES +
/// 1)` slots, and rewriting never grows the live graph past that
/// (ARCHITECTURE.md §12). So both concurrent engines complete every
/// test-scale circuit at 1/2/4/8 threads without a single recovery — a run
/// that found the arena full would return `Err` here, since a full arena
/// is an invariant violation that recovery never retries.
#[test]
fn exact_arena_completes_every_circuit_without_recovery() {
    let _serial = exclusive();
    for bench in &full_suite(Scale::Test) {
        for engine in [Engine::DacPara, Engine::Iccad18] {
            for threads in [1, 2, 4, 8] {
                eprintln!("[recov] {} {engine} x{threads}", bench.name);
                let cfg = RewriteConfig::rewrite_op().with_threads(threads);
                let label = format!("{engine} x{threads} on {}", bench.name);
                let (aig, result) = run_with_watchdog(&label, bench.aig.clone(), engine, cfg);
                let stats = result.unwrap_or_else(|e| panic!("{label}: {e}"));
                let recoveries = assert_recovered_ok(bench, &aig, &stats, &label);
                assert_eq!(recoveries, 0, "{label}: {}", stats.summary());
            }
        }
    }
}

/// Injected-fault sweep: ≥16 seeds spread across both recoverable fault
/// points, both engines, and 1/2/4 threads, on the largest test-scale
/// circuit. Every run must complete (recovering as needed), stay
/// equivalent, and never hang; across the sweep every fault point must
/// actually fire.
#[test]
fn injected_faults_never_hang_or_break_equivalence() {
    let _serial = exclusive();
    dacpara_fault::silence_injected_panics();
    let suite = full_suite(Scale::Test);
    let bench = suite
        .iter()
        .max_by_key(|b| b.aig.num_ands())
        .expect("non-empty suite");
    // Rotated per seed; caps keep each plan inside the recovery budget.
    const SPECS: [&str; 4] = [
        "operator.panic=1/40*2",
        "operator.panic=@3*1",
        "lock.acquire=1/20*50",
        "operator.panic=1/60*3,lock.acquire=1/50*20",
    ];
    let mut fired = [0u64; 2];
    for seed in 0..16u64 {
        let spec = SPECS[(seed % 4) as usize];
        let threads = [1, 2, 4][(seed % 3) as usize];
        let engine = if (seed / 2) % 2 == 0 {
            Engine::DacPara
        } else {
            Engine::Iccad18
        };
        let cfg = RewriteConfig::rewrite_op().with_threads(threads);
        let label = format!("seed {seed} [{spec}] {engine} x{threads} on {}", bench.name);
        eprintln!("[recov] {label}");
        let plan = FaultPlan::parse(spec, seed).expect("valid sweep spec");
        let injection = dacpara_fault::inject(&plan);
        let (aig, result) = run_with_watchdog(&label, bench.aig.clone(), engine, cfg);
        let run_fired = [
            injection.fired(points::LOCK_ACQUIRE),
            injection.fired(points::OPERATOR_PANIC),
        ];
        drop(injection);
        let stats =
            result.unwrap_or_else(|e| panic!("{label}: recovery did not absorb the fault: {e}"));
        assert_recovered_ok(bench, &aig, &stats, &label);
        // Lock faults are absorbed as ordinary conflicts; a panic ends the
        // round with an error that a successful run can only have survived
        // through recovery.
        if run_fired[1] > 0 {
            assert!(
                stats.recoveries > 0,
                "{label}: injected panic(s) fired but no recovery was recorded: {}",
                stats.summary()
            );
        }
        for (name, n) in [
            (points::LOCK_ACQUIRE, run_fired[0]),
            (points::OPERATOR_PANIC, run_fired[1]),
        ] {
            if n > 0 {
                eprintln!("[recov]   {name} fired {n}x: {}", stats.summary());
            }
        }
        fired[0] += run_fired[0];
        fired[1] += run_fired[1];
    }
    // Aggregate, not per-seed: a rate-mode plan is free to never select a
    // firing index for one particular seed, but across 16 seeds a silent
    // point means the sweep is not testing what it claims to.
    let [lock, panic] = fired;
    assert!(lock > 0, "no lock.acquire fault ever fired");
    assert!(panic > 0, "no operator.panic fault ever fired");
}

/// `operator.panic` also fires inside `commit_replacement`, after the new
/// structure is built and before anything is rewired. With one worker the
/// hit order is deterministic, so sweeping `@k` over the first hits lands
/// on both sites; a panic at the in-commit site is the only way a
/// one-worker, lock-fault-free run can record an abort (the attempt it cut
/// short). Every run must salvage a graph that passes `check()` and CEC,
/// and the sweep stops once three panics have landed mid-commit.
#[test]
fn mid_commit_panic_salvages_an_equivalent_graph() {
    const HITS: u64 = 400;
    let _serial = exclusive();
    dacpara_fault::silence_injected_panics();
    let suite = full_suite(Scale::Test);
    let bench = suite
        .iter()
        .min_by_key(|b| b.aig.num_ands())
        .expect("non-empty suite");
    for engine in [Engine::DacPara, Engine::Iccad18] {
        let mut mid_commit = 0;
        for k in 1..=HITS {
            if mid_commit == 3 {
                break;
            }
            let cfg = RewriteConfig::rewrite_op().with_threads(1);
            let label = format!("panic @{k} {engine} on {}", bench.name);
            let plan = FaultPlan::parse(&format!("operator.panic=@{k}*1"), 0).expect("valid");
            let injection = dacpara_fault::inject(&plan);
            let (aig, result) = run_with_watchdog(&label, bench.aig.clone(), engine, cfg);
            let fired = injection.fired(points::OPERATOR_PANIC);
            drop(injection);
            let stats = result.unwrap_or_else(|e| panic!("{label}: panic was not recovered: {e}"));
            assert_recovered_ok(bench, &aig, &stats, &label);
            assert_eq!(stats.recoveries, fired, "{label}: {}", stats.summary());
            mid_commit += stats.spec.aborts;
        }
        assert_eq!(
            mid_commit, 3,
            "{engine}: too few of the first {HITS} hits landed mid-commit"
        );
    }
}

/// A single injected operator panic must be contained (no abort, no hung
/// scope join), validated (`check()` + certificates: every commit's root
/// was certified before it was installed), and reported through
/// `RewriteStats::recoveries`. The test still CECs the result itself.
#[test]
fn contained_panic_is_recovered_and_validated() {
    let _serial = exclusive();
    dacpara_fault::silence_injected_panics();
    let suite = full_suite(Scale::Test);
    let bench = suite
        .iter()
        .max_by_key(|b| b.aig.num_ands())
        .expect("non-empty suite");
    for engine in [Engine::DacPara, Engine::Iccad18] {
        let cfg = RewriteConfig::rewrite_op().with_threads(2);
        let label = format!("one-panic {engine} on {}", bench.name);
        eprintln!("[recov] {label}");
        let plan = FaultPlan::parse("operator.panic=@3*1", 0xFA).expect("valid spec");
        let injection = dacpara_fault::inject(&plan);
        let (aig, result) = run_with_watchdog(&label, bench.aig.clone(), engine, cfg);
        assert_eq!(
            injection.fired(points::OPERATOR_PANIC),
            1,
            "{label}: the panic plan must fire exactly once"
        );
        drop(injection);
        let stats = result.unwrap_or_else(|e| panic!("{label}: panic was not recovered: {e}"));
        assert_recovered_ok(bench, &aig, &stats, &label);
        assert!(
            stats.recoveries > 0,
            "{label}: no panic recovery was recorded: {}",
            stats.summary()
        );
    }
}

/// With `runs: 2`, a fault in the second run salvages the first run's
/// commits too: `salvaged_commits` counts every commit since the last
/// salvage point, as `RewriteSession::recover` documents, and both engines
/// must agree on that.
#[test]
fn second_run_fault_salvages_the_first_runs_commits() {
    let _serial = exclusive();
    dacpara_fault::silence_injected_panics();
    let suite = full_suite(Scale::Test);
    let bench = suite
        .iter()
        .max_by_key(|b| b.aig.num_ands())
        .expect("non-empty suite");
    for engine in [Engine::DacPara, Engine::Iccad18] {
        // One worker keeps the pass deterministic, so a fault-free single
        // run tells how many operator activities run 1 makes and how many
        // replacements it commits.
        let one_run = RewriteConfig::rewrite_op().with_threads(1);
        let label = format!("second-run fault {engine} on {}", bench.name);
        eprintln!("[recov] {label}");
        let (_, first) = run_with_watchdog(&label, bench.aig.clone(), engine, one_run.clone());
        let first = first.unwrap_or_else(|e| panic!("{label}: fault-free run failed: {e}"));
        assert!(first.replacements > 0, "{label}: run 1 must commit");
        assert_eq!(first.spec.aborts, 0, "{label}: one worker never conflicts");
        // The first operator activity of run 2 panics, so every commit the
        // recovery carries over was made by run 1. Run 1 hits the point
        // once per activity and once more inside each commit.
        let spec = format!(
            "operator.panic=@{}*1",
            first.spec.attempts + first.replacements + 1
        );
        let plan = FaultPlan::parse(&spec, 0).expect("valid spec");
        let injection = dacpara_fault::inject(&plan);
        let cfg = RewriteConfig { runs: 2, ..one_run };
        let (aig, result) = run_with_watchdog(&label, bench.aig.clone(), engine, cfg);
        assert_eq!(
            injection.fired(points::OPERATOR_PANIC),
            1,
            "{label}: the panic must fire in run 2"
        );
        drop(injection);
        let stats = result.unwrap_or_else(|e| panic!("{label}: panic was not recovered: {e}"));
        assert_recovered_ok(bench, &aig, &stats, &label);
        assert_eq!(stats.recoveries, 1, "{label}: {}", stats.summary());
        assert_eq!(
            stats.salvaged_commits,
            first.replacements,
            "{label}: the salvage must include run 1's commits: {}",
            stats.summary()
        );
    }
}

/// When every operator invocation panics, the per-session recovery
/// budget runs out and the pass must surface the contained panic as
/// `Err(AigError::WorkerPanicked)` — leaving the caller's graph untouched —
/// rather than aborting the process or spinning forever.
#[test]
fn exhausted_panic_budget_surfaces_worker_panicked() {
    let _serial = exclusive();
    dacpara_fault::silence_injected_panics();
    let suite = full_suite(Scale::Test);
    let bench = suite
        .iter()
        .min_by_key(|b| b.aig.num_ands())
        .expect("non-empty suite");
    for engine in [Engine::DacPara, Engine::Iccad18] {
        // One worker keeps the firing order deterministic: each round's
        // first operator activity panics, the team bails, recovery re-runs,
        // and panic `MAX_RECOVERIES + 1` exceeds the budget.
        let cfg = RewriteConfig::rewrite_op().with_threads(1);
        let label = format!("panic-budget {engine} on {}", bench.name);
        eprintln!("[recov] {label}");
        let plan = FaultPlan::parse("operator.panic=1/1*64", 0).expect("valid spec");
        let injection = dacpara_fault::inject(&plan);
        let (aig, result) = run_with_watchdog(&label, bench.aig.clone(), engine, cfg);
        assert_eq!(
            injection.fired(points::OPERATOR_PANIC),
            MAX_RECOVERIES + 1,
            "{label}: the panic that surfaces must be the one past the budget"
        );
        drop(injection);
        match result {
            Err(AigError::WorkerPanicked { message }) => assert!(
                message.contains("injected fault"),
                "{label}: unexpected panic payload: {message}"
            ),
            other => panic!("{label}: expected WorkerPanicked, got {other:?}"),
        }
        // `run_engine` only writes the session's graph back on success; the
        // error path must leave the input exactly as it was.
        assert_eq!(
            aig.num_ands(),
            bench.aig.num_ands(),
            "{label}: failed run modified the caller's graph"
        );
        aig.check()
            .unwrap_or_else(|e| panic!("{label}: failed run corrupted the graph: {e}"));
    }
}
