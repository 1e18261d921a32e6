//! Drift guard: the counts `RewriteStats` reports must agree exactly with
//! what the obs layer exported. The pass ledger is the one sink for the
//! counts, and the pass frame publishes the obs counters from it once per
//! pass — on success and on failure alike; the per-event trace instants
//! and latency histograms are still recorded at the leaf
//! (`SpecStats::record_*`), so they cross-check the ledger independently.
//! Both Galois engines run through the same checks.
//!
//! Lives in its own integration-test file (= its own process) because it
//! drives the process-global registry; keep it to a single `#[test]`.

use std::collections::HashSet;

use dacpara::{run_engine, Engine, RewriteConfig};
use dacpara_aig::AigError;
use dacpara_circuits::{mtm, MtmParams};
use dacpara_fault::FaultPlan;

/// Extracts the set of `tid` values of compact trace events named `name`.
/// Event objects are compact and `args` is always the last key, so every
/// `"},{"` boundary separates whole events.
fn lanes_for(trace: &str, name: &str) -> HashSet<u64> {
    let needle = format!("\"name\":\"{name}\"");
    trace
        .split("},{")
        .filter(|chunk| chunk.contains(&needle))
        .map(|chunk| {
            let at = chunk.find("\"tid\":").expect("event has tid") + "\"tid\":".len();
            chunk[at..]
                .bytes()
                .take_while(u8::is_ascii_digit)
                .fold(0u64, |n, b| n * 10 + u64::from(b - b'0'))
        })
        .collect()
}

#[test]
fn spec_stats_match_obs_events() {
    // The injected panic of section 5 is contained by the engine; keep it
    // off stderr while letting real panics through.
    dacpara_fault::silence_injected_panics();
    for engine in [Engine::DacPara, Engine::Iccad18] {
        check_engine(engine);
    }
}

fn check_engine(engine: Engine) {
    dacpara_obs::reset();
    dacpara_obs::enable();

    let params = MtmParams {
        inputs: 40,
        gates: 4_000,
        outputs: 16,
        seed: 7,
    };
    let mut aig = mtm(&params);
    let cfg = RewriteConfig::rewrite_op().with_threads(4);
    let stats = run_engine(&mut aig, engine, &cfg).expect("engine run");
    dacpara_obs::disable();

    assert!(stats.replacements > 0, "the run must actually rewrite");
    assert!(stats.spec.commits > 0, "the run must commit activities");
    assert_eq!(
        stats.spec.commits + stats.spec.aborts,
        stats.spec.attempts,
        "every attempt must end in exactly one commit or abort"
    );

    // 1. Aggregated RewriteStats vs. the obs sharded counters.
    let counter = |name: &'static str| dacpara_obs::counter(name).value();
    assert_eq!(stats.spec.attempts, counter("galois.attempts"));
    assert_eq!(stats.spec.conflicts, counter("galois.conflicts"));
    assert_eq!(stats.spec.commits, counter("galois.commits"));
    assert_eq!(stats.spec.aborts, counter("galois.aborts"));

    // 1b. The work-stealing scheduler's steals are published the same way
    // (the default config runs the steal scheduler).
    assert_eq!(stats.steals, counter("sched.steals"));

    // 1c. Both engines publish their evaluation count.
    assert_eq!(
        stats.evaluations,
        counter("rewrite.evaluations"),
        "{engine}: rewrite.evaluations drift"
    );

    // 2. ... vs. the per-thread instant events in the exported trace.
    let trace = dacpara_obs::chrome_trace_to_string();
    let instants = |name: &str| {
        let needle = format!("\"name\":\"{name}\"");
        trace.matches(&needle).count() as u64
    };
    assert_eq!(stats.spec.conflicts, instants("spec.conflict"));
    assert_eq!(stats.spec.commits, instants("spec.commit"));
    assert_eq!(stats.spec.aborts, instants("spec.abort"));

    // 3. ... vs. the latency histograms (one sample per commit/abort).
    let histo_count = |name: &str| {
        dacpara_obs::global()
            .histogram_snapshots()
            .into_iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, s)| s.count)
    };
    assert_eq!(stats.spec.commits, histo_count("galois.commit_latency_ns"));
    assert_eq!(stats.spec.aborts, histo_count("galois.abort_latency_ns"));

    // The three pipeline stages must show up on at least two worker lanes —
    // i.e. the trace really exposes the parallel structure.
    for stage in ["enumerate", "evaluate", "replace"] {
        let lanes = lanes_for(&trace, stage);
        assert!(
            lanes.len() >= 2,
            "{stage} on {} lane(s); expected parallel workers",
            lanes.len()
        );
    }

    // 4. Recovery counters, fault-free: a run with no injected faults must
    // report no recoveries anywhere — stats and obs
    // agree on zero.
    assert_eq!(stats.recoveries, 0, "fault-free run recovered: {stats}");
    assert_eq!(
        stats.errors_observed, 0,
        "fault-free run saw errors: {stats}"
    );
    let recovery_counters = [
        "session.recoveries",
        "session.salvaged_commits",
        "pass.errors_observed",
    ];
    for name in recovery_counters {
        assert_eq!(counter(name), 0, "{name} drifted on a fault-free run");
    }

    // 5. Recovery counters, faulted: re-run the same circuit with one
    // injected operator panic (→ panic recovery). The counters are
    // published from the new run's stats, so their deltas must equal them
    // exactly.
    let base: Vec<u64> = recovery_counters.iter().map(|&n| counter(n)).collect();
    dacpara_obs::enable();
    let mut faulted = mtm(&params);
    let faulted_cfg = RewriteConfig::rewrite_op().with_threads(4);
    let plan = FaultPlan::parse("operator.panic=@3*1", 0x0B5).expect("valid spec");
    let faulted_stats = {
        let _inj = dacpara_fault::inject(&plan);
        run_engine(&mut faulted, engine, &faulted_cfg).expect("recovered run")
    };
    dacpara_obs::disable();
    faulted.check().expect("recovered graph is sound");
    assert!(
        faulted_stats.recoveries > 0,
        "the injected panic must be recovered: {faulted_stats}"
    );
    let delta = |i: usize| counter(recovery_counters[i]) - base[i];
    assert_eq!(
        faulted_stats.recoveries,
        delta(0),
        "session.recoveries drift"
    );
    assert_eq!(
        faulted_stats.salvaged_commits,
        delta(1),
        "session.salvaged_commits drift"
    );
    assert_eq!(
        faulted_stats.errors_observed,
        delta(2),
        "pass.errors_observed drift"
    );

    // 6. A failing pass publishes too: with every operator panicking, the
    // session spends its whole recovery budget (eight) and the engine
    // returns the panic, but the recoveries made before it are exported.
    let base = counter("session.recoveries");
    dacpara_obs::enable();
    let every_operator = FaultPlan::parse("operator.panic=1/1", 0).expect("valid spec");
    let failed = {
        let _inj = dacpara_fault::inject(&every_operator);
        run_engine(&mut mtm(&params), engine, &faulted_cfg)
    };
    dacpara_obs::disable();
    assert!(
        matches!(failed, Err(AigError::WorkerPanicked { .. })),
        "{engine}: every operator panics, yet the pass returned {failed:?}"
    );
    assert_eq!(
        counter("session.recoveries") - base,
        8,
        "{engine}: a failing pass did not publish its recoveries"
    );
}
