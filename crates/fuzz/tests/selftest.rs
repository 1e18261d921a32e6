//! The fuzzer's headline self-test: the loop must close on a real bug.
//!
//! The bug is planted through a fault plan rather than compiled into the
//! engines: arming `replace.corrupt=@1` makes the first committed
//! replacement of every oracle cell install the complemented root, a
//! miscompile only the two Galois engines (`dacpara`, `iccad18`) can
//! commit. This suite then demands the full tool chain earns its keep:
//!
//! * `fuzz_run` convicts within a bounded seed budget,
//! * every conviction names a Galois engine, and the other three engines
//!   stay green under the same plan (the differential localization),
//! * the delta-debugging shrinker drives the witness to at most 60 ANDs,
//! * the shrunk witness round-trips through the corpus format and replays
//!   red.
//!
//! Without a plan, the same campaign machinery must stay silent: a bounded
//! smoke run across the engine matrix with zero oracle failures.
//!
//! Fault plans are process-global, so every test in this binary serializes
//! on one lock: the clean smoke run must not see another test's armed plan.

use std::sync::{Mutex, MutexGuard, OnceLock};

use dacpara::testkit::{engine_matrix, MatrixPoint};
use dacpara::Engine;
use dacpara_aig::AigRead;
use dacpara_fault::{points, FaultPlan};
use dacpara_fuzz::corpus::{replay, CorpusEntry, ReplayOutcome};
use dacpara_fuzz::gen::GenConfig;
use dacpara_fuzz::oracle::{check_circuit, OracleConfig};
use dacpara_fuzz::shrink::ShrinkConfig;
use dacpara_fuzz::{fuzz_run, shrink_failing, summarize, FuzzConfig};

/// The bounded seed budget: the planted miscompile fires on every circuit
/// with at least one rewrite, so a campaign this long failing to convict
/// would itself be a regression in the fuzzer.
const SEED_BUDGET: usize = 40;

/// Serializes the tests in this binary (fault plans are process-global).
fn exclusive() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn corrupt_plan() -> FaultPlan {
    FaultPlan::parse(&format!("{}=@1", points::REPLACE_CORRUPT), 0).expect("valid spec")
}

fn is_galois(engine: Engine) -> bool {
    matches!(engine, Engine::DacPara | Engine::Iccad18)
}

#[test]
fn fuzzer_convicts_the_planted_miscompile_and_shrinks_the_witness() {
    let _serial = exclusive();
    let plan = corrupt_plan();
    let cfg = FuzzConfig {
        iters: SEED_BUDGET,
        gen: GenConfig::small(),
        oracle: OracleConfig {
            points: engine_matrix(&[1, 2]),
            fault: Some(plan.clone()),
        },
        // Mutation adds nothing to this hunt and costs determinism.
        mutate_every: 0,
    };
    let report = fuzz_run(&cfg, 0xDACF_0001);
    let case = report.failing.as_ref().unwrap_or_else(|| {
        panic!(
            "the planted miscompile must be found within {SEED_BUDGET} seeds: {}",
            summarize(&report)
        )
    });

    // Only the Galois engines commit through the corrupted path; a
    // conviction of any other engine would be misattributing.
    assert!(!case.failures.is_empty());
    for failure in &case.failures {
        assert!(
            is_galois(failure.point.engine),
            "only dacpara/iccad18 cells may fail, got {failure}"
        );
    }

    // Shrink against exactly the cells that convicted the circuit.
    let mut points: Vec<MatrixPoint> = case.failures.iter().map(|f| f.point).collect();
    points.dedup();
    let shrink_oracle = OracleConfig {
        points,
        fault: Some(plan.clone()),
    };
    let shrink_cfg = ShrinkConfig {
        max_rounds: 12,
        repeats: 3,
    };
    let witness = shrink_failing(case, &shrink_oracle, &shrink_cfg);
    witness
        .check()
        .expect("shrunk witness must stay a valid AIG");
    assert!(
        witness.num_ands() <= 60,
        "witness must shrink to at most 60 nodes, got {} (started at {})",
        witness.num_ands(),
        case.aig.num_ands()
    );

    // The witness must survive the corpus round trip and replay red.
    let entry = CorpusEntry {
        seed: case.seed,
        threads: vec![1, 2],
        fault: Some((plan.spec_string(), plan.seed())),
        expect_fail: true,
        note: "selftest: shrunk replace.corrupt witness".into(),
        aig: witness,
    };
    let back = CorpusEntry::parse(&entry.to_entry_string()).expect("entry must re-parse");
    assert!(back.expect_fail);
    assert_eq!(back.fault, entry.fault);
    // Parallel failures are probabilistic; a witness shrunk under
    // `repeats: 3` is allowed a few replay sweeps to reproduce.
    let mut outcome = ReplayOutcome::Mismatch(Vec::new());
    for _ in 0..5 {
        outcome = replay(&back).expect("replay must run");
        if outcome == ReplayOutcome::Green {
            break;
        }
    }
    assert_eq!(
        outcome,
        ReplayOutcome::Green,
        "shrunk witness must reproduce under replay"
    );
}

#[test]
fn engines_without_the_corrupted_commit_stay_green() {
    // The differential half of the self-test: under the same plan, the
    // engines that never commit through the Galois replacement path must
    // pass every circuit — this is what localizes the conviction.
    let _serial = exclusive();
    let others: Vec<MatrixPoint> = engine_matrix(&[1, 2])
        .into_iter()
        .filter(|p| !is_galois(p.engine))
        .collect();
    assert_eq!(others.len(), 3 * 2);
    let cfg = OracleConfig {
        points: others,
        fault: Some(corrupt_plan()),
    };
    for iter in 0..10u64 {
        let seed = dacpara_fuzz::iteration_seed(0xDACF_0002, iter);
        let golden = dacpara_fuzz::gen::generate(&GenConfig::small(), seed);
        let failures = check_circuit(&golden, &cfg);
        assert!(
            failures.is_empty(),
            "non-Galois cells must stay green (seed {seed}): {:?}",
            failures.iter().map(|f| f.to_string()).collect::<Vec<_>>()
        );
    }
}

#[test]
fn engine_matrix_smoke_is_clean() {
    let _serial = exclusive();
    // Bounded by default so tier-1 stays fast; CI's nightly job raises the
    // budget through the same knob.
    let iters = std::env::var("DACPARA_FUZZ_SMOKE_ITERS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(25);
    let report = fuzz_run(&FuzzConfig::smoke(iters), 0xDACF_0003);
    assert_eq!(report.iterations, iters, "{}", summarize(&report));
    assert!(
        report.failing.is_none(),
        "healthy engines must pass the smoke campaign: {}",
        summarize(&report)
    );
}
