//! Stress tests: DACPara (and, where named, ICCAD'18) under engineered
//! same-level contention.
//!
//! The circuits here are built so that many rewritable cones sit at the
//! *same level* and share structure — the exact situation §4.4's validity
//! protocol exists for: replacements committed earlier in a level worklist
//! change the sharing (and thus the re-evaluated gains) of later ones.

use dacpara::{run_engine, Engine, RewriteConfig};
use dacpara_aig::{Aig, AigRead, Lit};
use dacpara_equiv::{check_equivalence, CecConfig, CecResult};

/// A grid of wasteful mux-majorities over overlapping input triples, all at
/// the same level, followed by a combining XOR layer.
fn contention_grid(width: usize) -> Aig {
    let mut aig = Aig::new();
    let inputs: Vec<Lit> = (0..width + 2).map(|_| aig.add_input()).collect();
    let mut tops = Vec::new();
    for k in 0..width {
        let (a, b, c) = (inputs[k], inputs[k + 1], inputs[k + 2]);
        // Wasteful majority: 5 gates where 4 suffice; adjacent cones share
        // the (b, c) pair with the next cone's (a, b).
        let or = aig.add_or(b, c);
        let an = aig.add_and(b, c);
        let m = aig.add_mux(a, or, an);
        tops.push(m);
    }
    let mut acc = tops[0];
    for &t in &tops[1..] {
        acc = aig.add_xor(acc, t);
    }
    aig.add_output(acc);
    for (k, &t) in tops.iter().enumerate() {
        if k % 3 == 0 {
            aig.add_output(t);
        }
    }
    aig
}

#[test]
fn same_level_contention_is_sound_across_thread_counts() {
    // Both Galois engines: they share one plan → lock → verify → commit
    // path, which the TSan job race-checks from each caller here.
    let golden = contention_grid(64);
    for engine in [Engine::DacPara, Engine::Iccad18] {
        for threads in [1, 2, 4, 8] {
            let mut aig = golden.clone();
            let cfg = RewriteConfig {
                num_classes: 222,
                ..RewriteConfig::rewrite_op()
            }
            .with_threads(threads);
            let stats = run_engine(&mut aig, engine, &cfg).unwrap();
            aig.check().unwrap();
            assert!(
                stats.area_reduction() > 0,
                "grid must be improvable by {engine} at {threads} threads: {}",
                stats.summary()
            );
            let sim_only = CecConfig {
                sat_node_limit: 0,
                seed: threads as u64,
                ..CecConfig::default()
            };
            assert!(
                !matches!(
                    check_equivalence(&golden, &aig, &sim_only),
                    CecResult::Inequivalent(_)
                ),
                "{engine} at {threads} threads"
            );
        }
    }
}

#[test]
fn repeated_contended_passes_converge() {
    let golden = contention_grid(48);
    let mut aig = golden.clone();
    let cfg = RewriteConfig {
        num_classes: 222,
        ..RewriteConfig::rewrite_op()
    }
    .with_threads(4);
    let passes = dacpara::optimize(&mut aig, Engine::DacPara, &cfg, 5).unwrap();
    assert!(passes.len() >= 2);
    assert_eq!(passes.last().unwrap().area_reduction(), 0, "converged");
    let sim_only = CecConfig {
        sat_node_limit: 0,
        seed: 5,
        ..CecConfig::default()
    };
    assert!(!matches!(
        check_equivalence(&golden, &aig, &sim_only),
        CecResult::Inequivalent(_)
    ));
}

#[test]
fn lockstep_and_dacpara_agree_functionally_under_contention() {
    let golden = contention_grid(40);
    let cfg = RewriteConfig {
        num_classes: 222,
        ..RewriteConfig::rewrite_op()
    }
    .with_threads(4);
    let mut a = golden.clone();
    run_engine(&mut a, Engine::DacPara, &cfg).unwrap();
    let mut b = golden.clone();
    run_engine(&mut b, Engine::Iccad18, &cfg).unwrap();
    // Both must still compute the original function (and therefore agree
    // with each other).
    let sim_only = CecConfig {
        sat_node_limit: 0,
        seed: 9,
        ..CecConfig::default()
    };
    for (name, g) in [("dacpara", &a), ("iccad18", &b)] {
        assert!(
            !matches!(
                check_equivalence(&golden, g, &sim_only),
                CecResult::Inequivalent(_)
            ),
            "{name}"
        );
    }
}

#[test]
fn counters_are_internally_consistent() {
    let golden = contention_grid(64);
    let mut aig = golden.clone();
    let cfg = RewriteConfig {
        num_classes: 222,
        ..RewriteConfig::rewrite_op()
    }
    .with_threads(8);
    let stats = run_engine(&mut aig, Engine::DacPara, &cfg).unwrap();
    // Every committed replacement shows up as a commit; aborts only ever
    // retry, so commits >= replacements.
    assert!(
        stats.spec.commits >= stats.replacements,
        "{}",
        stats.summary()
    );
    // The realized area reduction can't exceed what the replacements freed
    // (each replacement frees at least one node net).
    assert!(stats.area_reduction() as u64 >= stats.replacements.min(1));
    assert!(aig.num_ands() <= golden.num_ands());
}
