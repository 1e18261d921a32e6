//! Multi-pass soundness of [`dacpara::RewriteSession`]: running a flow of
//! passes on one session (incremental dirty-set worklists, reused arena)
//! must land on the same final graph quality as rebuilding every pass from
//! scratch, and must stay CEC-equivalent to the input.

use dacpara::testkit::assert_equiv;
use dacpara::{optimize, run_engine, Engine, RewriteConfig, RewriteSession};
use dacpara_aig::{Aig, AigRead};
use dacpara_circuits::{arith, control};

const MAX_PASSES: usize = 8;

fn cfg() -> RewriteConfig {
    // threads = 1 keeps both flows deterministic so the areas are
    // comparable exactly, not just statistically.
    RewriteConfig {
        num_classes: 222,
        ..RewriteConfig::rewrite_op()
    }
}

/// Area after repeatedly running `engine` with fresh state every pass.
fn fresh_state_fixpoint(golden: &Aig, engine: Engine) -> usize {
    let mut aig = golden.clone();
    for _ in 0..MAX_PASSES {
        let stats = run_engine(&mut aig, engine, &cfg()).unwrap();
        if stats.area_reduction() == 0 {
            break;
        }
    }
    aig.num_ands()
}

fn session_matches_fresh(golden: &Aig, engine: Engine) {
    let fresh_area = fresh_state_fixpoint(golden, engine);

    let mut incremental = golden.clone();
    let passes = optimize(&mut incremental, engine, &cfg(), MAX_PASSES).unwrap();
    incremental.check().unwrap();
    assert_equiv(golden, &incremental);
    assert_eq!(
        incremental.num_ands(),
        fresh_area,
        "incremental {engine} flow diverged from fresh-state passes \
         ({} passes ran)",
        passes.len()
    );
    for w in passes.windows(2) {
        assert!(w[1].area_after <= w[0].area_after);
    }
}

#[test]
fn dacpara_session_matches_fresh_passes_on_voter() {
    session_matches_fresh(&control::voter(15), Engine::DacPara);
}

#[test]
fn dacpara_session_matches_fresh_passes_on_adder() {
    session_matches_fresh(&arith::adder(10), Engine::DacPara);
}

#[test]
fn iccad18_session_matches_fresh_passes_on_voter() {
    session_matches_fresh(&control::voter(15), Engine::Iccad18);
}

#[test]
fn converged_session_skips_the_evaluate_stage() {
    let golden = arith::adder(10);
    let mut sess = RewriteSession::new(&golden, &cfg()).unwrap();
    for _ in 0..MAX_PASSES {
        sess.run(Engine::DacPara).unwrap();
        if sess.converged() {
            break;
        }
    }
    assert!(sess.converged());
    let fix = sess.run(Engine::DacPara).unwrap();
    assert_eq!(fix.evaluations, 0, "fixpoint pass must not evaluate");
    assert_eq!(fix.replacements, 0);
    let out = sess.finish();
    out.check().unwrap();
    assert_equiv(&golden, &out);
}
