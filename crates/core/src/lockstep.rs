//! The ICCAD'18 fine-grained parallel rewriting scheme (Possani et al.).
//!
//! One Galois operator per node performs *all three* rewriting stages —
//! enumeration, evaluation, replacement — while holding exclusive locks on
//! every related node. A conflicting activity aborts and loses everything
//! it computed, including the (dominant) evaluation work; that wasted work
//! is what the paper's Fig. 2 contrasts with DACPara's split operators, and
//! it is recorded here in [`dacpara_galois::SpecStats`].

use std::sync::atomic::Ordering;

use dacpara_aig::{AigError, AigRead, NodeId};
use dacpara_cut::Cut;
use dacpara_galois::run_spmd;

use crate::eval::evaluate_node;
use crate::pass::Pass;
use crate::session::RewriteSession;
use crate::speculate::{lock_and_verify, reevaluate_and_commit, speculate, Attempt};

/// One ICCAD'18 run over `order`, inside the session's resident run: a
/// single scheduler drive of the combined operator. A conflict-aborted
/// operator retries in place.
pub(crate) fn round(sess: &RewriteSession, pass: &Pass, order: Vec<NodeId>) {
    let order = &order;
    pass.pool.begin(order.len());
    run_spmd(sess.cfg.threads, |w| {
        let owner = w.id as u32 + 1;
        pass.pool.drive(w.id, |i| {
            // A retried attempt's evaluation is wasted work, which the
            // `spec` ledger counts; `evaluations` counts the node once.
            let mut evaluation_counted = false;
            speculate(pass, || {
                combined_operator(sess, pass, owner, order[i], &mut evaluation_counted)
            });
        });
    });
}

/// One attempt of the single ICCAD'18-style operator: enumerate, lock
/// everything related, evaluate *while holding the locks*, then replace.
/// A conflict carries nothing over — the retry recomputes enumeration and
/// evaluation from scratch, exactly the waste the paper's Fig. 2 charges
/// this scheme.
fn combined_operator(
    sess: &RewriteSession,
    pass: &Pass,
    owner: u32,
    n: NodeId,
    evaluation_counted: &mut bool,
) -> Result<Attempt, AigError> {
    let (shared, store, ctx) = (&sess.shared, &sess.store, &sess.ctx);
    if !shared.is_and(n) || shared.refs(n) == 0 {
        return Ok(Attempt::Done);
    }

    // Stage A: cut enumeration (results verified under locks below).
    let enum_span = dacpara_obs::span("enumerate");
    let cuts = store.try_cuts(shared, n);
    drop(enum_span);
    let Some(cuts) = cuts else {
        if !shared.is_and(n) {
            return Ok(Attempt::Done);
        }
        return Ok(Attempt::Conflict);
    };

    // Lock "all related nodes": self, fanouts, every cut's cover and
    // leaves — acquired *before* evaluation, held throughout, exactly the
    // scheme whose serialization the paper criticizes. Cuts whose cover
    // cannot be collected (stale, or larger than the exploration bound
    // around high-fanout reconvergence) are simply dropped from
    // consideration — retrying could loop forever on a stable graph.
    let usable: Vec<&Cut> = cuts.iter().filter(|c| c.len() >= 2).collect();
    let leaf_sets: Vec<&[NodeId]> = usable.iter().map(|c| c.leaves()).collect();
    let mut tts = vec![None; usable.len()];
    let guard = match lock_and_verify(sess, pass, owner, n, &leaf_sets, &mut tts) {
        Ok(guard) => guard,
        Err(outcome) => return Ok(outcome),
    };
    // Keep only cuts whose function is confirmed on the live graph (stale
    // enumerations are dropped, not misapplied).
    let valid_cuts: Vec<Cut> = usable
        .iter()
        .zip(&tts)
        .filter(|(c, tt)| **tt == Some(c.tt()))
        .map(|(c, _)| **c)
        .collect();

    // Stage B: evaluation while holding every lock.
    let eval_span = dacpara_obs::span("evaluate");
    if !*evaluation_counted {
        pass.evaluations.fetch_add(1, Ordering::Relaxed);
        *evaluation_counted = true;
    }
    let cand = evaluate_node(shared, n, &valid_cuts, ctx);
    drop(eval_span);
    let Some(cand) = cand else {
        return Ok(Attempt::Done);
    };

    // Stage C: re-evaluate, lock the shared (reused) nodes, then replace.
    // A conflict here loses everything — enumeration AND evaluation.
    let _obs = dacpara_obs::span("replace");
    Ok(reevaluate_and_commit(sess, pass, owner, &guard, n, &cand)?.unwrap_or(Attempt::Done))
}

#[cfg(test)]
mod tests {
    use crate::testkit::assert_equiv;
    use crate::{run_engine, Engine, RewriteConfig};
    use dacpara_circuits::{arith, control, mtm, MtmParams};

    fn cfg(threads: usize) -> RewriteConfig {
        RewriteConfig {
            num_classes: 222,
            threads,
            ..RewriteConfig::rewrite_op()
        }
    }

    #[test]
    fn single_thread_matches_serial_soundness() {
        let mut aig = control::voter(15);
        let golden = aig.clone();
        let stats = run_engine(&mut aig, Engine::Iccad18, &cfg(1)).unwrap();
        aig.check().unwrap();
        assert!(stats.area_reduction() > 0, "{}", stats.summary());
        assert_equiv(&golden, &aig);
    }

    #[test]
    fn multi_thread_preserves_equivalence() {
        let mut aig = mtm(&MtmParams {
            inputs: 32,
            gates: 2000,
            outputs: 12,
            seed: 5,
        });
        let golden = aig.clone();
        let stats = run_engine(&mut aig, Engine::Iccad18, &cfg(4)).unwrap();
        aig.check().unwrap();
        assert!(stats.area_after <= stats.area_before);
        assert_equiv(&golden, &aig);
    }

    #[test]
    fn multiplier_under_contention() {
        let mut aig = arith::multiplier(8);
        let golden = aig.clone();
        run_engine(&mut aig, Engine::Iccad18, &cfg(4)).unwrap();
        aig.check().unwrap();
        assert_equiv(&golden, &aig);
    }

    #[test]
    fn conflicts_are_observable_under_threads() {
        // High-fanout circuits under several threads should log at least
        // some speculative activity (commits always; conflicts usually).
        let mut aig = mtm(&MtmParams {
            inputs: 24,
            gates: 3000,
            outputs: 12,
            seed: 77,
        });
        let stats = run_engine(&mut aig, Engine::Iccad18, &cfg(4)).unwrap();
        assert!(stats.spec.commits > 0);
    }
}
