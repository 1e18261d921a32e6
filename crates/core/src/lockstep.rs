//! The ICCAD'18 fine-grained parallel rewriting scheme (Possani et al.).
//!
//! One Galois operator per node performs *all three* rewriting stages —
//! enumeration, evaluation, replacement — while holding exclusive locks on
//! every related node. A conflicting activity aborts and loses everything
//! it computed, including the (dominant) evaluation work; that wasted work
//! is what the paper's Fig. 2 contrasts with DACPara's split operators, and
//! it is recorded here in [`dacpara_galois::SpecStats`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use dacpara_aig::concurrent::ConcurrentAig;
use dacpara_aig::{Aig, AigError, AigRead, NodeId};
use dacpara_cut::CutStore;
use dacpara_galois::{run_spmd, ItemOutcome, LockTable, SpecStats, StealPool};

use crate::eval::{evaluate_node, reevaluate_structure, EvalContext};
use crate::recovery::{contain_panic, FirstError};
use crate::session::RewriteSession;
use crate::speculate::{commit_replacement, speculate, Attempt};
use crate::validity::{cut_cover, verify_cut};
use crate::{Engine, RewriteConfig, RewriteStats};

/// Runs the combined-operator parallel rewriting pass.
///
/// # Errors
///
/// Returns [`AigError::CapacityExhausted`] if the arena headroom
/// ([`RewriteConfig::headroom`]) proves insufficient.
pub fn rewrite_lockstep(aig: &mut Aig, cfg: &RewriteConfig) -> Result<RewriteStats, AigError> {
    let mut session = RewriteSession::new(aig, cfg)?;
    let stats = session.run(Engine::Iccad18)?;
    *aig = session.finish();
    Ok(stats)
}

/// One ICCAD'18 pass on the session's resident state (full graph on the
/// first pass, dirty set afterwards, immediate return at a fixpoint).
///
/// Fault tolerance mirrors the DACPara engine: a round that ends with an
/// error (the team drains cooperatively through the error checks) hands its
/// first error to [`RewriteSession::recover`], which salvages committed
/// rewrites and — within its regrowth/panic budgets — re-homes the arena so
/// the same run can be redone instead of returning `Err`.
pub(crate) fn session_pass(sess: &mut RewriteSession) -> Result<RewriteStats, AigError> {
    let start = Instant::now();
    let _pass_span = dacpara_obs::span!("rewrite_lockstep", threads = sess.cfg.threads);
    let mut stats = RewriteStats {
        engine: "iccad18".into(),
        area_before: sess.shared.num_ands(),
        delay_before: sess.shared.depth(),
        ..Default::default()
    };
    let spec = SpecStats::new();
    let lock_base = sess.locks.stats().snapshot();
    let evaluations = AtomicU64::new(0);
    let pool = StealPool::new(sess.cfg.threads);
    let mut worked = false;

    let runs = sess.cfg.runs.max(1);
    let mut run = 0;
    while run < runs {
        let (order, skipped) = sess.take_worklist();
        stats.clean_skipped += skipped;
        if order.is_empty() {
            run += 1;
            continue; // fixpoint: no operator runs at all
        }
        worked = true;
        let cfg = &sess.cfg;
        let (shared, store, locks, ctx) = (&sess.shared, &sess.store, &sess.locks, &sess.ctx);
        let error = FirstError::new();
        let replacements = AtomicU64::new(0);

        {
            let (order, pool, error, replacements, spec, evaluations) =
                (&order, &pool, &error, &replacements, &spec, &evaluations);
            pool.begin(order.len());
            run_spmd(cfg.threads, |w| {
                let owner = w.id as u32 + 1;
                // A conflict-aborted operator yields the item back to the
                // scheduler instead of spin-retrying inline, until the retry
                // ceiling forces it to block.
                pool.drive(w.id, |i, tries| {
                    if error.is_set() {
                        return ItemOutcome::Done;
                    }
                    // Contain operator panics at the item boundary: the pool
                    // never sees an unwind, so it is not poisoned and the
                    // round drains normally while the error check above
                    // skips the rest.
                    let outcome = contain_panic(|| {
                        speculate(spec, tries, || {
                            combined_operator(
                                shared,
                                store,
                                locks,
                                ctx,
                                order[i],
                                owner,
                                evaluations,
                            )
                        })
                    });
                    match outcome {
                        Ok(Some(replaced)) => {
                            if replaced {
                                replacements.fetch_add(1, Ordering::Relaxed);
                            }
                            if tries > 0 {
                                pool.stats().record_retry_commit();
                            }
                            ItemOutcome::Done
                        }
                        Ok(None) => ItemOutcome::Retry,
                        Err(e) => {
                            error.record(e);
                            ItemOutcome::Done
                        }
                    }
                });
            });
        }
        stats.errors_observed += error.superseded();
        // `replacements` is fresh each round, so everything it counted this
        // round is either carried into stats on success or salvaged below.
        let committed = replacements.load(Ordering::Relaxed);
        stats.replacements += committed;
        match error.take() {
            None => {
                sess.canonicalize_and_sweep(true);
                sess.shared.recompute_levels();
                run += 1;
            }
            Some(e) => {
                // Salvage committed work and redo this run on the recovered
                // graph; `recover` propagates the error once its budget
                // (max_regrowths / panic backstop) is spent.
                sess.recover(e, &mut stats, committed)?;
            }
        }
    }

    stats.area_after = sess.shared.num_ands();
    stats.delay_after = sess.shared.depth();
    stats.evaluations = evaluations.load(Ordering::Relaxed);
    spec.merge_snapshot(&sess.locks.stats().snapshot().since(&lock_base));
    stats.spec = spec.snapshot();
    stats.sched = pool.stats().snapshot();
    stats.time = start.elapsed();
    sess.set_converged(!worked || (stats.replacements == 0 && sess.store.dirty_count() == 0));
    Ok(stats)
}

/// One attempt of the single ICCAD'18-style operator: enumerate, lock
/// everything related, evaluate *while holding the locks*, then replace.
/// Finishes with whether it replaced `n`. A conflict carries nothing over —
/// the retry recomputes enumeration and evaluation from scratch, exactly
/// the waste the paper's Fig. 2 charges this scheme.
fn combined_operator(
    shared: &ConcurrentAig,
    store: &CutStore,
    locks: &LockTable,
    ctx: &EvalContext,
    n: NodeId,
    owner: u32,
    evaluations: &AtomicU64,
) -> Result<Attempt<bool>, AigError> {
    if !shared.is_and(n) || shared.refs(n) == 0 {
        return Ok(Attempt::Done(false));
    }

    // Stage A: cut enumeration (results verified under locks below).
    let enum_span = dacpara_obs::span("enumerate");
    let cuts = store.try_cuts(shared, n);
    drop(enum_span);
    let Some(cuts) = cuts else {
        if !shared.is_and(n) {
            return Ok(Attempt::Done(false));
        }
        return Ok(Attempt::Conflict);
    };

    // Lock "all related nodes": self, fanouts, every cut's cover and
    // leaves — acquired *before* evaluation, held throughout, exactly the
    // scheme whose serialization the paper criticizes. Cuts whose cover
    // cannot be collected (stale, or larger than the exploration bound
    // around high-fanout reconvergence) are simply dropped from
    // consideration — retrying could loop forever on a stable graph.
    let mut region: Vec<u32> = vec![n.raw()];
    region.extend(shared.fanout_ids(n).iter().map(|f| f.raw()));
    let mut usable: Vec<dacpara_cut::Cut> = Vec::with_capacity(cuts.len());
    for cut in cuts.iter().filter(|c| c.len() >= 2) {
        if let Some(cover) = cut_cover(shared, n, cut.leaves()) {
            region.extend(cover.iter().map(|c| c.raw()));
            region.extend(cut.leaves().iter().map(|l| l.raw()));
            usable.push(*cut);
        }
    }
    if usable.is_empty() {
        return Ok(Attempt::Done(false));
    }
    let Some(guard) = locks.try_acquire(owner, region) else {
        return Ok(Attempt::Conflict);
    };

    // Under locks: keep only cuts whose function is confirmed on the live
    // graph (stale enumerations are dropped, not misapplied).
    let valid_cuts: Vec<_> = usable
        .iter()
        .filter(|c| matches!(verify_cut(shared, n, c.leaves()), Some((_, tt)) if tt == c.tt()))
        .copied()
        .collect();

    // Stage B: evaluation while holding every lock.
    let eval_span = dacpara_obs::span("evaluate");
    evaluations.fetch_add(1, Ordering::Relaxed);
    let cand = evaluate_node(shared, n, &valid_cuts, ctx);
    drop(eval_span);
    let Some(cand) = cand else {
        return Ok(Attempt::Done(false));
    };
    let re = reevaluate_structure(shared, n, &cand, ctx);
    let gain_ok = re.gain > 0 || (ctx.use_zeros && re.gain >= 0);
    if !gain_ok {
        return Ok(Attempt::Done(false));
    }

    // Shared (reused) nodes must be locked before mutation.
    let extra: Vec<u32> = re
        .shared_nodes
        .iter()
        .map(|s| s.raw())
        .filter(|id| guard.ids().binary_search(id).is_err())
        .collect();
    let _extra_guard = if extra.is_empty() {
        None
    } else {
        match locks.try_acquire(owner, extra) {
            Some(g) => Some(g),
            // Everything — enumeration AND evaluation — is lost.
            None => return Ok(Attempt::Conflict),
        }
    };

    // Stage C: replacement.
    let _obs = dacpara_obs::span("replace");
    let replaced = commit_replacement(shared, store, ctx, n, &cand, &re.freed)?;
    Ok(Attempt::Done(replaced))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dacpara_circuits::{arith, control, mtm, MtmParams};
    use dacpara_equiv::{check_equivalence, CecConfig, CecResult};

    fn cfg(threads: usize) -> RewriteConfig {
        RewriteConfig {
            num_classes: 222,
            threads,
            ..RewriteConfig::rewrite_op()
        }
    }

    fn assert_equiv(before: &Aig, after: &Aig) {
        // Bounded SAT budget: a counterexample is always a failure; an
        // exhausted budget falls back on the (passing) simulation check.
        let cfg = CecConfig {
            sim_rounds: 32,
            max_conflicts: 100_000,
            seed: 0xDAC,
        };
        match check_equivalence(before, after, &cfg) {
            CecResult::Equivalent | CecResult::Undecided => {}
            CecResult::Inequivalent(_) => panic!("rewriting broke equivalence"),
        }
    }

    #[test]
    fn single_thread_matches_serial_soundness() {
        let mut aig = control::voter(15);
        let golden = aig.clone();
        let stats = rewrite_lockstep(&mut aig, &cfg(1)).unwrap();
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
        let stats = rewrite_lockstep(&mut aig, &cfg(4)).unwrap();
        aig.check().unwrap();
        assert!(stats.area_after <= stats.area_before);
        assert_equiv(&golden, &aig);
    }

    #[test]
    fn multiplier_under_contention() {
        let mut aig = arith::multiplier(8);
        let golden = aig.clone();
        rewrite_lockstep(&mut aig, &cfg(4)).unwrap();
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
        let stats = rewrite_lockstep(&mut aig, &cfg(4)).unwrap();
        assert!(stats.spec.commits > 0);
    }
}
