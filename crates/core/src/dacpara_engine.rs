//! DACPara: divide-and-conquer parallel logic rewriting (the paper's
//! Algorithm 1 and §§4.2–4.4).
//!
//! The pass divides the AND nodes by their initial level into `Worklists`
//! and processes each list in three barrier-separated parallel stages:
//!
//! 1. **Parallel cut enumeration** (§4.2) — fills the shared cut memo
//!    bottom-up; the memo's generation tags take the place of the paper's
//!    enumeration locks (conflicts there are "almost negligible").
//! 2. **Parallel evaluation** (§4.3) — completely lock-free: each worker
//!    evaluates nodes against thread-local MFFC scratch and the
//!    decentralized structural hash, storing the best result in `prepInfo`.
//!    Stages 1–2 run in the graph's *read-only phase*, so the structural
//!    probes read fanout lists without taking their locks.
//! 3. **Parallel replacement** (§4.4) — based on *dynamic global
//!    information*: each stored result is validated against the latest
//!    graph (leaf liveness + generation stamps, re-enumeration with
//!    leaf-set matching, NPN-class checking for recycled IDs — the Fig. 3
//!    protocol), re-evaluated so that "each replacement must obtain a
//!    positive gain on the latest AIG", and only then applied under
//!    Galois-style exclusive locks on the relevant nodes. Enumeration
//!    results of deleted nodes' transitive fanouts are recursively cleared.

use std::sync::atomic::Ordering;

use dacpara_aig::concurrent::ConcurrentAig;
use dacpara_aig::{Aig, AigError, AigRead, NodeId};
use dacpara_galois::{run_spmd, ItemOutcome};
use dacpara_npn::canon;

use crate::eval::{evaluate_node, reevaluate_structure, Candidate};
use crate::session::{Pass, RewriteSession};
use crate::speculate::{lock_shared_and_commit, speculate, Attempt};
use crate::validity::{cut_cover, verify_cut};
use crate::{Engine, RewriteConfig, RewriteStats};

/// Runs the DACPara pass.
///
/// # Errors
///
/// Returns the [`crate::ConfigError`] (mapped through [`AigError`]) if `cfg`
/// fails [`RewriteConfig::validate`]; [`AigError::WorkerPanicked`] once
/// the session's recovery budget is spent; or
/// [`AigError::InvariantViolation`] if a replacement fails its certificate
/// (see [`crate::build_replacement`]) or the arena runs out of slots, which
/// its sizing bound rules out.
///
/// # Example
///
/// ```
/// use dacpara::{rewrite_dacpara, RewriteConfig};
/// use dacpara_circuits::control;
///
/// let mut aig = control::voter(15);
/// let stats = rewrite_dacpara(&mut aig, &RewriteConfig::rewrite_op().with_threads(2))?;
/// assert!(stats.area_after < stats.area_before);
/// # Ok::<(), dacpara_aig::AigError>(())
/// ```
pub fn rewrite_dacpara(aig: &mut Aig, cfg: &RewriteConfig) -> Result<RewriteStats, AigError> {
    let mut session = RewriteSession::new(aig, cfg)?;
    let stats = session.run(Engine::DacPara)?;
    *aig = session.finish();
    Ok(stats)
}

/// One DACPara run over `work`, inside [`RewriteSession::resident_pass`]:
/// the node dividing of Fig. 1 and the three barrier-separated stages per
/// worklist.
pub(crate) fn round(
    sess: &RewriteSession,
    pass: &Pass,
    work: Vec<NodeId>,
    stats: &mut RewriteStats,
) {
    let cfg = &sess.cfg;
    let (shared, store, prep, ctx) = (&sess.shared, &sess.store, &sess.prep, &sess.ctx);

    // --- Node dividing (Fig. 1): one worklist per initial level (or a
    // single global worklist under the ablation flag).
    let mut worklists: Vec<Vec<NodeId>> = Vec::new();
    if cfg.level_partition {
        for n in work {
            let level = shared.level(n) as usize;
            if worklists.len() <= level {
                worklists.resize_with(level + 1, Vec::new);
            }
            worklists[level].push(n);
        }
    } else {
        worklists.push(work);
    }
    // Level 0 holds no AND nodes and sparse dirty sets leave gaps; empty
    // lists would only burn barriers.
    worklists.retain(|l| !l.is_empty());
    stats.worklists += worklists.len();

    let (pool, error) = (&pass.pool, &pass.error);
    let worklists = &worklists;
    // The barrier steps enter the read-only phase for stages 1–2 of each
    // list and leave it for stage 3. This guard ends it on every other exit
    // from the round — an unwind through a broken barrier included — so
    // the session's sweep and recovery write under the usual locks.
    let _phase = EndReadOnly(shared);
    run_spmd(cfg.threads, |w| {
        let owner = w.id as u32 + 1;
        let bail = || error.is_set();
        // Each stage opens with one barrier: it waits for the whole team to
        // leave the previous stage, and its step arms the pool. A poisoned
        // pass distributes nothing, but still arms the pool so its drain
        // invariant holds.
        let arm = |len: usize| pool.begin(if error.is_set() { 0 } else { len });

        for (k, list) in worklists.iter().enumerate() {
            // -------- Stage 1: parallel cut enumeration.
            //
            // The step first restores strash canonicity after the previous
            // list, tracing the merges into the dirty set, then enters the
            // read-only phase.
            //
            // Every worker enters the drain loop even when a teammate has
            // already reported an error, and bails per item: a skipped
            // block would only be stolen and drained by the teammates.
            w.barrier(|| {
                if k > 0 {
                    sess.canonicalize_and_sweep(false);
                }
                // SAFETY: stages 1–2 write no graph state (enumeration
                // writes the cut memo, evaluation `prep`). This step runs
                // after every worker left the previous stage and after the
                // sweep above, and releases the team only when it returns;
                // the stage-3 barrier's step ends the phase before anyone
                // writes again, and `_phase` ends it if the team unwinds.
                unsafe { shared.begin_read_only() };
                arm(list.len());
            });
            {
                let _obs = dacpara_obs::span("enumerate");
                pool.drive(w.id, |i, _| {
                    let n = list[i];
                    if !bail() && shared.is_and(n) && shared.refs(n) > 0 {
                        let _ = store.try_cuts(shared, n);
                    }
                    ItemOutcome::Done
                });
            }

            // -------- Stage 2: parallel, lock-free evaluation.
            w.barrier(|| arm(list.len()));
            {
                let _obs = dacpara_obs::span("evaluate");
                pool.drive(w.id, |i, _| {
                    if bail() {
                        return ItemOutcome::Done;
                    }
                    let n = list[i];
                    if !shared.is_and(n) || shared.refs(n) == 0 {
                        *prep[n.index()].lock() = None;
                        return ItemOutcome::Done;
                    }
                    pass.evaluations.fetch_add(1, Ordering::Relaxed);
                    let cand = store
                        .try_cuts(shared, n)
                        .and_then(|cuts| evaluate_node(shared, n, &cuts, ctx));
                    *prep[n.index()].lock() = cand;
                    ItemOutcome::Done
                });
            }

            // -------- Stage 3: parallel validated replacement.
            //
            // A conflict-aborted commit puts its candidate back into `prep`
            // and yields the node to the retry queue; the retry ceiling
            // eventually forces inline blocking. The step ends the
            // read-only phase: commits write the graph.
            w.barrier(|| {
                shared.end_read_only();
                arm(list.len());
            });
            {
                let _obs = dacpara_obs::span("replace");
                pool.drive(w.id, |i, tries| {
                    let n = list[i];
                    let Some(cand) = prep[n.index()].lock().take() else {
                        return ItemOutcome::Done;
                    };
                    // A rescheduled node already counted its revalidation
                    // on the first try.
                    let mut revalidation_counted = tries > 0;
                    let outcome = speculate(pass, tries, || {
                        replace_operator(sess, pass, owner, n, &cand, &mut revalidation_counted)
                    });
                    if outcome == ItemOutcome::Retry {
                        *prep[n.index()].lock() = Some(cand);
                    }
                    outcome
                });
            }
        }
        // The last list's canonicalization has no next stage 1 to ride on.
        w.barrier(|| sess.canonicalize_and_sweep(false));
    });
}

/// Ends the graph's read-only phase when dropped.
struct EndReadOnly<'a>(&'a ConcurrentAig);

impl Drop for EndReadOnly<'_> {
    fn drop(&mut self) {
        self.0.end_read_only();
    }
}

/// One attempt of the §4.4 replacement operator for node `n` and its stored
/// candidate. [`speculate`] drives the attempts; a lock conflict leaves the
/// candidate untouched so a retry revalidates it against the then-current
/// graph.
fn replace_operator(
    sess: &RewriteSession,
    pass: &Pass,
    owner: u32,
    n: NodeId,
    cand: &Candidate,
    revalidation_counted: &mut bool,
) -> Result<Attempt, AigError> {
    let (shared, store, ctx) = (&sess.shared, &sess.store, &sess.ctx);
    let stale = || {
        pass.stale_skipped.fetch_add(1, Ordering::Relaxed);
        Ok(Attempt::Done)
    };
    if !shared.is_and(n) || shared.refs(n) == 0 {
        return stale();
    }

    // ---- Triage: are the stored leaves untouched (Theorem 1 case)?
    let leaves_fresh = cand
        .leaves
        .iter()
        .zip(&cand.leaf_gens)
        .all(|(&l, &g)| shared.is_alive(l) && shared.generation(l) == g);
    if !leaves_fresh {
        if !sess.cfg.revalidate {
            return stale();
        }
        if !*revalidation_counted {
            pass.revalidated.fetch_add(1, Ordering::Relaxed);
            *revalidation_counted = true;
        }
        // §4.4: re-enumerate on the latest AIG and match the stored cut
        // against the fresh cut set.
        store.invalidate(n);
        let Some(fresh) = store.try_cuts(shared, n) else {
            if !shared.is_and(n) {
                return stale();
            }
            // Someone holds the enumeration generation mid-update: a
            // conflict like any other lock conflict.
            return Ok(Attempt::Conflict);
        };
        if !fresh.iter().any(|c| c.leaves() == &cand.leaves[..]) {
            // A missed optimization opportunity (§5.2).
            return stale();
        }
    }

    // ---- Phase-1 locks: the node, the cut cone, and the fanouts.
    let Some(cover_hint) = cut_cover(shared, n, &cand.leaves) else {
        return stale();
    };
    let mut region: Vec<u32> = vec![n.raw()];
    region.extend(cand.leaves.iter().map(|l| l.raw()));
    region.extend(cover_hint.iter().map(|c| c.raw()));
    region.extend(shared.fanout_ids(n).iter().map(|f| f.raw()));
    let Some(guard) = sess.locks.try_acquire(owner, region, &pass.spec) else {
        return Ok(Attempt::Conflict);
    };

    // ---- Under locks: recompute the cover and the cut function.
    let Some((cover, tt)) = verify_cut(shared, n, &cand.leaves) else {
        return stale();
    };
    if cover
        .iter()
        .any(|c| guard.ids().binary_search(&c.raw()).is_err())
    {
        // The cone shifted between planning and locking — replan.
        return Ok(Attempt::Conflict);
    }
    // The stored candidate stays untouched: a conflict below leaves it for
    // a fresh revalidation on the retry.
    let mut live = cand.clone();
    if tt != live.tt {
        // A leaf slot was recycled with different logic (Fig. 3): the
        // stored structure is only reusable if the NPN class matches.
        if ctx.registry.class_of(tt) != live.class {
            return stale();
        }
        live.tt = tt;
        live.transform = canon(tt).1;
    }

    // ---- Re-evaluate on the latest AIG: gain must (still) be positive.
    let re = reevaluate_structure(shared, n, &live, ctx);
    let gain_ok = re.gain > 0 || (ctx.use_zeros && re.gain >= 0);
    let level_ok = !ctx.preserve_level || re.level <= shared.level(n);
    if !(gain_ok && level_ok) {
        return stale();
    }

    // ---- Phase-2 locks on the nodes the new structure will share, then
    // apply.
    lock_shared_and_commit(sess, pass, owner, &guard, n, &live, &re)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::assert_equiv;
    use dacpara_circuits::{arith, control, mtm, MtmParams};

    fn cfg(threads: usize) -> RewriteConfig {
        RewriteConfig {
            num_classes: 222,
            threads,
            ..RewriteConfig::rewrite_op()
        }
    }

    #[test]
    fn single_thread_reduces_and_stays_equivalent() {
        let mut aig = control::voter(15);
        let golden = aig.clone();
        let stats = rewrite_dacpara(&mut aig, &cfg(1)).unwrap();
        aig.check().unwrap();
        assert!(stats.area_reduction() > 0, "{}", stats.summary());
        assert_equiv(&golden, &aig);
    }

    #[test]
    fn multi_thread_preserves_equivalence_on_random_logic() {
        let mut aig = mtm(&MtmParams {
            inputs: 32,
            gates: 2500,
            outputs: 12,
            seed: 11,
        });
        let golden = aig.clone();
        let stats = rewrite_dacpara(&mut aig, &cfg(4)).unwrap();
        aig.check().unwrap();
        assert!(stats.area_after <= stats.area_before);
        assert_equiv(&golden, &aig);
    }

    #[test]
    fn multi_thread_on_arithmetic() {
        let mut aig = arith::multiplier(8);
        let golden = aig.clone();
        let stats = rewrite_dacpara(&mut aig, &cfg(4)).unwrap();
        aig.check().unwrap();
        assert!(stats.worklists > 1, "level partition must have many lists");
        assert_equiv(&golden, &aig);
    }

    #[test]
    fn quality_tracks_the_serial_baseline() {
        // §5.2: DACPara loses only a fraction of a percent of area
        // reduction versus the fully serial baseline.
        let gen = || control::voter(101);
        let mut serial = gen();
        let s = crate::rewrite_serial(&mut serial, &cfg(1)).unwrap();
        let mut para = gen();
        let p = rewrite_dacpara(&mut para, &cfg(4)).unwrap();
        let slack = 1 + s.area_reduction() / 10;
        assert!(
            p.area_reduction() + slack >= s.area_reduction(),
            "serial {} vs dacpara {}",
            s.summary(),
            p.summary()
        );
    }

    #[test]
    fn two_runs_converge() {
        let mut aig = arith::square(6);
        let golden = aig.clone();
        let mut c = cfg(2);
        c.runs = 2;
        let stats = rewrite_dacpara(&mut aig, &c).unwrap();
        aig.check().unwrap();
        let _ = stats;
        assert_equiv(&golden, &aig);
    }
}
