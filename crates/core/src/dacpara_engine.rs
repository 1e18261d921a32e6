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
//!    decentralized structural hash, storing the best result in `prepInfo`
//!    (here each worker's own list of winning positions, merged in
//!    position order when stage 3 opens). Stages 1–2 run in the graph's
//!    *read-only phase*, so the structural probes read fanout lists
//!    without taking their locks.
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
use dacpara_aig::{AigError, AigRead, NodeId};
use dacpara_galois::run_spmd;
use dacpara_npn::canon;
use parking_lot::{Mutex, RwLock};

use crate::eval::{evaluate_node, Candidate};
use crate::pass::Pass;
use crate::session::RewriteSession;
use crate::speculate::{lock_and_verify, reevaluate_and_commit, speculate, Attempt, LockIds};

/// One DACPara run over `work`, inside the session's resident run: the
/// node dividing of Fig. 1 and the three barrier-separated stages per
/// worklist.
pub(crate) fn round(sess: &RewriteSession, pass: &Pass, work: Vec<NodeId>) {
    let cfg = &sess.cfg;
    let (shared, store, ctx) = (&sess.shared, &sess.store, &sess.ctx);

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
    pass.worklists.fetch_add(worklists.len(), Ordering::Relaxed);
    // `prepInfo`: in stage 2 each worker collects the list positions it
    // found a candidate for, with the candidate, and hands them to its
    // `found` list; the stage-3 barrier step merges every worker's list
    // into `prep`, in position order, and stage 3 drives `prep` alone.
    let found: Vec<Mutex<Vec<(usize, Candidate)>>> =
        (0..cfg.threads).map(|_| Mutex::default()).collect();
    let prep: RwLock<Vec<(usize, Candidate)>> = RwLock::default();
    let (found, prep) = (&found, &prep);

    let (pool, error) = (&pass.pool, &pass.error);
    let worklists = &worklists;
    // The barrier steps enter the read-only phase for stages 1–2 of each
    // list and leave it for stage 3. This guard ends it on every other exit
    // from the round — an unwind through a broken barrier included — so
    // the session's sweep and recovery write under the usual locks.
    let _phase = EndReadOnly(shared);
    run_spmd(cfg.threads, |w| {
        let owner = w.id as u32 + 1;
        let mut ids = LockIds::default();
        let mut winners = Vec::new();
        let bail = || error.is_set();
        // Each stage opens with one barrier: it waits for the whole team to
        // leave the previous stage, and its step arms the pool. Once an
        // error is recorded the pool is armed empty: the pass distributes
        // nothing more.
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
                // writes the cut memo, evaluation the `found` lists). This
                // step runs after every worker left the previous stage and
                // after the sweep above, and releases the team only when it
                // returns; the stage-3 barrier's step ends the phase before
                // anyone writes again, and `_phase` ends it if the team
                // unwinds.
                unsafe { shared.begin_read_only() };
                arm(list.len());
            });
            {
                let _obs = dacpara_obs::span("enumerate");
                pool.drive(w.id, |i| {
                    let n = list[i];
                    if !bail() && shared.is_and(n) && shared.refs(n) > 0 {
                        let _ = store.try_cuts(shared, n);
                    }
                });
            }

            // -------- Stage 2: parallel, lock-free evaluation.
            w.barrier(|| arm(list.len()));
            {
                let _obs = dacpara_obs::span("evaluate");
                pool.drive(w.id, |i| {
                    let n = list[i];
                    if bail() || !shared.is_and(n) || shared.refs(n) == 0 {
                        return;
                    }
                    pass.evaluations.incr();
                    if let Some(cand) = store
                        .try_cuts(shared, n)
                        .and_then(|cuts| evaluate_node(shared, n, cuts, ctx))
                    {
                        winners.push((i, cand));
                    }
                });
                found[w.id].lock().append(&mut winners);
            }

            // -------- Stage 3: parallel validated replacement.
            //
            // Only the positions holding a candidate are driven, in
            // position order at one thread; a conflict-aborted commit
            // retries in place. The step ends the read-only phase: commits
            // write the graph.
            w.barrier(|| {
                shared.end_read_only();
                let mut prep = prep.write();
                prep.clear();
                for theirs in found {
                    prep.append(&mut theirs.lock());
                }
                prep.sort_unstable_by_key(|&(i, _)| i);
                arm(prep.len());
            });
            {
                let _obs = dacpara_obs::span("replace");
                let prep = prep.read();
                pool.drive(w.id, |j| {
                    let (i, cand) = &prep[j];
                    let n = list[*i];
                    // A retried attempt counts no second revalidation.
                    let mut revalidation_counted = false;
                    speculate(pass, || {
                        replace_operator(
                            sess,
                            pass,
                            owner,
                            n,
                            cand,
                            &mut revalidation_counted,
                            &mut ids,
                        )
                    });
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
    ids: &mut LockIds,
) -> Result<Attempt, AigError> {
    let (shared, store, ctx) = (&sess.shared, &sess.store, &sess.ctx);
    let stale = || {
        pass.stale_skipped.incr();
        Ok(Attempt::Done)
    };
    if !shared.is_and(n) || shared.refs(n) == 0 {
        return stale();
    }

    // ---- Triage: are the stored leaves untouched (Theorem 1 case)?
    if !cand.leaves_intact(shared) {
        if !sess.cfg.revalidate {
            return stale();
        }
        if !*revalidation_counted {
            pass.revalidated.incr();
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
        if !fresh.iter().any(|c| c.leaves() == cand.leaves()) {
            // A missed optimization opportunity (§5.2).
            return stale();
        }
    }

    // ---- Lock the node, the cut cone and the fanouts, and recompute the
    // cut function under the locks.
    let mut tt = [None];
    let guard = match lock_and_verify(
        sess,
        pass,
        owner,
        n,
        &[cand.leaves()],
        &mut tt,
        &mut ids.region,
    ) {
        Ok(guard) => guard,
        Err(Attempt::Done) => return stale(),
        Err(conflict) => return Ok(conflict),
    };
    let [Some(tt)] = tt else {
        return stale();
    };
    // The stored candidate stays untouched: a conflict below leaves it for
    // a fresh revalidation on the retry.
    let mut live = *cand;
    if tt != live.tt {
        // A leaf slot was recycled with different logic (Fig. 3): the
        // stored structure is only reusable if the NPN class matches.
        if ctx.registry.class_of(tt) != live.class {
            return stale();
        }
        live.tt = tt;
        live.transform = canon(tt).1;
    }

    // ---- Re-evaluate on the latest AIG and apply if it still gains.
    match reevaluate_and_commit(sess, pass, owner, &guard, n, &live, &mut ids.shared)? {
        Some(attempt) => Ok(attempt),
        None => stale(),
    }
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
    fn single_thread_reduces_and_stays_equivalent() {
        let mut aig = control::voter(15);
        let golden = aig.clone();
        let stats = run_engine(&mut aig, Engine::DacPara, &cfg(1)).unwrap();
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
        let stats = run_engine(&mut aig, Engine::DacPara, &cfg(4)).unwrap();
        aig.check().unwrap();
        assert!(stats.area_after <= stats.area_before);
        assert_equiv(&golden, &aig);
    }

    #[test]
    fn multi_thread_on_arithmetic() {
        let mut aig = arith::multiplier(8);
        let golden = aig.clone();
        let stats = run_engine(&mut aig, Engine::DacPara, &cfg(4)).unwrap();
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
        let s = run_engine(&mut serial, Engine::AbcRewrite, &cfg(1)).unwrap();
        let mut para = gen();
        let p = run_engine(&mut para, Engine::DacPara, &cfg(4)).unwrap();
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
        let stats = run_engine(&mut aig, Engine::DacPara, &c).unwrap();
        aig.check().unwrap();
        let _ = stats;
        assert_equiv(&golden, &aig);
    }
}
