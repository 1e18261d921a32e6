//! The speculative-execution protocol shared by the two Galois operators
//! (DACPara's replacement operator and the ICCAD'18 combined operator).
//!
//! An operator body performs one *attempt* and reports whether it finished
//! or hit a lock conflict; [`speculate`] owns everything around it — the
//! error bail-out, panic containment, the Galois attempt/commit/abort
//! accounting, and the one conflict path: retry the attempt in place after
//! a spin-then-yield backoff. The work-stealing scheduler never sees a
//! conflict. Inside an attempt both operators lock through
//! [`lock_and_verify`] and apply through [`reevaluate_and_commit`].

use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use dacpara_aig::{AigError, AigRead, NodeId};
use dacpara_galois::LockSet;
use dacpara_npn::Tt4;
use dacpara_obs::LogHistogram;

use crate::eval::{build_replacement, reevaluate_structure, Candidate};
use crate::pass::Pass;
use crate::recovery::contain_panic;
use crate::session::RewriteSession;
use crate::validity::{cut_cover, verify_cut};

/// The cached `rewrite.replacement_gain` histogram handle.
fn gain_histogram() -> &'static LogHistogram {
    static HANDLE: OnceLock<Arc<LogHistogram>> = OnceLock::new();
    HANDLE.get_or_init(|| dacpara_obs::histogram("rewrite.replacement_gain"))
}

/// What one speculative attempt did.
pub(crate) enum Attempt {
    /// The activity completed — committed a replacement, or found nothing
    /// (left) to do. The attempt commits.
    Done,
    /// A lock conflict: the attempt changed nothing and aborts.
    Conflict,
}

/// Spin-then-yield backoff between inline retries.
fn backoff(spins: &mut u32) {
    *spins += 1;
    if *spins < 32 {
        std::hint::spin_loop();
    } else {
        std::thread::yield_now();
    }
}

/// Runs one activity of a Galois operator for the scheduler: `attempt`
/// until it is done, retrying in place with backoff after each conflict.
///
/// Every attempt records exactly one commit or abort in `pass.spec` — an
/// `Err` exit counts as an abort — so `attempts == commits + aborts` holds
/// at quiescence. A conflicted attempt changed nothing, so the retry
/// starts from the same state; the lock holder it waits on finishes its
/// commit in bounded time, so the loop makes progress.
///
/// Errors and panics end the item: the first error lands in `pass.error`,
/// and once any error is recorded the remaining items finish as no-ops so
/// the round drains. A panic is contained here, so the pool never sees an
/// unwind; one inside an attempt counts as its abort.
pub(crate) fn speculate(pass: &Pass, mut attempt: impl FnMut() -> Result<Attempt, AigError>) {
    if pass.error.is_set() {
        return;
    }
    let spec = &pass.spec;
    let outcome = contain_panic(|| {
        // Injected before the first `record_attempt` so a contained panic
        // never breaks the accounting.
        if dacpara_fault::point(dacpara_fault::points::OPERATOR_PANIC) {
            panic!("injected fault: operator.panic");
        }
        let mut spins = 0u32;
        loop {
            let start = Instant::now();
            spec.record_attempt();
            match contain_panic(&mut attempt) {
                Ok(Attempt::Done) => {
                    spec.record_commit(start.elapsed());
                    return Ok(());
                }
                Ok(Attempt::Conflict) => {
                    spec.record_abort(start.elapsed());
                    backoff(&mut spins);
                }
                Err(e) => {
                    spec.record_abort(start.elapsed());
                    return Err(e);
                }
            }
        }
    });
    if let Err(e) = outcome {
        pass.error.record(e);
    }
}

/// ARCHITECTURE.md §3's plan → lock → verify for node `n` and the cuts
/// `leaf_sets`: locks the node, its fanouts, and each cut whose cover can
/// be collected with that cover, then [`verify_in_region`] writes each
/// cut's live function (or `None`) to `tts`. Fails with `Done` if no
/// cut's cover can be collected (nothing is locked), and with `Conflict`
/// if the region is taken or a live cut reaches outside it — a commit on
/// that cone would delete nodes the attempt does not hold.
pub(crate) fn lock_and_verify<'s>(
    sess: &'s RewriteSession,
    pass: &Pass,
    owner: u32,
    n: NodeId,
    leaf_sets: &[&[NodeId]],
    tts: &mut [Option<Tt4>],
) -> Result<LockSet<'s>, Attempt> {
    let shared = &sess.shared;
    let mut region = Vec::new();
    for &leaves in leaf_sets {
        if let Some(cover) = cut_cover(shared, n, leaves) {
            region.extend(leaves.iter().chain(&cover).map(|x| x.raw()));
        }
    }
    if region.is_empty() {
        return Err(Attempt::Done);
    }
    region.push(n.raw());
    region.extend(shared.fanout_ids(n).iter().map(|f| f.raw()));
    match sess.locks.try_acquire(owner, region, &pass.spec) {
        Some(guard) if verify_in_region(shared, guard.ids(), n, leaf_sets, tts) => Ok(guard),
        _ => Err(Attempt::Conflict),
    }
}

/// Re-runs [`verify_cut`] per cut under the locks `held` (sorted ids):
/// `tts[i]` is cut `i`'s live function, `None` if it no longer cuts `n`.
/// False if a live cut's cover or leaves are not all held.
fn verify_in_region<V: AigRead + ?Sized>(
    view: &V,
    held: &[u32],
    n: NodeId,
    leaf_sets: &[&[NodeId]],
    tts: &mut [Option<Tt4>],
) -> bool {
    for (&leaves, tt) in leaf_sets.iter().zip(tts) {
        *tt = None;
        if let Some((cover, live)) = verify_cut(view, n, leaves) {
            if cover
                .iter()
                .chain(leaves)
                .any(|x| held.binary_search(&x.raw()).is_err())
            {
                return false;
            }
            *tt = Some(live);
        }
    }
    true
}

/// Re-evaluates `cand` at `n` under `held`, the [`lock_and_verify`] locks,
/// and commits it if the result passes [`crate::EvalContext::accepts`]
/// (§4.4: "each replacement must obtain a positive gain on the latest
/// AIG"); `Ok(None)` if it does not. A real change counts a replacement
/// and records its gain in the `rewrite.replacement_gain` histogram.
pub(crate) fn reevaluate_and_commit(
    sess: &RewriteSession,
    pass: &Pass,
    owner: u32,
    held: &LockSet<'_>,
    n: NodeId,
    cand: &Candidate,
) -> Result<Option<Attempt>, AigError> {
    let (shared, ctx) = (&sess.shared, &sess.ctx);
    let re = reevaluate_structure(shared, n, cand, ctx);
    if !ctx.accepts(re.gain, re.level, shared.level(n)) {
        return Ok(None);
    }
    // Lock the nodes the build will share, and check that each is still
    // the node the re-evaluation counted on: one that died or changed
    // generation in between would make the build allocate a gate the gain
    // did not count, so that is a conflict.
    let extra: Vec<u32> = re
        .shared_nodes
        .iter()
        .map(|(s, _)| s.raw())
        .filter(|id| held.ids().binary_search(id).is_err())
        .collect();
    let _extra_guard = if extra.is_empty() {
        None
    } else {
        match sess.locks.try_acquire(owner, extra, &pass.spec) {
            Some(g) => Some(g),
            None => return Ok(Some(Attempt::Conflict)),
        }
    };
    if re
        .shared_nodes
        .iter()
        .any(|&(s, gen)| !shared.is_and(s) || shared.generation(s) != gen)
    {
        return Ok(Some(Attempt::Conflict));
    }

    // Commit. A rebuild that resolves to `n` itself is a no-op, and must
    // not re-dirty the fanout cone, or a session would never converge.
    let root = build_replacement(&mut &*shared, cand, ctx.lib)?;
    if root.node() == n {
        return Ok(Some(Attempt::Done));
    }
    // The in-commit site: the new gates exist, but nothing is rewired yet.
    if dacpara_fault::point(dacpara_fault::points::OPERATOR_PANIC) {
        panic!("injected fault: operator.panic");
    }
    // The TFO walk must precede `replace_locked`, which moves `n`'s
    // fanouts. Everything whose evaluation could have changed — the cone
    // interior, the new structure, shared nodes and all downstream users —
    // lies in the transitive fanout of the cut leaves.
    for &f in &re.freed {
        sess.store.invalidate(f);
    }
    sess.store.invalidate_tfo(shared, n);
    // A planted miscompile for the fuzzer self-test: the complemented root
    // is never equivalent to `n`.
    let corrupt = dacpara_fault::point(dacpara_fault::points::REPLACE_CORRUPT);
    shared.replace_locked(n, if corrupt { !root } else { root });
    for &l in &cand.leaves {
        sess.store.mark_dirty_tfo(shared, l);
    }
    pass.replacements.fetch_add(1, Ordering::Relaxed);
    if dacpara_obs::is_enabled() {
        gain_histogram().record(re.gain.max(0) as u64);
    }
    Ok(Some(Attempt::Done))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate_node;
    use crate::RewriteConfig;
    use dacpara_aig::Aig;
    use dacpara_circuits::control;

    fn session(aig: &Aig) -> RewriteSession {
        let cfg = RewriteConfig {
            num_classes: 222,
            threads: 1,
            ..RewriteConfig::rewrite_op()
        };
        RewriteSession::new(aig, &cfg).unwrap()
    }

    #[test]
    fn a_cone_moved_between_planning_and_locking_is_a_conflict() {
        // root = ((a & b) & c) & d; the cut {a, b, c, d} covers x, y, root.
        let mut aig = Aig::new();
        let [a, b, c, d] = [(); 4].map(|_| aig.add_input());
        let x = aig.add_and(a, b);
        let y = aig.add_and(x, c);
        let root = aig.add_and(y, d);
        aig.add_output(root);
        let sess = session(&aig);
        let pass = Pass::new(1);
        let shared = &sess.shared;
        // `from_aig` numbers the inputs 1–4, then x, y, root.
        let [a, b, c, d] = [1, 2, 3, 4].map(|i| NodeId::new(i).lit());
        let (y, n) = (NodeId::new(6), NodeId::new(7));
        let leaves = [a, b, c, d].map(|l| l.node());
        let sets: [&[NodeId]; 1] = [&leaves];
        let mut tts = [None];
        let (Ok(planned), [Some(tt)]) = (lock_and_verify(&sess, &pass, 1, n, &sets, &mut tts), tts)
        else {
            panic!("the cut locks and verifies");
        };

        // The cone moves: y = (a & b) & c is rebuilt as (a & c) & b. The cut
        // keeps its leaves and its function, over nodes outside the planned
        // region.
        let ac = shared.add_and_locked(a, c).unwrap();
        let moved = shared.add_and_locked(ac, b).unwrap();
        shared.replace_locked(y, moved);
        let (cover, moved_tt) = verify_cut(shared, n, &leaves).unwrap();
        assert_eq!(moved_tt, tt);
        assert!(cover.contains(&moved.node()));
        assert!(planned.ids().binary_search(&moved.node().raw()).is_err());

        // Verified under the planned region, the moved cone is a conflict.
        assert!(!verify_in_region(shared, planned.ids(), n, &sets, &mut tts));
        drop(planned);
        // Replanned on the moved cone, the same cut locks and verifies.
        assert!(lock_and_verify(&sess, &pass, 1, n, &sets, &mut tts).is_ok());
        assert_eq!(tts, [Some(tt)]);
    }

    #[test]
    fn each_operator_locks_its_pinned_region() {
        let sess = session(&control::voter(15));
        let pass = Pass::new(1);
        let n = NodeId::new(50);
        let cuts = sess.store.try_cuts(&sess.shared, n).unwrap();
        let cand = evaluate_node(&sess.shared, n, &cuts, &sess.ctx).unwrap();
        // DACPara locks its stored candidate's cut; ICCAD'18 every cut of
        // at least two leaves (`lockstep::combined_operator`).
        let dacpara: Vec<&[NodeId]> = vec![&cand.leaves];
        let iccad18: Vec<&[NodeId]> = cuts
            .iter()
            .filter(|c| c.len() >= 2)
            .map(|c| c.leaves())
            .collect();
        let pinned: [(Vec<&[NodeId]>, &[u32]); 2] = [
            (dacpara, &[19, 23, 48, 49, 50, 51, 52, 55]),
            (iccad18, &[1, 2, 3, 4, 19, 23, 48, 49, 50, 51, 52, 55]),
        ];
        for (sets, region) in pinned {
            let mut tts = vec![None; sets.len()];
            let Ok(guard) = lock_and_verify(&sess, &pass, 1, n, &sets, &mut tts) else {
                panic!("node 50 locks at one thread");
            };
            assert_eq!(guard.ids(), region);
        }
    }
}
