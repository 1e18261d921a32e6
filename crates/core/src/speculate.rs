//! The speculative-execution protocol shared by the two Galois operators
//! (DACPara's replacement operator and the ICCAD'18 combined operator).
//!
//! An operator body performs one *attempt* and reports whether it finished
//! or hit a lock conflict; [`speculate`] owns everything around it — the
//! error bail-out, panic containment, the Galois attempt/commit/abort
//! accounting, and the one conflict path: retry the attempt in place after
//! a spin-then-yield backoff. The work-stealing scheduler never sees a
//! conflict. Both operators finish a re-evaluated candidate through
//! [`lock_shared_and_commit`], which applies it with [`commit_replacement`].

use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use dacpara_aig::{AigError, AigRead, NodeId};
use dacpara_galois::LockSet;
use dacpara_obs::LogHistogram;

use crate::eval::{build_replacement, Candidate, Reevaluation};
use crate::recovery::contain_panic;
use crate::session::{Pass, RewriteSession};

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

/// Phase 2 of a commit, shared by both Galois operators. `re` re-evaluated
/// `cand` at `n` under `held`, the phase-1 locks on the node, its fanouts
/// and the cut cone. Locks the nodes the build will share, then checks
/// that each is still the node `re` counted on: one that died or changed
/// generation in between would make the build allocate a gate the gain
/// did not count, so that is a conflict. Then commits, counting the
/// replacement.
pub(crate) fn lock_shared_and_commit(
    sess: &RewriteSession,
    pass: &Pass,
    owner: u32,
    held: &LockSet<'_>,
    n: NodeId,
    cand: &Candidate,
    re: &Reevaluation,
) -> Result<Attempt, AigError> {
    let shared = &sess.shared;
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
            None => return Ok(Attempt::Conflict),
        }
    };
    if re
        .shared_nodes
        .iter()
        .any(|&(s, gen)| !shared.is_and(s) || shared.generation(s) != gen)
    {
        return Ok(Attempt::Conflict);
    }
    if commit_replacement(sess, n, cand, re)? {
        pass.replacements.fetch_add(1, Ordering::Relaxed);
    }
    Ok(Attempt::Done)
}

/// Builds `cand`'s structure and installs it at `n`, under the caller's
/// locks on the node, its fanouts, the cut cone and every shared node.
/// Returns whether the graph changed; a rebuild that resolves to `n` itself
/// is a no-op. A real change records `re.gain` in the
/// `rewrite.replacement_gain` histogram.
///
/// Invalidation happens only on a real change (a no-op must not re-dirty
/// the fanout cone, or a session would never converge), and the TFO walk
/// must precede `replace_locked`, which moves `n`'s fanouts. Everything
/// whose evaluation could have changed — the cone interior, the new
/// structure, shared nodes and all downstream users — lies in the
/// transitive fanout of the cut leaves.
fn commit_replacement(
    sess: &RewriteSession,
    n: NodeId,
    cand: &Candidate,
    re: &Reevaluation,
) -> Result<bool, AigError> {
    let (shared, store) = (&sess.shared, &sess.store);
    let root = build_replacement(&mut &*shared, cand, sess.ctx.lib)?;
    if root.node() == n {
        return Ok(false);
    }
    // The in-commit site: the new gates exist, but nothing is rewired yet.
    if dacpara_fault::point(dacpara_fault::points::OPERATOR_PANIC) {
        panic!("injected fault: operator.panic");
    }
    for &f in &re.freed {
        store.invalidate(f);
    }
    store.invalidate_tfo(shared, n);
    // A planted miscompile for the fuzzer self-test: the complemented root
    // is never equivalent to `n`.
    let corrupt = dacpara_fault::point(dacpara_fault::points::REPLACE_CORRUPT);
    shared.replace_locked(n, if corrupt { !root } else { root });
    for &l in &cand.leaves {
        store.mark_dirty_tfo(shared, l);
    }
    if dacpara_obs::is_enabled() {
        gain_histogram().record(re.gain.max(0) as u64);
    }
    Ok(true)
}
