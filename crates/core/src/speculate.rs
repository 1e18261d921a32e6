//! The speculative-execution protocol shared by the two Galois operators
//! (DACPara's replacement operator and the ICCAD'18 combined operator).
//!
//! An operator body performs one *attempt* and reports whether it finished
//! or hit a lock conflict; [`speculate`] owns everything around it — the
//! error bail-out, panic containment, the Galois attempt/commit/abort
//! accounting, the choice between yielding a conflicted item back to the
//! work-stealing scheduler and retrying it inline, the backoff, and the
//! mapping to the scheduler's [`ItemOutcome`]. Both operators apply a
//! validated structure through [`commit_replacement`].

use std::time::Instant;

use dacpara_aig::concurrent::ConcurrentAig;
use dacpara_aig::{AigError, NodeId};
use dacpara_cut::CutStore;
use dacpara_galois::{ItemOutcome, MAX_SCHED_RETRIES};

use crate::eval::{build_replacement, Candidate, EvalContext};
use crate::recovery::contain_panic;
use crate::session::Pass;

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
/// until it is done ([`ItemOutcome::Done`]), or until a conflict yields
/// the item back to the scheduler ([`ItemOutcome::Retry`]).
///
/// Every attempt records exactly one commit or abort in `pass.spec` — an
/// `Err` exit counts as an abort — so `attempts == commits + aborts` holds
/// at quiescence. `tries` is how many times the scheduler has already
/// re-enqueued the item: below [`MAX_SCHED_RETRIES`] a conflict yields so
/// the worker moves on while the contended region clears; from then on the
/// activity retries inline with backoff, which guarantees progress.
///
/// Errors and panics end the item: the first error lands in `pass.error`,
/// and once any error is recorded the remaining items finish as no-ops so
/// the round drains. A panic is contained here, at the item boundary, so
/// the pool never sees an unwind and is not poisoned.
pub(crate) fn speculate(
    pass: &Pass,
    tries: u32,
    mut attempt: impl FnMut() -> Result<Attempt, AigError>,
) -> ItemOutcome {
    if pass.error.is_set() {
        return ItemOutcome::Done;
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
            match attempt() {
                Ok(Attempt::Done) => {
                    spec.record_commit(start.elapsed());
                    if tries > 0 {
                        pass.pool.stats().record_retry_commit();
                    }
                    return Ok(ItemOutcome::Done);
                }
                Ok(Attempt::Conflict) => {
                    spec.record_abort(start.elapsed());
                    if tries < MAX_SCHED_RETRIES {
                        return Ok(ItemOutcome::Retry);
                    }
                    backoff(&mut spins);
                }
                Err(e) => {
                    spec.record_abort(start.elapsed());
                    return Err(e);
                }
            }
        }
    });
    outcome.unwrap_or_else(|e| {
        pass.error.record(e);
        ItemOutcome::Done
    })
}

/// Builds `cand`'s structure and installs it at `n`, under the caller's
/// locks on the node, its fanouts, the cut cone and every shared node.
/// Returns whether the graph changed; a rebuild that resolves to `n` itself
/// is a no-op.
///
/// Invalidation happens only on a real change (a no-op must not re-dirty
/// the fanout cone, or a session would never converge), and the TFO walk
/// must precede `replace_locked`, which moves `n`'s fanouts. Everything
/// whose evaluation could have changed — the cone interior, the new
/// structure, shared nodes and all downstream users — lies in the
/// transitive fanout of the cut leaves.
pub(crate) fn commit_replacement(
    shared: &ConcurrentAig,
    store: &CutStore,
    ctx: &EvalContext,
    n: NodeId,
    cand: &Candidate,
    freed: &[NodeId],
) -> Result<bool, AigError> {
    let root = build_replacement(&mut &*shared, cand, ctx.lib)?;
    if root.node() == n {
        return Ok(false);
    }
    for &f in freed {
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
    Ok(true)
}
