//! CPU re-implementations of the static-global-information GPU rewriters.
//!
//! * **DAC'22 ("NovelRewrite")** — enumerate and evaluate *all* nodes once,
//!   in parallel, against the original (static) AIG, then perform *serial
//!   conditional replacement*: a stored result is applied only if its cut
//!   is still intact, using its **static** gain (no re-evaluation).
//! * **TCAD'23** — same two-phase shape, but evaluation ignores logical
//!   sharing entirely ("replaces all subgraphs based on static global
//!   information without considering logical sharing, and then merges
//!   logical equivalent nodes"); the merge falls out of this workspace's
//!   strash-canonical [`Aig::replace`].
//!
//! The original systems run phase one on a 9216-core GPU; the phase is
//! embarrassingly parallel and read-only, so a CPU thread team preserves
//! the algorithmic behaviour exactly (`DESIGN.md` §2). What the paper
//! compares — *quality* under static information — is hardware-independent.

use std::sync::atomic::Ordering;

use dacpara_aig::{Aig, AigError, AigRead};
use dacpara_cut::CutStore;
use dacpara_galois::parallel_for;
use parking_lot::Mutex;

use crate::eval::{build_replacement, evaluate_node, Candidate, EvalContext};
use crate::pass::Pass;
use crate::validity::verify_cut;
use crate::RewriteConfig;

/// One static-information run: phase A evaluates every node in parallel on
/// the frozen graph, phase B replaces serially with the stored gains. The
/// caller picks the method through `ctx.count_sharing`: `true` for DAC'22,
/// `false` for TCAD'23.
///
/// # Errors
///
/// Returns [`AigError::InvariantViolation`] if a replacement fails its
/// certificate (see [`crate::build_replacement`]).
pub(crate) fn run(
    aig: &mut Aig,
    cfg: &RewriteConfig,
    ctx: &EvalContext,
    pass: &Pass,
) -> Result<(), AigError> {
    // ---- Phase A: parallel enumeration + evaluation on the static AIG.
    let order = dacpara_aig::topo_ands(aig);
    if order.is_empty() {
        // A gateless netlist (constants/wires only) has nothing to
        // enumerate.
        return Ok(());
    }
    let store = CutStore::new(aig.slot_count(), cfg.cut_config());
    let prep: Vec<Mutex<Option<Candidate>>> =
        (0..aig.slot_count()).map(|_| Mutex::new(None)).collect();
    {
        let aig = &*aig;
        parallel_for(cfg.threads, &order, |_, &n| {
            if AigRead::refs(aig, n) == 0 {
                return;
            }
            let cuts = {
                let _obs = dacpara_obs::span("enumerate");
                store.cuts(aig, n)
            };
            let _obs = dacpara_obs::span("evaluate");
            *prep[n.index()].lock() = evaluate_node(aig, n, &cuts, ctx);
        });
    }

    // ---- Phase B: serial (conditional) replacement using static gains.
    let _obs = dacpara_obs::span("replace");
    let (mut stale_skipped, mut replacements) = (0, 0);
    for n in order {
        let Some(cand) = prep[n.index()].lock().take() else {
            continue;
        };
        // Condition: the node must still be in use, and its stored cut
        // intact (leaves alive with unchanged generations) and still
        // computing the function the structure was selected for —
        // otherwise replacing would corrupt logic. Crucially, the *gain
        // is not re-evaluated*: that is the static-information deficit
        // the paper measures.
        let live = aig.is_and(n)
            && AigRead::refs(aig, n) > 0
            && cand.leaves_intact(aig)
            && matches!(verify_cut(aig, n, &cand.leaves), Some((_, tt)) if tt == cand.tt);
        if !live {
            stale_skipped += 1;
            continue;
        }
        let root = build_replacement(aig, &cand, ctx.lib)?;
        if root.node() != n {
            aig.replace(n, root);
            replacements += 1;
        }
    }
    aig.cleanup();
    aig.recompute_levels();
    pass.stale_skipped
        .fetch_add(stale_skipped, Ordering::Relaxed);
    pass.replacements.fetch_add(replacements, Ordering::Relaxed);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::assert_equiv;
    use crate::{run_engine, Engine};
    use dacpara_circuits::{arith, control, mtm, MtmParams};

    fn cfg() -> RewriteConfig {
        RewriteConfig {
            num_classes: 222,
            threads: 3,
            ..RewriteConfig::rewrite_op()
        }
    }

    #[test]
    fn conditional_mode_is_sound() {
        let mut aig = control::voter(15);
        let golden = aig.clone();
        let stats = run_engine(&mut aig, Engine::Dac22, &cfg()).unwrap();
        aig.check().unwrap();
        assert!(stats.area_after <= stats.area_before);
        assert_equiv(&golden, &aig);
    }

    #[test]
    fn unconditional_mode_is_sound() {
        let mut aig = arith::multiplier(6);
        let golden = aig.clone();
        let stats = run_engine(&mut aig, Engine::Tcad23, &cfg()).unwrap();
        aig.check().unwrap();
        let _ = stats;
        assert_equiv(&golden, &aig);
    }

    #[test]
    fn static_quality_trails_dynamic_quality() {
        // The paper's central quality claim: static global information
        // leaves area on the table versus the (serial, fully dynamic)
        // baseline on complex circuits.
        let gen = || {
            mtm(&MtmParams {
                inputs: 32,
                gates: 3000,
                outputs: 16,
                seed: 99,
            })
        };
        let mut dynamic = gen();
        let dyn_stats = run_engine(&mut dynamic, Engine::AbcRewrite, &cfg()).unwrap();
        let mut static_ = gen();
        let sta_stats = run_engine(&mut static_, Engine::Tcad23, &cfg()).unwrap();
        assert!(
            dyn_stats.area_after <= sta_stats.area_after,
            "dynamic {} vs static {}",
            dyn_stats.summary(),
            sta_stats.summary()
        );
    }

    #[test]
    fn stale_results_are_skipped_not_misapplied() {
        let mut aig = control::voter(9);
        let golden = aig.clone();
        let stats = run_engine(&mut aig, Engine::Dac22, &cfg()).unwrap();
        // Overlapping cones make some stored results stale; they must be
        // counted, and equivalence must hold regardless.
        let _ = stats.stale_skipped;
        assert_equiv(&golden, &aig);
    }
}
