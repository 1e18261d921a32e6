//! The serial DAG-aware rewriting baseline (ABC's `rewrite`).
//!
//! Processes every AND node in topological order; for each node it
//! enumerates 4-input cuts, evaluates the library structures of each cut's
//! NPN class against the *current* graph (so every node sees fully dynamic
//! information), and applies the best positive-gain replacement. This is
//! the algorithm of Mishchenko et al. (DAC'06) that all the parallel
//! engines in this crate are measured against.

use dacpara_aig::mffc::mffc_with_cut;
use dacpara_aig::{Aig, AigError, AigRead};
use dacpara_cut::CutStore;

use crate::eval::{build_replacement, evaluate_node, EvalContext};
use crate::pass::Pass;
use crate::RewriteConfig;

/// One serial run: a topological sweep over every AND node, then cleanup
/// and a level refresh. The partition engine calls it once per region.
///
/// # Errors
///
/// The serial arena grows on demand, so the only error is a replacement
/// that fails its certificate ([`AigError::InvariantViolation`], see
/// [`crate::build_replacement`]).
pub(crate) fn run(
    aig: &mut Aig,
    cfg: &RewriteConfig,
    ctx: &EvalContext,
    pass: &Pass,
) -> Result<(), AigError> {
    let (mut evaluations, mut replacements) = (0, 0);
    let mut store = CutStore::new(aig.slot_count() + 64, cfg.cut_config());
    for n in dacpara_aig::topo_ands(aig) {
        if !aig.is_and(n) || AigRead::refs(aig, n) == 0 {
            continue; // deleted or dangling since the snapshot
        }
        store.grow(aig.slot_count());
        let cuts = {
            let _obs = dacpara_obs::span("enumerate");
            store.cuts(aig, n)
        };
        let cand = {
            let _obs = dacpara_obs::span("evaluate");
            evaluations += 1;
            evaluate_node(aig, n, cuts, ctx)
        };
        let Some(cand) = cand else {
            continue;
        };
        let _obs = dacpara_obs::span("replace");
        // Invalidate enumeration results that the replacement makes
        // stale: the would-be-deleted cone and the transitive fanout.
        let freed = mffc_with_cut(aig, n, cand.leaves());
        for &f in &freed.freed {
            store.invalidate(f);
        }
        store.invalidate_tfo(aig, n);
        let root = build_replacement(aig, &cand, ctx.lib)?;
        if root.node() != n {
            aig.replace(n, root);
            replacements += 1;
        }
        store.grow(aig.slot_count());
        // The invalidations above retired entries; free them once they
        // outweigh the live ones.
        store.compact();
    }
    aig.cleanup();
    aig.recompute_levels();
    pass.evaluations.add(evaluations);
    pass.replacements.add(replacements);
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
            ..RewriteConfig::rewrite_op()
        }
    }

    #[test]
    fn rewrites_a_multiplier_soundly() {
        let mut aig = arith::multiplier(6);
        let golden = aig.clone();
        let stats = run_engine(&mut aig, Engine::AbcRewrite, &cfg()).unwrap();
        aig.check().unwrap();
        assert!(stats.area_after <= stats.area_before);
        assert_equiv(&golden, &aig);
    }

    #[test]
    fn reduces_redundant_voter() {
        let mut aig = control::voter(15);
        let golden = aig.clone();
        let stats = run_engine(&mut aig, Engine::AbcRewrite, &cfg()).unwrap();
        aig.check().unwrap();
        assert!(
            stats.area_reduction() > 0,
            "voter has rewritable structure: {}",
            stats.summary()
        );
        assert_equiv(&golden, &aig);
    }

    #[test]
    fn preserve_level_never_deepens() {
        let mut aig = mtm(&MtmParams {
            inputs: 24,
            gates: 600,
            outputs: 8,
            seed: 3,
        });
        let golden = aig.clone();
        let stats = run_engine(&mut aig, Engine::AbcRewrite, &cfg()).unwrap();
        aig.check().unwrap();
        assert!(
            stats.delay_after <= stats.delay_before,
            "level-preserving rewrite deepened the graph: {}",
            stats.summary()
        );
        assert_equiv(&golden, &aig);
    }

    #[test]
    fn second_run_changes_little() {
        let mut aig = arith::adder(10);
        run_engine(&mut aig, Engine::AbcRewrite, &cfg()).unwrap();
        let after_one = aig.num_ands();
        let stats = run_engine(&mut aig, Engine::AbcRewrite, &cfg()).unwrap();
        assert!(
            stats.area_reduction() * 10 <= after_one,
            "rewriting should be near a fixpoint: {}",
            stats.summary()
        );
    }

    #[test]
    fn use_zeros_is_accepted() {
        let mut aig = arith::square(5);
        let golden = aig.clone();
        let mut c = cfg();
        c.use_zeros = true;
        run_engine(&mut aig, Engine::AbcRewrite, &c).unwrap();
        aig.check().unwrap();
        assert_equiv(&golden, &aig);
    }
}
