//! Oracle for the bounded evaluation kernel.
//!
//! `evaluate_cut` stops mapping a structure once it has added more nodes
//! than the gain threshold allows, and memoizes structural-hash lookups
//! across the structures of one cut. `evaluate_node` shares that memo
//! across all cuts of the node and raises the threshold to the best gain
//! found so far. None of this may change the answer: for every AND node
//! and every cut of the `log2`, `voter` and MtM generators at test scale,
//! on both the serial `Aig` and the `ConcurrentAig`, `evaluate_cut` must
//! pick exactly what a brute-force scan picks when it maps every class
//! structure to completion with `reevaluate_structure` and ranks them by
//! (gain, fewest added nodes, lowest level, first in library order), and
//! `evaluate_node` must pick the first cut whose brute-force gain is
//! strictly the best.

use dacpara::{
    evaluate_cut, evaluate_node, reevaluate_structure, Candidate, EvalContext, RewriteConfig,
};
use dacpara_aig::concurrent::ConcurrentAig;
use dacpara_aig::{Aig, AigRead, NodeId};
use dacpara_circuits::{arith, control, mtm, MtmParams};
use dacpara_cut::{Cut, CutStore};
use dacpara_npn::canon;

/// The brute-force choice for one cut: `(struct_idx, gain)`.
fn brute_force<V: AigRead + ?Sized>(
    view: &V,
    n: NodeId,
    cut: &Cut,
    ctx: &EvalContext,
) -> Option<(usize, i32)> {
    let tt = cut.tt();
    let class = ctx.registry.class_of(tt);
    if !ctx.allowed[class as usize] {
        return None;
    }
    let structures = ctx.lib.structures(class);
    let budget = match ctx.max_structures {
        0 => structures.len(),
        k => k.min(structures.len()),
    };
    let mut best: Option<(i32, u32, u32, usize)> = None;
    for struct_idx in 0..budget {
        let cand = Candidate {
            leaves: cut.leaves().to_vec(),
            leaf_gens: cut.leaves().iter().map(|&l| view.generation(l)).collect(),
            tt,
            class,
            transform: canon(tt).1,
            struct_idx,
            gain: 0,
        };
        let re = reevaluate_structure(view, n, &cand, ctx);
        if re.gain == i32::MIN {
            continue; // the structure is the node itself
        }
        let added = (re.freed.len() as i32 - re.gain) as u32;
        let gain_ok = re.gain > 0 || (ctx.use_zeros && re.gain >= 0);
        let level_ok = !ctx.preserve_level || re.level <= view.level(n);
        if !(gain_ok && level_ok) {
            continue;
        }
        // Strictly better under (gain, -added, -level): ties keep the
        // earlier structure.
        let key = (
            re.gain,
            std::cmp::Reverse(added),
            std::cmp::Reverse(re.level),
        );
        if best.is_none_or(|(g, a, l, _)| key > (g, std::cmp::Reverse(a), std::cmp::Reverse(l))) {
            best = Some((re.gain, added, re.level, struct_idx));
        }
    }
    best.map(|(gain, _, _, idx)| (idx, gain))
}

/// Checks every cut of every AND node of `view`, then the node as a whole;
/// returns how many nodes produced a candidate (so a vacuous sweep is
/// caught).
fn sweep<V: AigRead + ?Sized>(view: &V, cfg: &RewriteConfig, label: &str) -> usize {
    let ctx = EvalContext::new(cfg);
    let store = CutStore::new(view.slot_count(), cfg.cut_config());
    let mut found = 0;
    for i in 0..view.slot_count() {
        let n = NodeId::new(i as u32);
        if !view.is_and(n) {
            continue;
        }
        let cuts = store.cuts(view, n);
        // The node's expected choice: `(leaves, struct_idx, gain)` of the
        // first cut whose gain beats every earlier cut's.
        let mut want_node: Option<(Vec<NodeId>, usize, i32)> = None;
        for cut in cuts.iter().filter(|c| c.len() >= 2) {
            let got = evaluate_cut(view, n, cut, &ctx).map(|c| (c.struct_idx, c.gain));
            let want = brute_force(view, n, cut, &ctx);
            assert_eq!(
                got,
                want,
                "{label}: node {n:?}, cut {:?} (tt {:#06x})",
                cut.leaves(),
                cut.tt().raw()
            );
            if let Some((idx, gain)) = want {
                if want_node.as_ref().is_none_or(|(_, _, best)| gain > *best) {
                    want_node = Some((cut.leaves().to_vec(), idx, gain));
                }
            }
        }
        let got_node =
            evaluate_node(view, n, &cuts, &ctx).map(|c| (c.leaves, c.struct_idx, c.gain));
        assert_eq!(got_node, want_node, "{label}: node {n:?}");
        found += usize::from(got_node.is_some());
    }
    found
}

fn configs() -> Vec<(&'static str, RewriteConfig)> {
    let all = RewriteConfig {
        num_classes: 222,
        ..RewriteConfig::rewrite_op()
    };
    vec![
        ("rewrite", RewriteConfig::rewrite_op()),
        (
            "zeros, any level",
            RewriteConfig {
                use_zeros: true,
                preserve_level: false,
                ..all.clone()
            },
        ),
        // Five structures per class and eight cuts per node.
        ("drw", RewriteConfig::drw_op()),
        ("all classes", all),
    ]
}

fn check_circuit(name: &str, aig: &Aig) {
    let shared = ConcurrentAig::from_aig(aig, 0).unwrap();
    for (cfg_name, cfg) in configs() {
        let serial = sweep(aig, &cfg, &format!("{name} / Aig / {cfg_name}"));
        let concurrent = sweep(
            &shared,
            &cfg,
            &format!("{name} / ConcurrentAig / {cfg_name}"),
        );
        assert!(
            serial > 0 && concurrent > 0,
            "{name} / {cfg_name}: no candidate anywhere"
        );
    }
}

#[test]
fn bounded_evaluation_matches_brute_force_on_log2() {
    check_circuit("log2", &arith::log2(8, 2));
}

#[test]
fn bounded_evaluation_matches_brute_force_on_voter() {
    check_circuit("voter", &control::voter(25));
}

#[test]
fn bounded_evaluation_matches_brute_force_on_mtm() {
    let aig = mtm(&MtmParams {
        inputs: 117,
        gates: 800,
        outputs: 50,
        seed: 16,
    });
    check_circuit("mtm", &aig);
}
