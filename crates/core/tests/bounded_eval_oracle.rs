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
        let cand = Candidate::on_cut(view, cut, class, canon(tt).1, struct_idx, 0);
        let (gain, saved, level) = reevaluate_structure(view, n, &cand, ctx, |re| {
            (re.gain, re.freed.len(), re.level)
        });
        if gain == i32::MIN {
            continue; // the structure is the node itself
        }
        let added = (saved as i32 - gain) as u32;
        let gain_ok = gain > 0 || (ctx.use_zeros && gain >= 0);
        let level_ok = !ctx.preserve_level || level <= view.level(n);
        if !(gain_ok && level_ok) {
            continue;
        }
        // Strictly better under (gain, -added, -level): ties keep the
        // earlier structure.
        let key = (gain, std::cmp::Reverse(added), std::cmp::Reverse(level));
        if best.is_none_or(|(g, a, l, _)| key > (g, std::cmp::Reverse(a), std::cmp::Reverse(l))) {
            best = Some((gain, added, level, struct_idx));
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
            evaluate_node(view, n, cuts, &ctx).map(|c| (c.leaves().to_vec(), c.struct_idx, c.gain));
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
    let shared = ConcurrentAig::from_aig(aig, 0, 1).unwrap();
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

/// Evaluation scratch (the probe memo, the MFFC lists) is per thread and
/// reused from node to node, so nothing may carry over between nodes. On
/// one thread: evaluate node A, node B, then A again; change the graph so
/// that A's answer changes; evaluate B and A once more. Every answer for A
/// must be the one a thread that evaluates A first gives.
#[test]
fn reused_scratch_keeps_no_state_between_nodes() {
    let cfg = RewriteConfig {
        num_classes: 222,
        preserve_level: false,
        ..RewriteConfig::rewrite_op()
    };
    let ctx = EvalContext::new(&cfg);
    let evaluate = |aig: &Aig, n: NodeId| {
        let store = CutStore::new(aig.slot_count(), cfg.cut_config());
        evaluate_node(aig, n, store.cuts(aig, n), &ctx)
    };
    let on_a_fresh_thread =
        |aig: &Aig, n: NodeId| std::thread::scope(|s| s.spawn(|| evaluate(aig, n)).join().unwrap());

    // Two disjoint wasteful majorities: a mux over an OR and an AND of the
    // other two inputs, five gates where four suffice.
    let mut aig = Aig::new();
    let ins: Vec<_> = (0..6).map(|_| aig.add_input()).collect();
    let majority = |aig: &mut Aig, a, b, c| {
        let or = aig.add_or(b, c);
        let and = aig.add_and(b, c);
        let m = aig.add_mux(a, or, and);
        aig.add_output(m);
        m.node()
    };
    let node_a = majority(&mut aig, ins[0], ins[1], ins[2]);
    let node_b = majority(&mut aig, ins[3], ins[4], ins[5]);

    let first = evaluate(&aig, node_a);
    assert!(first.is_some(), "A must be improvable");
    assert_eq!(first, on_a_fresh_thread(&aig, node_a));
    assert_eq!(evaluate(&aig, node_b), on_a_fresh_thread(&aig, node_b));
    assert_eq!(evaluate(&aig, node_a), first);

    // The ANDs and ORs of A's select input with each other input, as
    // outputs: A's cone is unchanged, but its structures now find existing
    // gates to share.
    for (x, y) in [(0, 1), (0, 2)] {
        let and = aig.add_and(ins[x], ins[y]);
        let or = aig.add_or(ins[x], ins[y]);
        aig.add_output(and);
        aig.add_output(or);
    }
    let fresh = on_a_fresh_thread(&aig, node_a);
    assert_ne!(fresh, first, "the change must alter A's answer");
    assert_eq!(evaluate(&aig, node_b), on_a_fresh_thread(&aig, node_b));
    assert_eq!(evaluate(&aig, node_a), fresh);
}
