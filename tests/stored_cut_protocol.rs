//! Integration: the §4.4 stored-cut validity protocol, driven end to end
//! through the public API — the executable version of the paper's Fig. 3.

use dacpara::validity::{cut_cover, verify_cut};
use dacpara::{build_replacement, evaluate_node, reevaluate_structure, EvalContext, RewriteConfig};
use dacpara_aig::{Aig, AigRead};
use dacpara_cut::{CutConfig, CutStore};
use dacpara_npn::ClassRegistry;
use dacpara_nst::NpnLibrary;

fn ctx() -> EvalContext {
    EvalContext::new(&RewriteConfig {
        num_classes: 222,
        use_zeros: true,
        preserve_level: false,
        ..RewriteConfig::rewrite_op()
    })
}

/// A consumer above a rewritable cone; returns (aig, consumer node, cone root).
fn scene() -> (Aig, dacpara_aig::NodeId, dacpara_aig::NodeId) {
    let mut aig = Aig::new();
    let a = aig.add_input();
    let b = aig.add_input();
    let c = aig.add_input();
    let d = aig.add_input();
    let or = aig.add_or(b, c);
    let an = aig.add_and(b, c);
    let root = aig.add_mux(a, or, an);
    let n2 = aig.add_and(root, d);
    aig.add_output(n2);
    (aig, n2.node(), root.node())
}

#[test]
fn fresh_leaves_keep_stored_results_valid() {
    let (aig, n2, _) = scene();
    let store = CutStore::new(aig.slot_count() * 2, CutConfig::unlimited());
    let cuts = store.cuts(&aig, n2);
    let stored = evaluate_node(&aig, n2, cuts, &ctx()).expect("candidate stored");
    // Nothing changed: every leaf generation matches, the cut re-verifies
    // to the same function, and re-evaluation reproduces the gain.
    for (&l, &g) in stored.leaves().iter().zip(stored.leaf_gens()) {
        assert!(aig.is_alive(l));
        assert_eq!(aig.generation(l), g);
    }
    let (_, tt) = verify_cut(&aig, n2, stored.leaves()).expect("still a cut");
    assert_eq!(tt, stored.tt);
    let gain = reevaluate_structure(&aig, n2, &stored, &ctx(), |re| re.gain);
    assert_eq!(gain, stored.gain);
}

#[test]
fn rewriting_the_cone_invalidates_deep_stored_cuts() {
    let (mut aig, n2, root) = scene();
    let store = CutStore::new(aig.slot_count() * 4, CutConfig::unlimited());

    // Store the deepest candidate for n2 (its cut reaches into the cone).
    let cuts = store.cuts(&aig, n2);
    let deep_cut = cuts
        .iter()
        .filter(|c| c.len() >= 2)
        .max_by_key(|c| c.leaves().iter().map(|l| l.raw()).max().unwrap_or(0))
        .copied()
        .expect("a non-trivial cut");
    let interior: Vec<_> = deep_cut
        .leaves()
        .iter()
        .copied()
        .filter(|l| aig.is_and(*l))
        .collect();
    let stored_gens: Vec<u32> = deep_cut
        .leaves()
        .iter()
        .map(|&l| aig.generation(l))
        .collect();

    // Rewrite the cone below: the 5-gate mux-majority becomes 4 gates.
    let root_cuts = store.cuts(&aig, root);
    let cand = evaluate_node(&aig, root, root_cuts, &ctx()).expect("cone is improvable");
    assert!(cand.gain > 0);
    let new_root = build_replacement(&mut aig, &cand, NpnLibrary::global()).unwrap();
    aig.replace(root, new_root);
    aig.check().unwrap();

    // If the deep cut had interior (AND-node) leaves, at least one must now
    // be dead or generation-bumped — exactly the staleness the replacement
    // stage must detect.
    if !interior.is_empty() {
        let still_fresh = deep_cut
            .leaves()
            .iter()
            .zip(&stored_gens)
            .all(|(&l, &g)| aig.is_alive(l) && aig.generation(l) == g);
        assert!(
            !still_fresh,
            "rewriting the cone must invalidate cuts into it"
        );
    }

    // The protocol must reach a sound verdict either way: re-verification
    // never silently returns the stale function under a changed class.
    match verify_cut(&aig, n2, deep_cut.leaves()) {
        None => {} // no longer a cut — dropped
        Some((cover, tt)) => {
            // If the leaf set still cuts n2, the recomputed function is the
            // ground truth; comparing its class against the stored class is
            // exactly the paper's acceptance test.
            let reg = ClassRegistry::global();
            let _usable = reg.class_of(tt) == reg.class_of(deep_cut.tt());
            assert!(!cover.is_empty());
        }
    }
}

#[test]
fn cover_stays_inside_the_cone() {
    let (aig, n2, _) = scene();
    let store = CutStore::new(aig.slot_count(), CutConfig::unlimited());
    let cuts = store.cuts(&aig, n2);
    for cut in cuts.iter().filter(|c| c.len() >= 2) {
        let cover = cut_cover(&aig, n2, cut.leaves()).expect("enumerated cuts verify");
        // Every cover node is in the transitive fanin of n2 and is not a leaf.
        let tfi = dacpara_aig::transitive_fanin(&aig, &[n2]);
        for c in &cover {
            assert!(tfi.contains(c));
            assert!(!cut.leaves().contains(c));
        }
        // The root is always in its own cover.
        assert!(cover.contains(&n2));
    }
}
