//! Bottom-up k-feasible cut enumeration.

use dacpara_aig::{AigRead, NodeId, NodeKind};
use dacpara_npn::Tt4;

use crate::{Cut, MAX_LEAVES};

/// Parameters of cut enumeration.
#[derive(Copy, Clone, Debug)]
pub struct CutConfig {
    /// Maximum number of cuts kept per node (`0` = unlimited). The paper's
    /// P1 configuration keeps 8 cuts per node, P2 keeps all of them.
    pub max_cuts: usize,
}

impl CutConfig {
    /// Unlimited cuts per node (the paper's P2 / ICCAD'18 configuration).
    pub fn unlimited() -> CutConfig {
        CutConfig { max_cuts: 0 }
    }

    /// Keep at most `n` cuts per node (the paper's P1 keeps 8).
    pub fn limited(n: usize) -> CutConfig {
        CutConfig { max_cuts: n }
    }
}

impl Default for CutConfig {
    fn default() -> Self {
        CutConfig::unlimited()
    }
}

/// Computes the cut set of a leaf-like node (input or constant): its one
/// cut.
pub fn leaf_cuts<V: AigRead + ?Sized>(view: &V, n: NodeId) -> [Cut; 1] {
    match view.kind(n) {
        NodeKind::Const0 => [Cut::constant()],
        NodeKind::Input => [Cut::trivial(n)],
        k => unreachable!("leaf_cuts on {k:?} node"),
    }
}

/// Enumerates the cuts of AND node `n` into `out` (cleared first) by
/// merging the cut sets of its two fanins, filtering dominated cuts, and
/// prepending the trivial cut.
///
/// `out` is scratch that a caller reuses across nodes: its capacity grows
/// to the largest merge seen and stays, so the set to keep is copied out
/// (`CutStore` copies it into its arena).
///
/// The truth tables track fanin complementation, so every returned cut's
/// table is the function of `n` over the cut leaves.
pub fn and_cuts<V: AigRead + ?Sized>(
    view: &V,
    n: NodeId,
    cuts_a: &[Cut],
    cuts_b: &[Cut],
    cfg: &CutConfig,
    out: &mut Vec<Cut>,
) {
    // A node observed as `And` may concurrently become `Free` on the
    // concurrent view (a racing replacement deleted it after the caller's
    // kind check); the cuts built from its stale fanins are rejected by
    // commit-time revalidation, so only genuinely wrong callers (inputs,
    // constants) are a bug.
    debug_assert!(
        matches!(view.kind(n), NodeKind::And | NodeKind::Free),
        "and_cuts on a {:?} node",
        view.kind(n)
    );
    let [fa, fb] = view.fanins(n);
    out.clear();
    out.push(Cut::trivial(n));
    for ca in cuts_a {
        let sign_a = ca.sign();
        for cb in cuts_b {
            // Every leaf sets one signature bit (leaves equal modulo 64
            // share it), so a union with more than four bits set has more
            // than four leaves: the merge would fail.
            if (sign_a | cb.sign()).count_ones() as usize > MAX_LEAVES {
                continue;
            }
            let Some((leaves, k)) = ca.merge_leaves(cb) else {
                continue;
            };
            let merged = &leaves[..k];
            // Dominance depends on the leaves alone, so a dominated merge is
            // dropped before its truth table is computed.
            if !push_filtered(out, Cut::new(merged, Tt4::FALSE)) {
                continue;
            }
            let ta = ca.expand_tt(merged);
            let tb = cb.expand_tt(merged);
            let ta = if fa.is_complement() { !ta } else { ta };
            let tb = if fb.is_complement() { !tb } else { tb };
            out.last_mut()
                .expect("the merge was just pushed")
                .set_tt(ta & tb);
        }
    }
    // Sort by leaf count (smaller cuts first — they are cheaper to match and
    // dominate larger ones), then truncate to the configured budget.
    out[1..].sort_by_key(|c| (c.len(), c.leaves().first().map(|l| l.raw()).unwrap_or(0)));
    if cfg.max_cuts > 0 && out.len() > cfg.max_cuts {
        out.truncate(cfg.max_cuts.max(1));
    }
}

/// Appends `cut` unless dominated, after removing the cuts it dominates;
/// returns whether it was appended.
///
/// `out[1..]` is an antichain under dominance (every insertion keeps it
/// one), so a dominated `cut` cannot also dominate an earlier entry: a
/// rejection never leaves a removal behind.
fn push_filtered(out: &mut Vec<Cut>, cut: Cut) -> bool {
    // Slot 0 is the trivial cut, which never participates in dominance.
    // Each signature is computed once per comparison; `dominates` runs
    // only where the signatures allow it.
    let sign = cut.sign();
    let mut i = 1;
    while i < out.len() {
        let other = out[i].sign();
        if other & !sign == 0 && out[i].dominates(&cut) {
            return false;
        }
        if sign & !other == 0 && cut.dominates(&out[i]) {
            out.swap_remove(i);
        } else {
            i += 1;
        }
    }
    out.push(cut);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use dacpara_aig::Aig;

    /// [`and_cuts`] into a fresh vector.
    fn and_cuts_exact<V: AigRead + ?Sized>(
        view: &V,
        n: NodeId,
        cuts_a: &[Cut],
        cuts_b: &[Cut],
        cfg: &CutConfig,
    ) -> Vec<Cut> {
        let mut out = Vec::new();
        and_cuts(view, n, cuts_a, cuts_b, cfg, &mut out);
        out
    }

    /// Recompute the function of `root` over up-to-4 inputs by exhaustive
    /// evaluation, for cross-checking cut truth tables.
    fn node_tt_over_inputs(aig: &Aig, root: NodeId) -> Tt4 {
        let inputs = aig.inputs();
        assert!(inputs.len() <= 4);
        let mut values = vec![Tt4::FALSE; aig.slot_count()];
        for (k, &i) in inputs.iter().enumerate() {
            values[i.index()] = Tt4::var(k);
        }
        for n in dacpara_aig::topo_ands(aig) {
            let [a, b] = aig.fanins(n);
            let va = if a.is_complement() {
                !values[a.node().index()]
            } else {
                values[a.node().index()]
            };
            let vb = if b.is_complement() {
                !values[b.node().index()]
            } else {
                values[b.node().index()]
            };
            values[n.index()] = va & vb;
        }
        values[root.index()]
    }

    #[test]
    fn cut_tts_match_simulation() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let c = aig.add_input();
        let d = aig.add_input();
        let x = aig.add_xor(a, b);
        let m = aig.add_mux(c, x, d);
        aig.add_output(m);
        let cfg = CutConfig::unlimited();

        // Enumerate bottom-up over all ANDs.
        let mut sets: Vec<Option<Vec<Cut>>> = vec![None; aig.slot_count()];
        sets[0] = Some(leaf_cuts(&aig, NodeId::CONST0).to_vec());
        for &i in aig.inputs() {
            sets[i.index()] = Some(leaf_cuts(&aig, i).to_vec());
        }
        for n in dacpara_aig::topo_ands(&aig) {
            let [fa, fb] = aig.fanins(n);
            let ca = sets[fa.node().index()].clone().unwrap();
            let cb = sets[fb.node().index()].clone().unwrap();
            sets[n.index()] = Some(and_cuts_exact(&aig, n, &ca, &cb, &cfg));
        }

        // For the output node, any cut whose leaves are all PIs must match
        // the simulated function modulo leaf-to-input renaming.
        let root = m.node();
        let pi_pos = |l: NodeId| aig.inputs().iter().position(|&i| i == l);
        for cut in sets[root.index()].as_deref().unwrap() {
            let Some(positions): Option<Vec<usize>> =
                cut.leaves().iter().map(|&l| pi_pos(l)).collect()
            else {
                continue; // internal leaves: checked via composition elsewhere
            };
            let mut expect = node_tt_over_inputs(&aig, root);
            // Rename: cut variable i corresponds to input positions[i].
            // Build the cut function over inputs and compare.
            let mut got = 0u16;
            for minterm in 0..16u16 {
                let mut leafm = 0u16;
                for (i, &p) in positions.iter().enumerate() {
                    leafm |= (minterm >> p & 1) << i;
                }
                if cut.tt().raw() >> leafm & 1 != 0 {
                    got |= 1 << minterm;
                }
            }
            // The cut function may not depend on inputs outside the cut cone;
            // mask both to the support of the expectation.
            expect = Tt4::from_raw(expect.raw());
            assert_eq!(Tt4::from_raw(got), expect, "cut {:?}", cut.leaves());
        }
    }

    #[test]
    fn trivial_cut_always_present() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let ab = aig.add_and(a, b);
        aig.add_output(ab);
        let cfg = CutConfig::unlimited();
        let ca = leaf_cuts(&aig, a.node());
        let cb = leaf_cuts(&aig, b.node());
        let cuts = and_cuts_exact(&aig, ab.node(), &ca, &cb, &cfg);
        assert!(cuts[0].is_trivial());
        assert_eq!(cuts[0].leaves()[0], ab.node());
        assert_eq!(cuts.len(), 2);
        assert_eq!(cuts[1].leaves(), [a.node(), b.node()]);
        assert_eq!(cuts[1].tt(), Tt4::var(0) & Tt4::var(1));
    }

    #[test]
    fn and_cuts_tolerates_a_concurrently_freed_node() {
        // A speculative worker can observe a node as `And`, lose the race to
        // a neighbor whose commit deletes it, and still reach `and_cuts` on
        // the now-free slot; the stale cut set it builds is rejected by
        // commit-time revalidation, so the call must not assert.
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let _ab = aig.add_and(a, b);
        let shared = dacpara_aig::concurrent::ConcurrentAig::from_aig(&aig, 0, 1).unwrap();
        let and_node = (0..shared.capacity())
            .map(|i| NodeId::new(i as u32))
            .find(|&n| shared.kind(n) == NodeKind::And)
            .expect("the AND survived the renumbering");
        let [fa, fb] = shared.fanins(and_node);
        let cfg = CutConfig::unlimited();
        let ca = leaf_cuts(&shared, fa.node());
        let cb = leaf_cuts(&shared, fb.node());
        shared.delete_cone(and_node);
        assert_eq!(shared.kind(and_node), NodeKind::Free);
        let cuts = and_cuts_exact(&shared, and_node, &ca, &cb, &cfg);
        assert!(cuts[0].is_trivial(), "even a raced set keeps its shape");
    }

    #[test]
    fn complemented_fanins_flip_tables() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let nor = aig.add_and(!a, !b);
        aig.add_output(nor);
        let cfg = CutConfig::unlimited();
        let ca = leaf_cuts(&aig, a.node());
        let cb = leaf_cuts(&aig, b.node());
        let cuts = and_cuts_exact(&aig, nor.node(), &ca, &cb, &cfg);
        let full = cuts.iter().find(|c| c.len() == 2).unwrap();
        assert_eq!(full.tt(), !Tt4::var(0) & !Tt4::var(1));
    }

    #[test]
    fn limit_one_keeps_only_the_trivial_cut() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let ab = aig.add_and(a, b);
        aig.add_output(ab);
        let cfg = CutConfig::limited(1);
        let ca = leaf_cuts(&aig, a.node());
        let cb = leaf_cuts(&aig, b.node());
        let cuts = and_cuts_exact(&aig, ab.node(), &ca, &cb, &cfg);
        assert_eq!(cuts.len(), 1);
        assert!(cuts[0].is_trivial());
    }

    #[test]
    fn dominated_cuts_are_dropped() {
        // Diamond: n = AND(x, y) with x = AND(a, b), y = AND(a, !b)
        // {x, y} dominates {x, a, !b-side leaves} etc.; specifically the
        // enumeration must never return two cuts where one's leaf set is a
        // subset of the other's.
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let c = aig.add_input();
        let x = aig.add_and(a, b);
        let y = aig.add_and(a, c);
        let n = aig.add_and(x, y);
        aig.add_output(n);
        let cfg = CutConfig::unlimited();
        let store = crate::CutStore::new(aig.slot_count(), cfg);
        let cuts = store.cuts(&aig, n.node());
        for (i, ci) in cuts.iter().enumerate() {
            for (j, cj) in cuts.iter().enumerate() {
                if i != j && !ci.is_trivial() && !cj.is_trivial() {
                    assert!(
                        !ci.dominates(cj),
                        "{:?} dominates {:?}",
                        ci.leaves(),
                        cj.leaves()
                    );
                }
            }
        }
        // The reconvergent cut {a, b, c} must be found.
        assert!(cuts
            .iter()
            .any(|cut| cut.leaves() == [a.node(), b.node(), c.node()]));
    }

    #[test]
    fn max_cuts_budget_is_respected() {
        let mut aig = Aig::new();
        let ins: Vec<_> = (0..6).map(|_| aig.add_input()).collect();
        let mut acc = ins[0];
        for &i in &ins[1..] {
            acc = aig.add_and(acc, i);
        }
        aig.add_output(acc);
        let cfg = CutConfig::limited(3);
        let mut sets: Vec<Option<Vec<Cut>>> = vec![None; aig.slot_count()];
        sets[0] = Some(leaf_cuts(&aig, NodeId::CONST0).to_vec());
        for &i in aig.inputs() {
            sets[i.index()] = Some(leaf_cuts(&aig, i).to_vec());
        }
        for n in dacpara_aig::topo_ands(&aig) {
            let [fa, fb] = aig.fanins(n);
            let ca = sets[fa.node().index()].clone().unwrap();
            let cb = sets[fb.node().index()].clone().unwrap();
            let cuts = and_cuts_exact(&aig, n, &ca, &cb, &cfg);
            assert!(cuts.len() <= 3);
            sets[n.index()] = Some(cuts);
        }
    }
}
