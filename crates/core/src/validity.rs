//! Stored-cut validity checking (§4.4 of the paper).
//!
//! Between evaluation and replacement the graph keeps changing, so a stored
//! cut may be stale: its leaves may have been deleted, or — the subtle case
//! of the paper's Fig. 3 — deleted *and their slots recycled* by new nodes
//! with different functions. The replacement stage therefore re-derives,
//! under locks, everything it is about to rely on:
//!
//! * [`cut_cover`] — the nodes between the root and the claimed leaves;
//!   fails if the leaf set no longer cuts the root off from the inputs,
//! * [`cut_tt`] — the root's function over the leaves, recomputed from the
//!   live graph rather than trusted from the store.
//!
//! One nuance worth knowing: the truth table carried by cut *enumeration*
//! is composed bottom-up from child cuts, while [`cut_tt`] evaluates the
//! cover directly. When the cut's leaves are logically correlated (one
//! leaf's cone feeds another leaf), the two tables may differ on
//! *unreachable* leaf assignments — satisfiability don't-cares. Both are
//! sound bases for replacement (a replacement is only ever exercised at
//! reachable leaf values), so a table mismatch here routes the stored
//! result through the NPN-class acceptance test rather than rejecting it
//! outright, exactly as §4.4 prescribes.

use dacpara_aig::{AigRead, NodeId, NodeKind};
use dacpara_npn::Tt4;

/// Upper bound on the cover size explored before concluding "not a cut".
/// Genuine 4-input-cut covers are tiny; a huge exploration means the stored
/// leaf set no longer bounds the cone.
const MAX_COVER: usize = 128;

/// Computes the cover of the cut `(n, leaves)`: every node on a path from a
/// leaf to `n`, including `n`, excluding the leaves, in topological order.
///
/// Returns `None` when the leaf set is not (or no longer) a cut of `n` —
/// some path from `n` reaches an input, constant or dead slot without
/// passing a leaf — or when the exploration exceeds an internal bound.
pub fn cut_cover<V: AigRead + ?Sized>(
    view: &V,
    n: NodeId,
    leaves: &[NodeId],
) -> Option<Vec<NodeId>> {
    if leaves.contains(&n) {
        return Some(Vec::new()); // trivial cut: empty cover
    }
    let mut order = Vec::new();
    let mut seen: Vec<NodeId> = Vec::new();
    let mut stack: Vec<(NodeId, bool)> = vec![(n, false)];
    while let Some((x, done)) = stack.pop() {
        if done {
            order.push(x);
            continue;
        }
        if leaves.contains(&x) || seen.contains(&x) {
            continue;
        }
        if view.kind(x) != NodeKind::And {
            return None; // escaped the cone: not a cut
        }
        seen.push(x);
        if seen.len() > MAX_COVER {
            return None;
        }
        stack.push((x, true));
        let [a, b] = view.fanins(x);
        stack.push((a.node(), false));
        stack.push((b.node(), false));
    }
    Some(order)
}

/// Recomputes the function of `n` over `leaves` by evaluating the cover.
///
/// `cover` must come from [`cut_cover`] for the same `(n, leaves)`.
///
/// # Panics
///
/// Panics in debug builds if the cover is inconsistent with the graph.
pub fn cut_tt<V: AigRead + ?Sized>(
    view: &V,
    n: NodeId,
    leaves: &[NodeId],
    cover: &[NodeId],
) -> Tt4 {
    let value_of = |x: NodeId, values: &[(NodeId, Tt4)]| -> Tt4 {
        if let Some(pos) = leaves.iter().position(|&l| l == x) {
            return Tt4::var(pos);
        }
        if x == NodeId::CONST0 {
            return Tt4::FALSE;
        }
        values
            .iter()
            .rev()
            .find(|(id, _)| *id == x)
            .map(|(_, t)| *t)
            .expect("cover must close the cone")
    };
    if let Some(pos) = leaves.iter().position(|&l| l == n) {
        return Tt4::var(pos);
    }
    let mut values: Vec<(NodeId, Tt4)> = Vec::with_capacity(cover.len());
    for &x in cover {
        let [a, b] = view.fanins(x);
        let ta = value_of(a.node(), &values);
        let ta = if a.is_complement() { !ta } else { ta };
        let tb = value_of(b.node(), &values);
        let tb = if b.is_complement() { !tb } else { tb };
        values.push((x, ta & tb));
    }
    value_of(n, &values)
}

/// One-call verification: the cover if `leaves` still cut `n`, plus the
/// freshly recomputed truth table.
///
/// A dead leaf fails the check even when the cone no longer reaches it: a
/// replacement built on the cut could reuse the leaf's slot for one of its
/// own gates, which the commit certificate would then read as a cut
/// variable.
pub fn verify_cut<V: AigRead + ?Sized>(
    view: &V,
    n: NodeId,
    leaves: &[NodeId],
) -> Option<(Vec<NodeId>, Tt4)> {
    if !leaves.iter().all(|&l| view.is_alive(l)) {
        return None;
    }
    let cover = cut_cover(view, n, leaves)?;
    let tt = cut_tt(view, n, leaves, &cover);
    Some((cover, tt))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dacpara_aig::{Aig, Lit};

    fn mux_cone() -> (Aig, NodeId, Vec<NodeId>) {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let c = aig.add_input();
        let m = aig.add_mux(a, b, c);
        aig.add_output(m);
        let leaves = vec![a.node(), b.node(), c.node()];
        (aig, m.node(), leaves)
    }

    #[test]
    fn cover_and_tt_of_a_mux() {
        let (aig, root, leaves) = mux_cone();
        let (cover, tt) = verify_cut(&aig, root, &leaves).expect("valid cut");
        assert_eq!(cover.len(), 3);
        assert!(cover.contains(&root));
        // Cut functions are *node* functions; `add_mux` returns a
        // complemented literal (the OR is built via De Morgan), so the node
        // at `root` computes the complement of the mux.
        let mux = (Tt4::var(0) & Tt4::var(1)) | (!Tt4::var(0) & Tt4::var(2));
        assert_eq!(tt, !mux);
    }

    #[test]
    fn non_cut_is_rejected() {
        let (aig, root, leaves) = mux_cone();
        // Dropping one leaf exposes a path to an input: not a cut anymore.
        assert!(verify_cut(&aig, root, &leaves[..2]).is_none());
    }

    #[test]
    fn trivial_cut_has_empty_cover() {
        let (aig, root, _) = mux_cone();
        let (cover, tt) = verify_cut(&aig, root, &[root]).unwrap();
        assert!(cover.is_empty());
        assert_eq!(tt, Tt4::var(0));
    }

    #[test]
    fn detects_function_change_after_rewrite() {
        // The Fig. 3 scenario: a stored cut whose leaf slot is recycled by a
        // node with a different function must yield a different tt (or stop
        // being a cut), so the class check catches it.
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let c = aig.add_input();
        let ab = aig.add_and(a, b);
        let top = aig.add_and(ab, c);
        aig.add_output(top);
        let leaves = vec![ab.node(), c.node()];
        let (_, tt_before) = verify_cut(&aig, top.node(), &leaves).unwrap();
        assert_eq!(tt_before, Tt4::var(0) & Tt4::var(1));
        // Rewrite ab -> OR(a, b): the slot of `ab` is deleted... but `top`
        // still references it, so replace() re-points top. We instead mimic
        // ID reuse: delete a *different* dangling node and let a new node
        // take `ab`'s slot.
        let or = aig.add_or(a, b);
        aig.replace(ab.node(), or);
        // The old leaf id may now be dead or recycled; verification must not
        // silently return the stale function.
        match verify_cut(&aig, top.node(), &leaves) {
            None => {} // no longer a cut: correctly rejected
            Some((_, tt_after)) => assert_ne!(tt_after, tt_before),
        }
    }

    #[test]
    fn dead_leaf_fails_even_when_unreached() {
        // `top` no longer reaches the dangling `ac`, so the leaf set still
        // cuts it; once `ac` is swept, its slot is free for the next gate
        // and the cut must be refused.
        let (mut aig, root, mut leaves) = mux_cone();
        let (a, c) = (leaves[0].lit(), leaves[2].lit());
        let ac = aig.add_and(a, c);
        leaves.push(ac.node());
        assert!(verify_cut(&aig, root, &leaves).is_some());
        aig.cleanup();
        assert!(!aig.is_alive(ac.node()));
        assert!(verify_cut(&aig, root, &leaves).is_none());
    }

    #[test]
    fn cover_bound_rejects_runaway_exploration() {
        // A long chain whose "leaves" are near the bottom but missing one
        // input: exploration terminates with None, not a hang.
        let mut aig = Aig::new();
        let mut acc = aig.add_input();
        for _ in 0..200 {
            let x = aig.add_input();
            acc = aig.add_and(acc, x);
        }
        aig.add_output(acc);
        assert!(cut_cover(&aig, acc.node(), &[]).is_none());
    }

    #[test]
    fn tt_handles_complemented_edges() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let nor = aig.add_and(!a, !b);
        aig.add_output(nor);
        let leaves = vec![a.node(), b.node()];
        let (_, tt) = verify_cut(&aig, nor.node(), &leaves).unwrap();
        assert_eq!(tt, !Tt4::var(0) & !Tt4::var(1));
        let _ = Lit::TRUE;
    }
}
