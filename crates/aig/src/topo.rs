//! Topological traversals over any [`AigRead`] view.

use std::collections::HashSet;

use crate::{AigRead, NodeId, NodeKind};

/// All live AND nodes in topological (fanin-before-fanout) order.
///
/// Dangling nodes (unreachable from the outputs) are included so that a
/// subsequent level recomputation covers every live slot.
pub fn topo_ands<V: AigRead + ?Sized>(view: &V) -> Vec<NodeId> {
    let n = view.slot_count();
    let mut order = Vec::with_capacity(n);
    let mut visited = vec![false; n];
    let mut stack: Vec<(NodeId, bool)> = Vec::new();
    for i in 0..n {
        let root = NodeId::new(i as u32);
        if view.kind(root) != NodeKind::And || visited[i] {
            continue;
        }
        stack.push((root, false));
        while let Some((node, expanded)) = stack.pop() {
            if expanded {
                order.push(node);
                continue;
            }
            if visited[node.index()] {
                continue;
            }
            visited[node.index()] = true;
            stack.push((node, true));
            for l in view.fanins(node) {
                let v = l.node();
                if view.kind(v) == NodeKind::And && !visited[v.index()] {
                    stack.push((v, false));
                }
            }
        }
    }
    order
}

/// Whether `target` lies in the transitive fanin of `source` (inclusive:
/// returns `true` when `source == target`).
pub fn is_in_tfi<V: AigRead + ?Sized>(view: &V, source: NodeId, target: NodeId) -> bool {
    if source == target {
        return true;
    }
    let mut seen = HashSet::new();
    let mut stack = vec![source];
    while let Some(n) = stack.pop() {
        if n == target {
            return true;
        }
        if view.kind(n) != NodeKind::And || !seen.insert(n) {
            continue;
        }
        for l in view.fanins(n) {
            stack.push(l.node());
        }
    }
    false
}

/// The set of nodes in the transitive fanin of `roots` (inclusive of the
/// roots, exclusive of nothing else — constants and inputs are included when
/// reached).
pub fn transitive_fanin<V: AigRead + ?Sized>(view: &V, roots: &[NodeId]) -> HashSet<NodeId> {
    let mut seen: HashSet<NodeId> = HashSet::new();
    let mut stack: Vec<NodeId> = roots.to_vec();
    while let Some(n) = stack.pop() {
        if !seen.insert(n) {
            continue;
        }
        if view.kind(n) == NodeKind::And {
            for l in view.fanins(n) {
                stack.push(l.node());
            }
        }
    }
    seen
}

/// The ids of every node in the transitive fanout of `n` (exclusive of `n`).
pub fn transitive_fanout_ids<V: AigRead + ?Sized>(view: &V, n: NodeId) -> Vec<NodeId> {
    let mut seen: HashSet<NodeId> = HashSet::new();
    let mut out = Vec::new();
    let mut stack = Vec::new();
    view.for_each_fanout(n, &mut |f| stack.push(f));
    while let Some(f) = stack.pop() {
        if !seen.insert(f) {
            continue;
        }
        out.push(f);
        view.for_each_fanout(f, &mut |g| stack.push(g));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Aig;

    #[test]
    fn topo_orders_fanins_first() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let ab = aig.add_and(a, b);
        let top = aig.add_and(ab, a);
        aig.add_output(top);
        let order = topo_ands(&aig);
        let pos = |n: NodeId| order.iter().position(|&x| x == n).unwrap();
        assert!(pos(ab.node()) < pos(top.node()));
        assert_eq!(order.len(), 2);
    }

    #[test]
    fn tfi_detection() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let ab = aig.add_and(a, b);
        let top = aig.add_and(ab, a);
        aig.add_output(top);
        assert!(is_in_tfi(&aig, top.node(), ab.node()));
        assert!(is_in_tfi(&aig, top.node(), a.node()));
        assert!(!is_in_tfi(&aig, ab.node(), top.node()));
        assert!(is_in_tfi(&aig, ab.node(), ab.node()));
    }

    #[test]
    fn fanout_cone() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let ab = aig.add_and(a, b);
        let top = aig.add_and(ab, a);
        aig.add_output(top);
        let tfo = transitive_fanout_ids(&aig, a.node());
        assert!(tfo.contains(&ab.node()));
        assert!(tfo.contains(&top.node()));
        assert_eq!(tfo.len(), 2);
    }
}
