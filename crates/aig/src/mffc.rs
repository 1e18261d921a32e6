//! Maximum fanout-free cone (MFFC) computation via simulated dereferencing.
//!
//! The rewriting evaluation stage must know how many nodes disappear when a
//! root is replaced, *without mutating the shared graph* (the paper's
//! lock-free parallel evaluation creates thread-local copies of the MFFC
//! bookkeeping; see §4.3). [`simulate_deref`] runs the classic
//! deref/recursive-count on a local scratch list of reference counts,
//! leaving the graph untouched and therefore safe to call concurrently.

use crate::{AigRead, NodeId, NodeKind};

/// Result of a simulated dereference of a cone.
///
/// A `ConeDeref` is also reusable scratch: [`ConeDeref::simulate`] recomputes
/// it in place, keeping the capacity of its lists, so an evaluation loop
/// that keeps one per thread allocates nothing per cone.
#[derive(Debug, Clone, Default)]
pub struct ConeDeref {
    /// Nodes whose (simulated) reference count dropped to zero — the nodes
    /// that would be deleted if the root were replaced. Always contains the
    /// root itself first.
    pub freed: Vec<NodeId>,
    /// Simulated reference counts of the touched nodes.
    local: Vec<(NodeId, u32)>,
    /// Freed nodes whose fanins are still to be dereferenced.
    stack: Vec<NodeId>,
}

impl ConeDeref {
    /// An empty result, for use as scratch.
    pub const fn new() -> ConeDeref {
        ConeDeref {
            freed: Vec::new(),
            local: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Number of AND nodes that would be removed ("nodes saved").
    pub fn saved(&self) -> usize {
        self.freed.len()
    }

    /// Whether `n` is among the would-be-deleted nodes.
    pub fn contains(&self, n: NodeId) -> bool {
        self.freed.contains(&n)
    }

    /// Recomputes `self` as [`simulate_deref`]`(view, root, is_leaf)`,
    /// reusing its allocations.
    pub fn simulate<V, F>(&mut self, view: &V, root: NodeId, is_leaf: F)
    where
        V: AigRead + ?Sized,
        F: Fn(NodeId) -> bool,
    {
        debug_assert_eq!(view.kind(root), NodeKind::And);
        let ConeDeref {
            freed,
            local,
            stack,
        } = self;
        local.clear();
        freed.clear();
        freed.push(root);
        stack.clear();
        stack.push(root);
        while let Some(n) = stack.pop() {
            for l in view.fanins(n) {
                let v = l.node();
                if view.kind(v) != NodeKind::And || is_leaf(v) {
                    continue;
                }
                let i = local.iter().position(|&(x, _)| x == v).unwrap_or_else(|| {
                    local.push((v, view.refs(v)));
                    local.len() - 1
                });
                let r = &mut local[i].1;
                debug_assert!(*r > 0, "cone node with zero refs");
                *r -= 1;
                if *r == 0 {
                    freed.push(v);
                    stack.push(v);
                }
            }
        }
    }
}

/// Simulates removing `root` and recursively dereferencing its fanin cone,
/// stopping at nodes for which `is_leaf` returns true (and at non-AND
/// nodes). Returns the set of nodes that would become dangling.
///
/// The underlying graph is not modified; reference counts are copied into a
/// scratch list on first touch. The list is scanned linearly: a cone touches
/// its MFFC plus the MFFC's boundary, a handful of nodes under a 4-input
/// cut, where a scan is cheaper than hashing.
///
/// # Example
///
/// ```
/// use dacpara_aig::{Aig, mffc::simulate_deref};
///
/// let mut aig = Aig::new();
/// let a = aig.add_input();
/// let b = aig.add_input();
/// let c = aig.add_input();
/// let ab = aig.add_and(a, b);
/// let abc = aig.add_and(ab, c);
/// aig.add_output(abc);
/// // Removing `abc` also frees `ab`, whose only fanout it is.
/// let cone = simulate_deref(&aig, abc.node(), |_| false);
/// assert_eq!(cone.saved(), 2);
/// ```
pub fn simulate_deref<V, F>(view: &V, root: NodeId, is_leaf: F) -> ConeDeref
where
    V: AigRead + ?Sized,
    F: Fn(NodeId) -> bool,
{
    let mut cone = ConeDeref::new();
    cone.simulate(view, root, is_leaf);
    cone
}

/// The classic MFFC of `root` (boundary at primary inputs/constants only).
pub fn mffc<V: AigRead + ?Sized>(view: &V, root: NodeId) -> ConeDeref {
    simulate_deref(view, root, |_| false)
}

/// MFFC of `root` bounded by an explicit cut (`leaves`).
pub fn mffc_with_cut<V: AigRead + ?Sized>(view: &V, root: NodeId, leaves: &[NodeId]) -> ConeDeref {
    simulate_deref(view, root, |n| leaves.contains(&n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Aig;

    #[test]
    fn shared_node_not_in_mffc() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let c = aig.add_input();
        let ab = aig.add_and(a, b);
        let abc = aig.add_and(ab, c);
        let other = aig.add_and(ab, !c); // shares `ab`
        aig.add_output(abc);
        aig.add_output(other);
        let cone = mffc(&aig, abc.node());
        assert_eq!(cone.saved(), 1); // `ab` survives via `other`
        assert!(cone.contains(abc.node()));
        assert!(!cone.contains(ab.node()));
    }

    #[test]
    fn cut_boundary_stops_deref() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let c = aig.add_input();
        let ab = aig.add_and(a, b);
        let abc = aig.add_and(ab, c);
        aig.add_output(abc);
        let full = mffc(&aig, abc.node());
        assert_eq!(full.saved(), 2);
        let bounded = mffc_with_cut(&aig, abc.node(), &[ab.node(), c.node()]);
        assert_eq!(bounded.saved(), 1);
    }

    #[test]
    fn reused_scratch_matches_a_fresh_cone() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let c = aig.add_input();
        let ab = aig.add_and(a, b);
        let abc = aig.add_and(ab, c);
        let other = aig.add_and(ab, !c);
        aig.add_output(abc);
        aig.add_output(other);
        let mut cone = ConeDeref::new();
        for root in [abc, other, abc] {
            for leaves in [&[][..], &[ab.node(), c.node()][..]] {
                cone.simulate(&aig, root.node(), |n| leaves.contains(&n));
                let fresh = mffc_with_cut(&aig, root.node(), leaves);
                assert_eq!(cone.freed, fresh.freed);
            }
        }
    }

    #[test]
    fn graph_is_unchanged() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let ab = aig.add_and(a, b);
        aig.add_output(ab);
        let refs_before: Vec<u32> = (0..aig.slot_count() as u32)
            .map(|i| crate::AigRead::refs(&aig, crate::NodeId::new(i)))
            .collect();
        let _ = mffc(&aig, ab.node());
        let refs_after: Vec<u32> = (0..aig.slot_count() as u32)
            .map(|i| crate::AigRead::refs(&aig, crate::NodeId::new(i)))
            .collect();
        assert_eq!(refs_before, refs_after);
    }
}
