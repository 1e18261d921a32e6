use crate::{Lit, NodeId, NodeKind};

/// Read-only view of an AIG, implemented by both [`crate::Aig`] and
/// [`crate::concurrent::ConcurrentAig`].
///
/// Cut enumeration, MFFC computation and rewriting evaluation are written
/// against this trait once and reused by the serial and parallel engines.
/// On the concurrent implementation every method is a lock-free snapshot
/// read; callers that need consistency across several reads must either hold
/// the Galois-style node locks or re-validate with [`AigRead::generation`].
pub trait AigRead: Sync {
    /// Number of node slots (live or free); node indices are `< slot_count`.
    fn slot_count(&self) -> usize;

    /// Kind of the slot (Free for recycled/deleted slots).
    fn kind(&self, n: NodeId) -> NodeKind;

    /// Fanin literals of an AND node.
    ///
    /// # Panics
    ///
    /// May panic (or return stale data on the concurrent variant) if `n` is
    /// not a live AND node.
    fn fanins(&self, n: NodeId) -> [Lit; 2];

    /// Reference count: fanout ANDs plus primary-output edges.
    fn refs(&self, n: NodeId) -> u32;

    /// Generation stamp of the slot; changes whenever the slot is recycled
    /// or the node's fanins are rewritten.
    fn generation(&self, n: NodeId) -> u32;

    /// Logic depth of the node. May be stale on the concurrent variant while
    /// a rewriting pass is running; passes recompute levels when they finish.
    fn level(&self, n: NodeId) -> u32;

    /// Structural-hash lookup: the live AND node with exactly the fanin pair
    /// `(f0, f1)` (order-insensitive), if one exists.
    ///
    /// On [`crate::Aig`] this is a global hash-table probe; on the concurrent
    /// variant it is the decentralized fanout-scan lookup from the ICCAD'18
    /// scheme (scan the fanout list of one fanin).
    fn find_and(&self, f0: Lit, f1: Lit) -> Option<NodeId>;

    /// Primary inputs in creation order.
    fn input_ids(&self) -> Vec<NodeId>;

    /// Snapshot of the primary output literals.
    fn output_lits(&self) -> Vec<Lit>;

    /// Number of live AND nodes ("area" in the paper's tables).
    fn num_ands(&self) -> usize;

    /// Whether the slot currently holds a live node.
    #[inline]
    fn is_alive(&self, n: NodeId) -> bool {
        self.kind(n).is_alive()
    }

    /// Whether the node is a live AND gate.
    #[inline]
    fn is_and(&self, n: NodeId) -> bool {
        self.kind(n) == NodeKind::And
    }

    /// Calls `visit` once per fanout AND gate of `n` (once per fanin edge:
    /// a gate that reads `n` twice is visited twice), without allocating.
    ///
    /// On the concurrent variant the list's read lock is held while
    /// `visit` runs, so `visit` must not write the graph.
    fn for_each_fanout(&self, n: NodeId, visit: &mut dyn FnMut(NodeId));

    /// Maximum level over the primary outputs ("delay" in the paper's
    /// tables). Implementations may recompute this from scratch.
    fn depth(&self) -> u32 {
        self.output_lits()
            .iter()
            .map(|l| self.level(l.node()))
            .max()
            .unwrap_or(0)
    }
}
