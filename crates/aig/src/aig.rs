use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::node::Node;
use crate::topo::is_in_tfi;
use crate::{AigRead, Lit, NodeId, NodeKind};

/// The structural hash: each live AND's sorted fanin pair to the node.
pub(crate) type Strash = HashMap<(Lit, Lit), NodeId, BuildHasherDefault<PairHasher>>;

/// A multiplicative hash for the strash's literal pairs, in place of the
/// default SipHash: a probe costs a few instructions. Nothing iterates the
/// strash, so its order never reaches a result. The multiply mixes each
/// word into the high bits, and `finish` folds them into the low bits the
/// table indexes by. The keys are literals of ids the graph assigns
/// itself; an input netlist picks which pairs exist, not their values.
#[derive(Default)]
pub(crate) struct PairHasher(u64);

impl Hasher for PairHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(u32::from(b));
        }
    }

    fn write_u32(&mut self, word: u32) {
        self.0 = (self.0.rotate_left(5) ^ u64::from(word)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// A single-threaded And-Inverter Graph.
///
/// The graph is kept *strash-canonical* at all times: no two live AND nodes
/// have the same (sorted) fanin pair, no AND node has a constant fanin, and
/// the two fanins of an AND always point at distinct nodes. [`Aig::add_and`]
/// performs the standard one-level folding and structural-hash lookup, and
/// [`Aig::replace`] re-establishes canonicity after a DAG-aware rewrite by
/// cascading merges through the fanout cone.
///
/// Deleted node slots are recycled (with a bumped generation counter) exactly
/// like ABC's node manager, which is what makes the stored-cut invalidation
/// scenario of the paper's Fig. 3 reproducible.
///
/// # Example
///
/// ```
/// use dacpara_aig::{Aig, AigRead};
///
/// let mut aig = Aig::new();
/// let a = aig.add_input();
/// let b = aig.add_input();
/// let c = aig.add_input();
/// let ab = aig.add_and(a, b);
/// let abc = aig.add_and(ab, c);
/// aig.add_output(abc);
/// assert_eq!(aig.num_ands(), 2);
/// assert_eq!(aig.depth(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Aig {
    nodes: Vec<Node>,
    fanouts: Vec<Vec<NodeId>>,
    inputs: Vec<NodeId>,
    outputs: Vec<Lit>,
    strash: Strash,
    free: Vec<NodeId>,
    num_ands: usize,
    /// Nodes whose fanins changed and that must be re-hashed (possibly
    /// merging into an equal node). Drained before `replace` returns.
    rehash: Vec<NodeId>,
    /// Parallel to `nodes`: true while the node sits in `rehash`.
    queued: Vec<bool>,
}

impl Aig {
    /// Creates an empty AIG containing only the constant-false node.
    pub fn new() -> Self {
        let mut aig = Aig {
            nodes: Vec::new(),
            fanouts: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            strash: Strash::default(),
            free: Vec::new(),
            num_ands: 0,
            rehash: Vec::new(),
            queued: Vec::new(),
        };
        let c0 = aig.alloc_slot();
        debug_assert_eq!(c0, NodeId::CONST0);
        aig.nodes[0].kind = NodeKind::Const0;
        aig
    }

    /// Creates an empty AIG with room reserved for `n` nodes.
    pub fn with_capacity(n: usize) -> Self {
        let mut aig = Aig::new();
        aig.nodes.reserve(n);
        aig.fanouts.reserve(n);
        aig.strash.reserve(n);
        aig.queued.reserve(n);
        aig
    }

    fn alloc_slot(&mut self) -> NodeId {
        if let Some(id) = self.free.pop() {
            let gen = self.nodes[id.index()].gen;
            self.nodes[id.index()] = Node::free();
            self.nodes[id.index()].gen = gen.wrapping_add(1);
            debug_assert!(self.fanouts[id.index()].is_empty());
            id
        } else {
            let id = NodeId::new(self.nodes.len() as u32);
            self.nodes.push(Node::free());
            self.fanouts.push(Vec::new());
            self.queued.push(false);
            id
        }
    }

    /// Adds a primary input and returns its (positive) literal.
    pub fn add_input(&mut self) -> Lit {
        let id = self.alloc_slot();
        self.nodes[id.index()].kind = NodeKind::Input;
        self.inputs.push(id);
        id.lit()
    }

    /// One-level constant/identity folding for a sorted literal pair.
    ///
    /// Returns the literal the AND collapses to, if any. Requires `a <= b`.
    #[inline]
    pub fn fold_and(a: Lit, b: Lit) -> Option<Lit> {
        debug_assert!(a <= b);
        if a == Lit::FALSE {
            Some(Lit::FALSE)
        } else if a == Lit::TRUE {
            Some(b)
        } else if a == b {
            Some(a)
        } else if a.node() == b.node() {
            // a AND !a
            Some(Lit::FALSE)
        } else {
            None
        }
    }

    /// Returns the literal of an AND gate over `a` and `b`, folding
    /// constants, reusing a structurally identical node when one exists, and
    /// creating a fresh node otherwise.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if either operand points at a dead node.
    pub fn add_and(&mut self, a: Lit, b: Lit) -> Lit {
        debug_assert!(self.is_alive(a.node()), "fanin {a:?} is dead");
        debug_assert!(self.is_alive(b.node()), "fanin {b:?} is dead");
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        if let Some(l) = Self::fold_and(a, b) {
            return l;
        }
        if let Some(&n) = self.strash.get(&(a, b)) {
            return n.lit();
        }
        let id = self.alloc_slot();
        let level = 1 + self.nodes[a.node().index()]
            .level
            .max(self.nodes[b.node().index()].level);
        {
            let node = &mut self.nodes[id.index()];
            node.kind = NodeKind::And;
            node.fanin = [a, b];
            node.level = level;
        }
        for l in [a, b] {
            self.fanouts[l.node().index()].push(id);
            self.nodes[l.node().index()].refs += 1;
        }
        self.strash.insert((a, b), id);
        self.num_ands += 1;
        id.lit()
    }

    /// Convenience: OR via De Morgan.
    pub fn add_or(&mut self, a: Lit, b: Lit) -> Lit {
        !self.add_and(!a, !b)
    }

    /// Convenience: XOR built from three AND gates.
    pub fn add_xor(&mut self, a: Lit, b: Lit) -> Lit {
        let ab = self.add_and(a, !b);
        let ba = self.add_and(!a, b);
        self.add_or(ab, ba)
    }

    /// Convenience: 2:1 multiplexer `if s then t else e`.
    pub fn add_mux(&mut self, s: Lit, t: Lit, e: Lit) -> Lit {
        let st = self.add_and(s, t);
        let se = self.add_and(!s, e);
        self.add_or(st, se)
    }

    /// Convenience: 3-input majority.
    pub fn add_maj(&mut self, a: Lit, b: Lit, c: Lit) -> Lit {
        let ab = self.add_and(a, b);
        let ac = self.add_and(a, c);
        let bc = self.add_and(b, c);
        let t = self.add_or(ab, ac);
        self.add_or(t, bc)
    }

    /// Registers `lit` as a primary output.
    pub fn add_output(&mut self, lit: Lit) {
        debug_assert!(self.is_alive(lit.node()));
        self.outputs.push(lit);
        let n = &mut self.nodes[lit.node().index()];
        n.refs += 1;
        n.po_refs += 1;
    }

    /// Primary inputs in creation order.
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// Primary output literals in creation order.
    pub fn outputs(&self) -> &[Lit] {
        &self.outputs
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Number of primary outputs.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Number of live nodes of any kind (constant, inputs, ANDs).
    pub fn num_nodes(&self) -> usize {
        1 + self.inputs.len() + self.num_ands
    }

    /// Fanout node ids of `n` (one entry per fanout edge).
    pub fn fanouts(&self, n: NodeId) -> &[NodeId] {
        &self.fanouts[n.index()]
    }

    /// Iterator over the ids of all live AND nodes, in slot order.
    pub fn and_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter(|&(_i, n)| n.kind == NodeKind::And)
            .map(|(i, _n)| NodeId::new(i as u32))
    }

    /// Replaces every use of node `old` by the literal `new` (complemented
    /// uses of `old` become complemented uses of `new`), then deletes `old`
    /// and whatever part of its fanin cone becomes dangling.
    ///
    /// Structural canonicity is restored by cascading: a fanout whose fanin
    /// pair folds to a constant/identity or collides with an existing node is
    /// itself replaced, recursively. This mirrors `Abc_AigReplace`.
    ///
    /// If `new.node() == old` the call is a no-op. The node behind `new` is
    /// kept alive even if it ends up unreferenced (use [`Aig::cleanup`]).
    ///
    /// # Panics
    ///
    /// Panics if `old` is not a live AND or input node, if `new` points at a
    /// dead node, or (debug builds) if the replacement would create a cycle,
    /// i.e. `old` lies in the transitive fanin of `new`.
    pub fn replace(&mut self, old: NodeId, new: Lit) {
        assert!(
            matches!(self.kind(old), NodeKind::And | NodeKind::Input),
            "replace target {old:?} is not a live AND or input"
        );
        assert!(
            self.is_alive(new.node()),
            "replacement literal {new:?} is dead"
        );
        if new.node() == old {
            return;
        }
        debug_assert!(
            !is_in_tfi(self, new.node(), old),
            "replacing {old:?} with {new:?} would create a cycle"
        );
        // Pin `new` so cascaded deletions cannot reclaim it.
        self.nodes[new.node().index()].refs += 1;
        self.move_fanout_edges(old, new);
        if self.nodes[old.index()].refs == 0 && self.nodes[old.index()].kind == NodeKind::And {
            self.delete_cone(old);
        }
        self.drain_rehash();
        self.nodes[new.node().index()].refs -= 1;
    }

    /// Moves every fanout edge and primary-output edge of `o` onto `t`
    /// (preserving edge phases), queueing the touched fanouts for re-hashing.
    fn move_fanout_edges(&mut self, o: NodeId, t: Lit) {
        debug_assert_ne!(o, t.node());
        while let Some(&f) = self.fanouts[o.index()].last() {
            // Detach one `f -> o` edge.
            self.fanouts[o.index()].pop();
            self.nodes[o.index()].refs -= 1;
            self.strash_remove_if_owner(f);
            let node = &mut self.nodes[f.index()];
            let i = if node.fanin[0].node() == o { 0 } else { 1 };
            debug_assert_eq!(node.fanin[i].node(), o);
            node.fanin[i] = t.xor(node.fanin[i].is_complement());
            if node.fanin[0] > node.fanin[1] {
                node.fanin.swap(0, 1);
            }
            node.gen = node.gen.wrapping_add(1);
            // Attach the edge to `t`.
            self.fanouts[t.node().index()].push(f);
            self.nodes[t.node().index()].refs += 1;
            if !self.queued[f.index()] {
                self.queued[f.index()] = true;
                self.rehash.push(f);
            }
        }
        if self.nodes[o.index()].po_refs > 0 {
            let moved = self.nodes[o.index()].po_refs;
            for po in &mut self.outputs {
                if po.node() == o {
                    *po = t.xor(po.is_complement());
                }
            }
            let on = &mut self.nodes[o.index()];
            on.refs -= moved;
            on.po_refs = 0;
            let tn = &mut self.nodes[t.node().index()];
            tn.refs += moved;
            tn.po_refs += moved;
        }
    }

    /// Drains the re-hash queue: each entry either folds, merges into a
    /// structurally identical node, or is inserted back into the hash table
    /// with a refreshed level.
    fn drain_rehash(&mut self) {
        while let Some(f) = self.rehash.pop() {
            self.queued[f.index()] = false;
            if self.nodes[f.index()].kind != NodeKind::And {
                continue; // became dangling and was reclaimed meanwhile
            }
            let [a, b] = self.nodes[f.index()].fanin;
            if let Some(t) = Self::fold_and(a, b) {
                self.nodes[t.node().index()].refs += 1;
                self.move_fanout_edges(f, t);
                debug_assert_eq!(self.nodes[f.index()].refs, 0);
                self.delete_cone(f);
                self.nodes[t.node().index()].refs -= 1;
            } else if let Some(&g) = self.strash.get(&(a, b)) {
                debug_assert_ne!(g, f);
                self.nodes[g.index()].refs += 1;
                self.move_fanout_edges(f, g.lit());
                debug_assert_eq!(self.nodes[f.index()].refs, 0);
                self.delete_cone(f);
                self.nodes[g.index()].refs -= 1;
            } else {
                self.strash.insert((a, b), f);
                self.propagate_levels_from(f);
            }
        }
    }

    /// Removes `f`'s structural-hash entry if `f` currently owns one.
    fn strash_remove_if_owner(&mut self, f: NodeId) {
        let key = {
            let n = &self.nodes[f.index()];
            (n.fanin[0], n.fanin[1])
        };
        if self.strash.get(&key) == Some(&f) {
            self.strash.remove(&key);
        }
    }

    /// Deletes the dangling node `root` (refs == 0) and, transitively, every
    /// fanin that becomes dangling.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `root` is referenced or is not an AND.
    pub(crate) fn delete_cone(&mut self, root: NodeId) {
        debug_assert_eq!(self.nodes[root.index()].refs, 0);
        debug_assert_eq!(self.nodes[root.index()].kind, NodeKind::And);
        let mut stack = vec![root];
        while let Some(n) = stack.pop() {
            self.strash_remove_if_owner(n);
            let [a, b] = self.nodes[n.index()].fanin;
            for l in [a, b] {
                let v = l.node();
                let pos = self.fanouts[v.index()]
                    .iter()
                    .position(|&x| x == n)
                    .expect("fanout lists out of sync");
                self.fanouts[v.index()].swap_remove(pos);
                let vn = &mut self.nodes[v.index()];
                vn.refs -= 1;
                if vn.refs == 0 && vn.kind == NodeKind::And {
                    stack.push(v);
                }
            }
            debug_assert!(self.fanouts[n.index()].is_empty());
            let node = &mut self.nodes[n.index()];
            let gen = node.gen;
            *node = Node::free();
            node.gen = gen.wrapping_add(1);
            self.free.push(n);
            self.num_ands -= 1;
        }
    }

    /// Removes every dangling AND node (refs == 0). Returns how many nodes
    /// were reclaimed.
    pub fn cleanup(&mut self) -> usize {
        let before = self.num_ands;
        let roots: Vec<NodeId> = self
            .and_ids()
            .filter(|n| self.nodes[n.index()].refs == 0)
            .collect();
        for r in roots {
            // A previous deletion may have already cascaded into `r`.
            if self.nodes[r.index()].kind == NodeKind::And && self.nodes[r.index()].refs == 0 {
                self.delete_cone(r);
            }
        }
        before - self.num_ands
    }

    /// Recomputes `level` for `start` and propagates changes upward through
    /// its transitive fanout.
    fn propagate_levels_from(&mut self, start: NodeId) {
        let mut worklist = vec![start];
        while let Some(n) = worklist.pop() {
            if self.nodes[n.index()].kind != NodeKind::And {
                continue;
            }
            let [a, b] = self.nodes[n.index()].fanin;
            let new_level = 1 + self.nodes[a.node().index()]
                .level
                .max(self.nodes[b.node().index()].level);
            if new_level != self.nodes[n.index()].level {
                self.nodes[n.index()].level = new_level;
                worklist.extend_from_slice(&self.fanouts[n.index()]);
            }
        }
    }

    /// Recomputes all levels from scratch (inputs at level 0).
    pub fn recompute_levels(&mut self) {
        for n in crate::topo::topo_ands(self) {
            let [a, b] = self.nodes[n.index()].fanin;
            self.nodes[n.index()].level = 1 + self.nodes[a.node().index()]
                .level
                .max(self.nodes[b.node().index()].level);
        }
    }

    /// Total number of node slots ever allocated (live + free).
    pub fn slot_count(&self) -> usize {
        self.nodes.len()
    }

    pub(crate) fn node(&self, n: NodeId) -> &Node {
        &self.nodes[n.index()]
    }

    pub(crate) fn strash_map(&self) -> &Strash {
        &self.strash
    }
}

impl AigRead for Aig {
    fn slot_count(&self) -> usize {
        self.nodes.len()
    }

    fn kind(&self, n: NodeId) -> NodeKind {
        self.nodes[n.index()].kind
    }

    fn fanins(&self, n: NodeId) -> [Lit; 2] {
        debug_assert_eq!(self.nodes[n.index()].kind, NodeKind::And);
        self.nodes[n.index()].fanin
    }

    fn refs(&self, n: NodeId) -> u32 {
        self.nodes[n.index()].refs
    }

    fn generation(&self, n: NodeId) -> u32 {
        self.nodes[n.index()].gen
    }

    fn level(&self, n: NodeId) -> u32 {
        self.nodes[n.index()].level
    }

    fn find_and(&self, f0: Lit, f1: Lit) -> Option<NodeId> {
        let key = if f0 <= f1 { (f0, f1) } else { (f1, f0) };
        self.strash.get(&key).copied()
    }

    fn input_ids(&self) -> Vec<NodeId> {
        self.inputs.clone()
    }

    fn output_lits(&self) -> Vec<Lit> {
        self.outputs.clone()
    }

    fn num_ands(&self) -> usize {
        self.num_ands
    }

    fn for_each_fanout(&self, n: NodeId, visit: &mut dyn FnMut(NodeId)) {
        self.fanouts[n.index()].iter().for_each(|&f| visit(f));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_input_aig() -> (Aig, Lit, Lit) {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        (aig, a, b)
    }

    #[test]
    fn folding_rules() {
        let (mut aig, a, _) = two_input_aig();
        assert_eq!(aig.add_and(a, Lit::FALSE), Lit::FALSE);
        assert_eq!(aig.add_and(a, Lit::TRUE), a);
        assert_eq!(aig.add_and(a, a), a);
        assert_eq!(aig.add_and(a, !a), Lit::FALSE);
        assert_eq!(aig.num_ands(), 0);
    }

    #[test]
    fn structural_hashing_reuses_nodes() {
        let (mut aig, a, b) = two_input_aig();
        let x = aig.add_and(a, b);
        let y = aig.add_and(b, a);
        assert_eq!(x, y);
        let z = aig.add_and(!a, b);
        assert_ne!(x, z);
        assert_eq!(aig.num_ands(), 2);
    }

    #[test]
    fn replace_transfers_fanouts_and_outputs() {
        let (mut aig, a, b) = two_input_aig();
        let c = aig.add_input();
        let ab = aig.add_and(a, b);
        let top = aig.add_and(ab, c);
        aig.add_output(top);
        aig.add_output(!ab);
        // Replace ab by just `a` (as if rewriting found b redundant).
        aig.replace(ab.node(), a);
        aig.check().unwrap();
        assert_eq!(aig.num_ands(), 1); // only AND(a, c) remains
        assert_eq!(aig.outputs()[1], !a);
        let [f0, f1] = aig.fanins(aig.outputs()[0].node());
        assert!(f0 == a || f1 == a);
    }

    #[test]
    fn replace_merges_structural_duplicates() {
        let (mut aig, a, b) = two_input_aig();
        let c = aig.add_input();
        let ac = aig.add_and(a, c);
        let bc = aig.add_and(b, c);
        let top = aig.add_and(ac, bc);
        aig.add_output(top);
        aig.add_output(ac);
        // Replacing b by a makes bc a duplicate of ac; the cascade must merge
        // them, which folds `top = AND(ac, ac)` to `ac`.
        aig.replace(b.node(), a);
        aig.check().unwrap();
        assert_eq!(aig.num_ands(), 1);
        assert_eq!(aig.outputs()[0], aig.outputs()[1]);
    }

    #[test]
    fn replace_with_constant_cascades_folds() {
        let (mut aig, a, b) = two_input_aig();
        let c = aig.add_input();
        let ab = aig.add_and(a, b);
        let abc = aig.add_and(ab, c);
        aig.add_output(abc);
        aig.replace(ab.node(), Lit::TRUE);
        aig.check().unwrap();
        assert_eq!(aig.num_ands(), 0);
        assert_eq!(aig.outputs()[0], c);
    }

    #[test]
    fn replace_to_false_kills_cone() {
        let (mut aig, a, b) = two_input_aig();
        let c = aig.add_input();
        let ab = aig.add_and(a, b);
        let abc = aig.add_and(ab, c);
        aig.add_output(abc);
        aig.replace(ab.node(), Lit::FALSE);
        aig.check().unwrap();
        assert_eq!(aig.num_ands(), 0);
        assert_eq!(aig.outputs()[0], Lit::FALSE);
    }

    #[test]
    fn slot_recycling_bumps_generation() {
        let (mut aig, a, b) = two_input_aig();
        let ab = aig.add_and(a, b);
        aig.add_output(ab);
        let id = ab.node();
        let gen0 = aig.generation(id);
        aig.replace(id, a);
        assert!(!aig.is_alive(id));
        assert!(aig.generation(id) > gen0);
        // New node reuses the freed slot.
        let fresh = aig.add_and(!a, !b);
        assert_eq!(fresh.node(), id);
        assert!(aig.generation(id) > gen0);
    }

    #[test]
    fn cleanup_removes_dangling() {
        let (mut aig, a, b) = two_input_aig();
        let ab = aig.add_and(a, b);
        let _dangling = aig.add_and(!a, b);
        aig.add_output(ab);
        assert_eq!(aig.cleanup(), 1);
        assert_eq!(aig.num_ands(), 1);
        aig.check().unwrap();
    }

    #[test]
    fn levels_track_depth() {
        let (mut aig, a, b) = two_input_aig();
        let c = aig.add_input();
        let ab = aig.add_and(a, b);
        let abc = aig.add_and(ab, c);
        aig.add_output(abc);
        assert_eq!(aig.depth(), 2);
        aig.replace(abc.node(), ab);
        assert_eq!(aig.depth(), 1);
    }

    #[test]
    fn xor_mux_maj_helpers() {
        let (mut aig, a, b) = two_input_aig();
        let c = aig.add_input();
        let x = aig.add_xor(a, b);
        let m = aig.add_mux(a, b, c);
        let j = aig.add_maj(a, b, c);
        aig.add_output(x);
        aig.add_output(m);
        aig.add_output(j);
        aig.check().unwrap();
        assert!(aig.num_ands() >= 3);
    }
}
