//! Copy-with-edit rebuilding of an AIG into a fresh strash-canonical graph.
//!
//! The fuzzing subsystem (mutation engine and delta-debugging shrinker) never
//! edits a graph in place: every mutation is expressed as a [`RebuildPlan`] —
//! a batch of per-input, per-node and per-output edits — and [`RebuildPlan::apply`]
//! replays the source graph through the strash-canonical [`Aig`] builder with
//! those edits substituted in. Because the result is produced by `add_and`,
//! it is acyclic, folded and hashed by construction; a plan can therefore
//! never produce a structurally invalid graph, only a rejected one
//! ([`AigError::InvariantViolation`] when an edit references a node that is
//! not yet available at the point it is needed).
//!
//! # Example
//!
//! ```
//! use dacpara_aig::{Aig, AigRead, Lit, RebuildPlan};
//!
//! let mut aig = Aig::new();
//! let a = aig.add_input();
//! let b = aig.add_input();
//! let ab = aig.add_and(a, b);
//! aig.add_output(ab);
//!
//! // Bypass the AND to its left fanin: the output becomes just `a`.
//! let mut plan = RebuildPlan::new();
//! plan.replace_node(ab.node(), a);
//! let out = plan.apply(&aig).unwrap();
//! assert_eq!(out.num_ands(), 0);
//! assert_eq!(out.outputs()[0], out.inputs()[0].lit());
//! ```

use std::collections::HashMap;

use crate::topo::topo_ands;
use crate::{Aig, AigError, AigRead, Lit, NodeId};

/// What happens to one primary input during a rebuild.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum InputEdit {
    /// Alias this input to the literal of another input (by position).
    MergeInto(usize),
    /// Tie this input to a constant.
    Const(bool),
}

/// What happens to one AND node during a rebuild.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum NodeEdit {
    /// Replace the node by a literal over *source-graph* ids. The referenced
    /// node must already be mapped when this node is reached in topological
    /// order (an input, a constant, or an earlier AND).
    ReplaceWith(Lit),
    /// Keep the node but override its fanin edges (source-graph literals;
    /// `None` keeps the original edge). The same ordering constraint applies.
    Refanin(Option<Lit>, Option<Lit>),
}

/// A batch of structural edits applied while copying an AIG.
///
/// Empty plans are useful too: [`RebuildPlan::apply`] with no edits is a
/// compacting copy (dead slots dropped, ids densified, strashing re-run).
#[derive(Clone, Debug, Default)]
pub struct RebuildPlan {
    input_edits: HashMap<usize, InputEdit>,
    node_edits: HashMap<NodeId, NodeEdit>,
    dropped_outputs: Vec<usize>,
    flipped_outputs: Vec<usize>,
}

impl RebuildPlan {
    /// Creates an empty plan (a pure compacting copy).
    pub fn new() -> Self {
        RebuildPlan::default()
    }

    /// True when the plan contains no edits at all.
    pub fn is_empty(&self) -> bool {
        self.input_edits.is_empty()
            && self.node_edits.is_empty()
            && self.dropped_outputs.is_empty()
            && self.flipped_outputs.is_empty()
    }

    /// Merges input `from` into input `into` (both by position): every edge
    /// into `from` is redirected to `into`'s literal. The merged input is
    /// still created so the interface keeps its arity.
    pub fn merge_input(&mut self, from: usize, into: usize) -> &mut Self {
        debug_assert_ne!(from, into, "cannot merge an input into itself");
        self.input_edits.insert(from, InputEdit::MergeInto(into));
        self
    }

    /// Ties input `pos` to a constant value. The input is still created so
    /// the interface keeps its arity.
    pub fn tie_input(&mut self, pos: usize, value: bool) -> &mut Self {
        self.input_edits.insert(pos, InputEdit::Const(value));
        self
    }

    /// Replaces AND node `n` by `with`, a literal over source-graph ids.
    /// `with` must be a constant, an input, or an AND that precedes `n`
    /// topologically — otherwise [`RebuildPlan::apply`] rejects the plan.
    pub fn replace_node(&mut self, n: NodeId, with: Lit) -> &mut Self {
        self.node_edits.insert(n, NodeEdit::ReplaceWith(with));
        self
    }

    /// Overrides the fanin edges of AND node `n` (source-graph literals;
    /// `None` keeps the original edge). The same topological-ordering
    /// constraint as [`RebuildPlan::replace_node`] applies to the new edges.
    pub fn refanin(&mut self, n: NodeId, left: Option<Lit>, right: Option<Lit>) -> &mut Self {
        self.node_edits.insert(n, NodeEdit::Refanin(left, right));
        self
    }

    /// Drops the output at position `pos` from the rebuilt graph.
    pub fn drop_output(&mut self, pos: usize) -> &mut Self {
        self.dropped_outputs.push(pos);
        self
    }

    /// Complements the output at position `pos` (used by oracle-soundness
    /// tests to manufacture a guaranteed-inequivalent graph).
    pub fn flip_output(&mut self, pos: usize) -> &mut Self {
        self.flipped_outputs.push(pos);
        self
    }

    /// Replays `view` through a fresh strash-canonical builder with this
    /// plan's edits substituted in.
    ///
    /// # Errors
    ///
    /// Returns [`AigError::InvariantViolation`] when an edit references an
    /// input position or output position out of range, or a node literal
    /// that is not yet mapped at the point it is needed (which would have
    /// required a cycle), or an input merge chain that loops.
    pub fn apply<V: AigRead + ?Sized>(&self, view: &V) -> Result<Aig, AigError> {
        let src_inputs = view.input_ids();
        let src_outputs = view.output_lits();
        for (&pos, edit) in &self.input_edits {
            let ok = pos < src_inputs.len()
                && match *edit {
                    InputEdit::MergeInto(into) => into < src_inputs.len(),
                    InputEdit::Const(_) => true,
                };
            if !ok {
                return Err(AigError::InvariantViolation(format!(
                    "rebuild plan edits input {pos} of a {}-input graph",
                    src_inputs.len()
                )));
            }
        }
        for &pos in self.dropped_outputs.iter().chain(&self.flipped_outputs) {
            if pos >= src_outputs.len() {
                return Err(AigError::InvariantViolation(format!(
                    "rebuild plan edits output {pos} of a {}-output graph",
                    src_outputs.len()
                )));
            }
        }

        let mut out = Aig::with_capacity(src_inputs.len() + view.num_ands());
        // map[old slot] = Some(literal in `out`), filled in topological order.
        let mut map: Vec<Option<Lit>> = vec![None; view.slot_count()];
        map[NodeId::CONST0.index()] = Some(Lit::FALSE);

        // Inputs first: create every input to preserve arity, then resolve
        // merge chains (merge targets may themselves be merged).
        let fresh: Vec<Lit> = src_inputs.iter().map(|_| out.add_input()).collect();
        for (pos, &old) in src_inputs.iter().enumerate() {
            let mut at = pos;
            let mut hops = 0usize;
            let lit = loop {
                match self.input_edits.get(&at) {
                    None => break fresh[at],
                    Some(&InputEdit::Const(v)) => break Lit::FALSE.xor(v),
                    Some(&InputEdit::MergeInto(into)) => {
                        at = into;
                        hops += 1;
                        if hops > src_inputs.len() {
                            return Err(AigError::InvariantViolation(format!(
                                "rebuild plan input-merge chain loops at input {pos}"
                            )));
                        }
                    }
                }
            };
            map[old.index()] = Some(lit);
        }

        let translate = |map: &[Option<Lit>], old: Lit| -> Result<Lit, AigError> {
            map[old.node().index()]
                .map(|l| l.xor(old.is_complement()))
                .ok_or_else(|| {
                    AigError::InvariantViolation(format!(
                        "rebuild plan references {old} before it is available \
                         (forward reference would create a cycle)"
                    ))
                })
        };

        for n in topo_ands(view) {
            let lit = match self.node_edits.get(&n) {
                Some(&NodeEdit::ReplaceWith(with)) => translate(&map, with)?,
                Some(&NodeEdit::Refanin(l, r)) => {
                    let [fa, fb] = view.fanins(n);
                    let la = translate(&map, l.unwrap_or(fa))?;
                    let lb = translate(&map, r.unwrap_or(fb))?;
                    out.add_and(la, lb)
                }
                None => {
                    let [fa, fb] = view.fanins(n);
                    let la = translate(&map, fa)?;
                    let lb = translate(&map, fb)?;
                    out.add_and(la, lb)
                }
            };
            map[n.index()] = Some(lit);
        }

        for (pos, &po) in src_outputs.iter().enumerate() {
            if self.dropped_outputs.contains(&pos) {
                continue;
            }
            let mut lit = translate(&map, po)?;
            if self.flipped_outputs.contains(&pos) {
                lit = !lit;
            }
            out.add_output(lit);
        }
        out.cleanup();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Aig {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let c = aig.add_input();
        let ab = aig.add_and(a, b);
        let abc = aig.add_and(ab, c);
        let x = aig.add_xor(ab, c);
        aig.add_output(abc);
        aig.add_output(x);
        aig
    }

    #[test]
    fn tie_input_simplifies() {
        let aig = sample();
        let mut plan = RebuildPlan::new();
        plan.tie_input(2, false);
        let out = plan.apply(&aig).unwrap();
        // abc = ab & 0 = 0, x = ab ^ 0 = ab.
        assert_eq!(out.outputs()[0], Lit::FALSE);
        assert_eq!(out.num_ands(), 1);
        assert_eq!(out.num_inputs(), 3, "arity preserved");
        out.check().unwrap();
    }

    #[test]
    fn merge_inputs_chains() {
        let aig = sample();
        let mut plan = RebuildPlan::new();
        plan.merge_input(1, 0);
        let out = plan.apply(&aig).unwrap();
        // ab collapses to a, so abc = a & c (1 AND) and x = a XOR c (3 ANDs).
        assert_eq!(out.num_ands(), 4);
        out.check().unwrap();
    }

    #[test]
    fn merge_loop_is_rejected() {
        let aig = sample();
        let mut plan = RebuildPlan::new();
        plan.merge_input(0, 1).merge_input(1, 0);
        assert!(matches!(
            plan.apply(&aig),
            Err(AigError::InvariantViolation(_))
        ));
    }

    #[test]
    fn forward_reference_is_rejected() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let c = aig.add_input();
        let ab = aig.add_and(a, b);
        let abc = aig.add_and(ab, c);
        aig.add_output(abc);
        let mut plan = RebuildPlan::new();
        // ab := abc is a forward reference (abc comes later in topo order).
        plan.replace_node(ab.node(), abc);
        assert!(matches!(
            plan.apply(&aig),
            Err(AigError::InvariantViolation(_))
        ));
    }

    #[test]
    fn drop_and_flip_outputs() {
        let aig = sample();
        let mut plan = RebuildPlan::new();
        plan.drop_output(0).flip_output(1);
        let out = plan.apply(&aig).unwrap();
        assert_eq!(out.num_outputs(), 1);
        out.check().unwrap();
    }

    #[test]
    fn out_of_range_edits_rejected() {
        let aig = sample();
        let mut plan = RebuildPlan::new();
        plan.drop_output(9);
        assert!(plan.apply(&aig).is_err());
        let mut plan = RebuildPlan::new();
        plan.tie_input(7, true);
        assert!(plan.apply(&aig).is_err());
    }

    #[test]
    fn refanin_overrides_edges() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let c = aig.add_input();
        let ab = aig.add_and(a, b);
        let abc = aig.add_and(ab, c);
        aig.add_output(abc);
        // Fanins are stored sorted: [c, ab]. Override the `c` edge with `!c`
        // so abc becomes ab & !c.
        assert_eq!(aig.fanins(abc.node()), [c, ab]);
        let mut plan = RebuildPlan::new();
        plan.refanin(abc.node(), Some(!c), None);
        let out = plan.apply(&aig).unwrap();
        assert_eq!(out.num_ands(), 2);
        out.check().unwrap();
    }
}
