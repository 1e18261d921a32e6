//! Structure-preserving-by-construction mutations over existing AIGs.
//!
//! Every mutation is expressed as a [`RebuildPlan`] and replayed through the
//! strash-canonical builder, so a mutant is always a valid AIG — acyclic,
//! folded, hashed — no matter how aggressive the edit. *Functionally* most
//! mutations change the circuit, which is exactly what the fuzzer wants:
//! the differential oracle treats the mutant as a fresh golden input, and
//! the oracle-soundness tests use a guaranteed-changing mutation to prove
//! the CEC stage would actually catch a miscompile.

use dacpara::testkit::SUITE_CEC;
use dacpara_aig::{Aig, AigRead, Lit, NodeId, RebuildPlan};
use dacpara_equiv::{check_equivalence, CecResult};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The mutation catalog.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// Redirect one fanin edge of an AND gate to a topologically earlier
    /// literal (random complement).
    EdgeRetarget,
    /// Flip the complement bit of one fanin edge or one output.
    ComplementFlip,
    /// Function-preserving redundancy: re-express `n = a & b` as
    /// `(a & b) & (a | b)` — three gates that strashing cannot fold back.
    NodeDuplicate,
    /// Replace a node (and with it the cone feeding its fanouts) by the
    /// literal of a topologically earlier node.
    ConeSwap,
}

impl Mutation {
    /// All catalog entries, for weighted selection.
    pub const ALL: [Mutation; 4] = [
        Mutation::EdgeRetarget,
        Mutation::ComplementFlip,
        Mutation::NodeDuplicate,
        Mutation::ConeSwap,
    ];
}

/// Applies `ops` random catalog mutations, deterministic in `seed`.
///
/// Returns the mutant (always structurally valid) — functionally it usually
/// differs from the input. Mutations that happen to degenerate (a retarget
/// folding the gate away entirely, say) are still applied; the rebuild
/// machinery guarantees the result stays well-formed.
pub fn mutate(aig: &Aig, ops: usize, seed: u64) -> Aig {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut current = aig.clone();
    for _ in 0..ops {
        let Some(next) = mutate_once(&current, &mut rng) else {
            break;
        };
        current = next;
    }
    current
}

fn mutate_once(aig: &Aig, rng: &mut StdRng) -> Option<Aig> {
    let ands: Vec<NodeId> = dacpara_aig::topo_ands(aig);
    if ands.is_empty() {
        return None;
    }
    // Topological rank of every node: inputs and constants rank 0, ANDs by
    // position. Used to restrict retarget/swap targets to earlier nodes so
    // the plan never contains a forward reference.
    let mut rank = vec![0usize; aig.slot_count()];
    for (i, &n) in ands.iter().enumerate() {
        rank[n.index()] = i + 1;
    }
    let earlier = |rng: &mut StdRng, bound: usize, aig: &Aig, ands: &[NodeId]| -> Lit {
        // Inputs and strictly earlier ANDs are fair targets.
        let inputs = aig.input_ids();
        let choices = inputs.len() + bound;
        let k = rng.gen_range(0..choices.max(1));
        let node = if k < inputs.len() {
            inputs[k]
        } else {
            ands[k - inputs.len()]
        };
        node.lit().xor(rng.gen_bool(0.5))
    };

    let mut plan = RebuildPlan::new();
    let kind = Mutation::ALL[rng.gen_range(0..Mutation::ALL.len())];
    match kind {
        Mutation::EdgeRetarget => {
            let i = rng.gen_range(0..ands.len());
            let n = ands[i];
            let target = earlier(rng, rank[n.index()] - 1, aig, &ands);
            if rng.gen_bool(0.5) {
                plan.refanin(n, Some(target), None);
            } else {
                plan.refanin(n, None, Some(target));
            }
        }
        Mutation::ComplementFlip => {
            if rng.gen_bool(0.3) || aig.num_ands() == 0 {
                let po = rng.gen_range(0..aig.num_outputs());
                plan.flip_output(po);
            } else {
                let n = ands[rng.gen_range(0..ands.len())];
                let [fa, fb] = aig.fanins(n);
                if rng.gen_bool(0.5) {
                    plan.refanin(n, Some(!fa), None);
                } else {
                    plan.refanin(n, None, Some(!fb));
                }
            }
        }
        Mutation::NodeDuplicate => {
            // Handled below: needs builder access, not just a plan.
            let n = ands[rng.gen_range(0..ands.len())];
            return Some(duplicate_node(aig, n));
        }
        Mutation::ConeSwap => {
            if ands.len() < 2 {
                return None;
            }
            let vi = rng.gen_range(1..ands.len());
            let v = ands[vi];
            let target = earlier(rng, vi, aig, &ands);
            plan.replace_node(v, target);
        }
    }
    plan.apply(aig).ok()
}

/// Re-expresses `n = a & b` as `(a & b) & (a | b)` — function-preserving
/// redundancy that survives structural hashing (the two inner gates have
/// different fanin pairs).
fn duplicate_node(aig: &Aig, n: NodeId) -> Aig {
    let [fa, fb] = aig.fanins(n);
    // Build the redundant expression manually: copy everything, but wire
    // n's fanouts to the redundant form. Expressed as a rebuild where the
    // "or" gate is created via a refanin chain is awkward, so copy by hand.
    let mut out = Aig::with_capacity(aig.slot_count() + 4);
    let mut map = vec![Lit::FALSE; aig.slot_count()];
    for i in aig.input_ids() {
        map[i.index()] = out.add_input();
    }
    for m in dacpara_aig::topo_ands(aig) {
        if m == n {
            let a = map[fa.node().index()].xor(fa.is_complement());
            let b = map[fb.node().index()].xor(fb.is_complement());
            let conj = out.add_and(a, b);
            let disj = out.add_or(a, b);
            map[m.index()] = out.add_and(conj, disj);
        } else {
            let [ma, mb] = aig.fanins(m);
            let la = map[ma.node().index()].xor(ma.is_complement());
            let lb = map[mb.node().index()].xor(mb.is_complement());
            map[m.index()] = out.add_and(la, lb);
        }
    }
    for po in aig.output_lits() {
        let l = map[po.node().index()].xor(po.is_complement());
        out.add_output(l);
    }
    out.cleanup();
    out
}

/// Mutates until the mutant is provably inequivalent to `aig` (the oracle
/// soundness tests need a guaranteed function change, and a random retarget
/// can accidentally preserve function). Returns the mutant and the
/// counterexample input assignment, or `None` after `max_tries` attempts.
pub fn mutate_until_inequivalent(
    aig: &Aig,
    seed: u64,
    max_tries: usize,
) -> Option<(Aig, Vec<bool>)> {
    for t in 0..max_tries {
        let mutant = mutate(aig, 1 + t % 3, seed.wrapping_add(t as u64));
        if mutant.num_inputs() != aig.num_inputs() || mutant.num_outputs() != aig.num_outputs() {
            continue;
        }
        if let CecResult::Inequivalent(cex) = check_equivalence(aig, &mutant, &SUITE_CEC) {
            return Some((mutant, cex));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenConfig};

    #[test]
    fn mutants_are_always_structurally_valid() {
        let aig = generate(&GenConfig::small(), 7);
        for seed in 0..30 {
            let m = mutate(&aig, 1 + (seed as usize % 4), seed);
            m.check().unwrap();
            assert_eq!(m.num_inputs(), aig.num_inputs());
        }
    }

    #[test]
    fn duplicate_preserves_function() {
        let aig = generate(&GenConfig::small(), 11);
        let ands: Vec<NodeId> = dacpara_aig::topo_ands(&aig);
        let m = duplicate_node(&aig, *ands.last().unwrap());
        m.check().unwrap();
        assert_eq!(
            check_equivalence(&aig, &m, &SUITE_CEC),
            CecResult::Equivalent
        );
    }

    #[test]
    fn inequivalent_mutants_are_findable() {
        let aig = generate(&GenConfig::small(), 3);
        let (mutant, cex) = mutate_until_inequivalent(&aig, 99, 50).expect("mutation space dry");
        mutant.check().unwrap();
        assert_eq!(cex.len(), aig.num_inputs());
        let oa = dacpara_equiv::simulate_bools(&aig, &cex);
        let ob = dacpara_equiv::simulate_bools(&mutant, &cex);
        assert_ne!(oa, ob, "counterexample must separate the pair");
    }
}
