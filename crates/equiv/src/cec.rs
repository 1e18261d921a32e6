//! Miter construction and combinational equivalence checking.

use dacpara_aig::{Aig, AigRead, Lit};

use crate::cnf::{assert_lit, model_inputs, CnfMap};
use crate::sim::{random_sim_check, simulate_bools};
use crate::{SatResult, Solver};

/// Builds the miter of two same-interface graphs: shared fresh inputs, one
/// output that is the OR of the pairwise XORs of the outputs. The miter
/// output is satisfiable iff the graphs differ.
///
/// Structural hashing inside the builder already discharges many pairs.
///
/// # Panics
///
/// Panics if the interfaces differ.
pub fn miter<A, B>(a: &A, b: &B) -> Aig
where
    A: AigRead + ?Sized,
    B: AigRead + ?Sized,
{
    let a_in = a.input_ids();
    let b_in = b.input_ids();
    assert_eq!(a_in.len(), b_in.len(), "input counts differ");
    let a_out = a.output_lits();
    let b_out = b.output_lits();
    assert_eq!(a_out.len(), b_out.len(), "output counts differ");

    let mut m = Aig::with_capacity(a.num_ands() + b.num_ands() + 4 * a_out.len());
    let shared: Vec<Lit> = (0..a_in.len()).map(|_| m.add_input()).collect();

    fn copy_into<V: AigRead + ?Sized>(view: &V, shared: &[Lit], m: &mut Aig) -> Vec<Lit> {
        let mut map = vec![Lit::FALSE; view.slot_count()];
        for (k, &i) in view.input_ids().iter().enumerate() {
            map[i.index()] = shared[k];
        }
        for n in dacpara_aig::topo_ands(view) {
            let [fa, fb] = view.fanins(n);
            let la = map[fa.node().index()].xor(fa.is_complement());
            let lb = map[fb.node().index()].xor(fb.is_complement());
            map[n.index()] = m.add_and(la, lb);
        }
        view.output_lits()
            .iter()
            .map(|po| map[po.node().index()].xor(po.is_complement()))
            .collect()
    }

    let oa = copy_into(a, &shared, &mut m);
    let ob = copy_into(b, &shared, &mut m);

    let mut diff = Lit::FALSE;
    for (la, lb) in oa.into_iter().zip(ob) {
        let x = m.add_xor(la, lb);
        diff = m.add_or(diff, x);
    }
    m.add_output(diff);
    m
}

/// Verdict of a combinational equivalence check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CecResult {
    /// Proven equivalent (SAT proof, or the miter strashed to constant
    /// false).
    Equivalent,
    /// Proven different, with a differing input assignment.
    Inequivalent(Vec<bool>),
    /// Random simulation found no difference, but no proof was made: the
    /// pair was at or above [`CecConfig::sat_node_limit`], or the SAT
    /// conflict budget ran out.
    Undecided,
}

/// Configuration of [`check_equivalence`]: how much simulation runs, and
/// when and how hard SAT tries to prove what simulation could not refute.
#[derive(Copy, Clone, Debug)]
pub struct CecConfig {
    /// Rounds of 64-pattern random simulation, always run first.
    pub sim_rounds: usize,
    /// SAT runs only when `a.num_ands() + b.num_ands()` is below this;
    /// larger pairs, and every pair at `0`, are checked by simulation alone
    /// and come back [`CecResult::Undecided`] unless refuted. The default,
    /// `usize::MAX`, never skips SAT.
    pub sat_node_limit: usize,
    /// Conflict budget for the SAT proof.
    pub max_conflicts: u64,
    /// Seed for the simulation patterns.
    pub seed: u64,
}

impl CecConfig {
    /// Whether a check of `a` against `b` under this config attempts a SAT
    /// proof: their AND counts together are below
    /// [`sat_node_limit`](Self::sat_node_limit).
    pub fn attempts_proof<A, B>(&self, a: &A, b: &B) -> bool
    where
        A: AigRead + ?Sized,
        B: AigRead + ?Sized,
    {
        a.num_ands() + b.num_ands() < self.sat_node_limit
    }
}

impl Default for CecConfig {
    fn default() -> Self {
        CecConfig {
            sim_rounds: 16,
            sat_node_limit: usize::MAX,
            max_conflicts: 2_000_000,
            seed: 0xDAC_2024,
        }
    }
}

/// Checks combinational equivalence: random simulation first (cheap
/// refutation), then, for pairs below [`CecConfig::sat_node_limit`], a
/// SAT proof on the miter.
///
/// # Panics
///
/// Panics if the interfaces differ.
///
/// # Example
///
/// ```
/// use dacpara_aig::Aig;
/// use dacpara_equiv::{check_equivalence, CecConfig, CecResult};
///
/// let mut a = Aig::new();
/// let x = a.add_input();
/// let y = a.add_input();
/// let nand = a.add_and(x, y);
/// a.add_output(!nand);
///
/// let mut b = Aig::new();
/// let x2 = b.add_input();
/// let y2 = b.add_input();
/// let demorgan = b.add_or(!x2, !y2);
/// b.add_output(demorgan);
///
/// assert_eq!(
///     check_equivalence(&a, &b, &CecConfig::default()),
///     CecResult::Equivalent
/// );
/// ```
pub fn check_equivalence<A, B>(a: &A, b: &B, cfg: &CecConfig) -> CecResult
where
    A: AigRead + ?Sized,
    B: AigRead + ?Sized,
{
    if let Some(cex) = random_sim_check(a, b, cfg.sim_rounds, cfg.seed) {
        return CecResult::Inequivalent(cex);
    }
    let m = miter(a, b);
    let out = m.outputs()[0];
    if out == Lit::FALSE {
        // Strashing collapsed every output pair.
        return CecResult::Equivalent;
    }
    if out == Lit::TRUE {
        // The miter is constantly one — find any input assignment.
        return CecResult::Inequivalent(vec![false; m.num_inputs()]);
    }
    if !cfg.attempts_proof(a, b) {
        return CecResult::Undecided;
    }
    let mut solver = Solver::new();
    let map = CnfMap::encode(&m, &mut solver);
    assert_lit(&mut solver, &map, out);
    match solver.solve_limited(cfg.max_conflicts) {
        Some(SatResult::Unsat) => CecResult::Equivalent,
        Some(SatResult::Sat) => {
            let cex = model_inputs(&m, &map, &solver);
            debug_assert!(simulate_bools(&m, &cex)[0], "model must hit the miter");
            CecResult::Inequivalent(cex)
        }
        None => CecResult::Undecided,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dacpara_aig::RebuildPlan;

    fn adder_pair() -> (Aig, Aig) {
        // 3-bit ripple adders built two different ways.
        let build = |use_maj: bool| {
            let mut aig = Aig::new();
            let xs: Vec<Lit> = (0..3).map(|_| aig.add_input()).collect();
            let ys: Vec<Lit> = (0..3).map(|_| aig.add_input()).collect();
            let mut carry = Lit::FALSE;
            for k in 0..3 {
                let s1 = aig.add_xor(xs[k], ys[k]);
                let sum = aig.add_xor(s1, carry);
                let c = if use_maj {
                    aig.add_maj(xs[k], ys[k], carry)
                } else {
                    let xy = aig.add_and(xs[k], ys[k]);
                    let sc = aig.add_and(s1, carry);
                    aig.add_or(xy, sc)
                };
                aig.add_output(sum);
                carry = c;
            }
            aig.add_output(carry);
            aig
        };
        (build(true), build(false))
    }

    #[test]
    fn structurally_different_adders_are_equivalent() {
        let (a, b) = adder_pair();
        assert_ne!(a.num_ands(), b.num_ands());
        assert_eq!(
            check_equivalence(&a, &b, &CecConfig::default()),
            CecResult::Equivalent
        );
    }

    #[test]
    fn broken_adder_is_caught() {
        let (a, b) = adder_pair();
        let c = RebuildPlan::new().flip_output(1).apply(&b).unwrap();
        match check_equivalence(&a, &c, &CecConfig::default()) {
            CecResult::Inequivalent(cex) => {
                let oa = crate::simulate_bools(&a, &cex);
                let oc = crate::simulate_bools(&c, &cex);
                assert_ne!(oa, oc);
            }
            other => panic!("expected inequivalence, got {other:?}"),
        }
    }

    #[test]
    fn miter_of_identical_graphs_is_const_false() {
        let (a, _) = adder_pair();
        let m = miter(&a, &a);
        assert_eq!(m.outputs()[0], Lit::FALSE);
    }

    #[test]
    fn sat_runs_only_below_the_node_limit() {
        let (a, b) = adder_pair();
        let size = a.num_ands() + b.num_ands();
        let capped = |sat_node_limit| CecConfig {
            sat_node_limit,
            ..CecConfig::default()
        };
        assert_eq!(
            check_equivalence(&a, &b, &capped(size + 1)),
            CecResult::Equivalent
        );
        assert_eq!(
            check_equivalence(&a, &b, &capped(size)),
            CecResult::Undecided
        );
    }

    #[test]
    fn simulation_still_refutes_at_a_zero_node_limit() {
        let (a, b) = adder_pair();
        let flipped = RebuildPlan::new().flip_output(0).apply(&b).unwrap();
        let sim_only = CecConfig {
            sat_node_limit: 0,
            ..CecConfig::default()
        };
        assert!(matches!(
            check_equivalence(&a, &flipped, &sim_only),
            CecResult::Inequivalent(_)
        ));
    }

    #[test]
    fn undecided_when_sat_disabled_and_sim_passes() {
        let (a, b) = adder_pair();
        let cfg = CecConfig {
            sim_rounds: 2,
            sat_node_limit: 0,
            max_conflicts: 0,
            seed: 3,
        };
        assert_eq!(check_equivalence(&a, &b, &cfg), CecResult::Undecided);
    }
}
