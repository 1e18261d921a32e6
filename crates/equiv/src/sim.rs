//! 64-way bit-parallel simulation of AIGs.

use dacpara_aig::{AigRead, Lit};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Simulates the graph on one 64-pattern word per input; returns one word
/// per output (bit `i` of word `k` = output `k` under pattern `i`).
///
/// # Panics
///
/// Panics if `input_words.len()` differs from the number of inputs.
///
/// # Example
///
/// ```
/// use dacpara_aig::Aig;
/// use dacpara_equiv::simulate_words;
///
/// let mut aig = Aig::new();
/// let a = aig.add_input();
/// let b = aig.add_input();
/// let ab = aig.add_and(a, b);
/// aig.add_output(ab);
/// let out = simulate_words(&aig, &[0b1100, 0b1010]);
/// assert_eq!(out[0], 0b1000);
/// ```
pub fn simulate_words<V: AigRead + ?Sized>(view: &V, input_words: &[u64]) -> Vec<u64> {
    let inputs = view.input_ids();
    assert_eq!(
        input_words.len(),
        inputs.len(),
        "one simulation word per input required"
    );
    let mut values = vec![0u64; view.slot_count()];
    for (w, &i) in input_words.iter().zip(&inputs) {
        values[i.index()] = *w;
    }
    let lit_val = |l: Lit, values: &[u64]| -> u64 {
        let v = values[l.node().index()];
        if l.is_complement() {
            !v
        } else {
            v
        }
    };
    for n in dacpara_aig::topo_ands(view) {
        let [a, b] = view.fanins(n);
        values[n.index()] = lit_val(a, &values) & lit_val(b, &values);
    }
    view.output_lits()
        .iter()
        .map(|&po| lit_val(po, &values))
        .collect()
}

/// Simulates a single input assignment; returns one bool per output.
pub fn simulate_bools<V: AigRead + ?Sized>(view: &V, inputs: &[bool]) -> Vec<bool> {
    let words: Vec<u64> = inputs.iter().map(|&b| if b { !0 } else { 0 }).collect();
    simulate_words(view, &words)
        .into_iter()
        .map(|w| w & 1 != 0)
        .collect()
}

/// Probes two same-interface graphs with `rounds` words of random patterns
/// (64 patterns per round) and returns the first input assignment on which
/// some output differs. A counterexample is definitive; `None` is not a
/// proof.
///
/// # Panics
///
/// Panics if the graphs differ in input or output counts.
pub(crate) fn random_sim_check<A, B>(a: &A, b: &B, rounds: usize, seed: u64) -> Option<Vec<bool>>
where
    A: AigRead + ?Sized,
    B: AigRead + ?Sized,
{
    let n_in = a.input_ids().len();
    assert_eq!(n_in, b.input_ids().len(), "input counts differ");
    assert_eq!(
        a.output_lits().len(),
        b.output_lits().len(),
        "output counts differ"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    for round in 0..rounds {
        let words: Vec<u64> = if round == 0 {
            // First round: include all-zeros / all-ones corner patterns.
            (0..n_in)
                .map(|i| {
                    if i % 2 == 0 {
                        0x00000000FFFFFFFF
                    } else {
                        0x0F0F0F0F0F0F0F0F
                    }
                })
                .collect()
        } else {
            (0..n_in).map(|_| rng.gen()).collect()
        };
        let oa = simulate_words(a, &words);
        let ob = simulate_words(b, &words);
        for (k, (wa, wb)) in oa.iter().zip(&ob).enumerate() {
            let diff = wa ^ wb;
            if diff != 0 {
                let bit = diff.trailing_zeros();
                let cex: Vec<bool> = words.iter().map(|w| w >> bit & 1 != 0).collect();
                debug_assert_ne!(simulate_bools(a, &cex)[k], simulate_bools(b, &cex)[k]);
                return Some(cex);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use dacpara_aig::Aig;

    #[test]
    fn xor_simulates_correctly() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let x = aig.add_xor(a, b);
        aig.add_output(x);
        for (va, vb) in [(false, false), (false, true), (true, false), (true, true)] {
            let out = simulate_bools(&aig, &[va, vb]);
            assert_eq!(out[0], va ^ vb);
        }
    }

    #[test]
    fn equivalent_graphs_pass_random_sim() {
        let mut a = Aig::new();
        let x = a.add_input();
        let y = a.add_input();
        let and1 = a.add_and(x, y);
        a.add_output(!and1); // NAND

        let mut b = Aig::new();
        let x2 = b.add_input();
        let y2 = b.add_input();
        let or2 = b.add_or(!x2, !y2); // De Morgan NAND
        b.add_output(or2);

        assert_eq!(random_sim_check(&a, &b, 8, 42), None);
    }

    #[test]
    fn inequivalent_graphs_yield_counterexample() {
        let mut a = Aig::new();
        let x = a.add_input();
        let y = a.add_input();
        let and1 = a.add_and(x, y);
        a.add_output(and1);

        let mut b = Aig::new();
        let x2 = b.add_input();
        let y2 = b.add_input();
        let or2 = b.add_or(x2, y2);
        b.add_output(or2);

        let cex = random_sim_check(&a, &b, 8, 1).expect("expected a counterexample");
        assert_ne!(simulate_bools(&a, &cex), simulate_bools(&b, &cex));
    }

    #[test]
    fn constant_outputs() {
        let mut aig = Aig::new();
        let _ = aig.add_input();
        aig.add_output(dacpara_aig::Lit::TRUE);
        aig.add_output(dacpara_aig::Lit::FALSE);
        let out = simulate_words(&aig, &[0xDEAD]);
        assert_eq!(out, vec![!0u64, 0u64]);
    }
}
