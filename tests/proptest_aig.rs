//! Property tests of the AIG substrate: construction semantics, AIGER
//! round trips, replacement cascades, and structural invariants.

use dacpara_aig::{aiger, AigRead, Lit};
use dacpara_suite::{build_from_recipe, elementary_words, eval_recipe, Op};
use proptest::prelude::*;

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..64usize, any::<bool>(), 0..64usize, any::<bool>())
            .prop_map(|(i, ci, j, cj)| Op::And(i, ci, j, cj)),
        (0..64usize, any::<bool>(), 0..64usize, any::<bool>())
            .prop_map(|(i, ci, j, cj)| Op::Xor(i, ci, j, cj)),
        (0..64usize, 0..64usize, 0..64usize).prop_map(|(s, t, e)| Op::Mux(s, t, e)),
    ]
}

fn recipe() -> impl Strategy<Value = (usize, Vec<Op>, usize)> {
    (
        2..6usize,
        prop::collection::vec(op_strategy(), 1..40),
        1..4usize,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Folding + structural hashing never change the computed function.
    #[test]
    fn construction_matches_oracle((n_in, ops, n_out) in recipe()) {
        let aig = build_from_recipe(n_in, &ops, n_out);
        aig.check().unwrap();
        let words = elementary_words(n_in);
        let expect = eval_recipe(n_in, &ops, n_out, &words);
        let got = dacpara_equiv::simulate_words(&aig, &words);
        let mask = if n_in == 6 { !0u64 } else { (1u64 << (1 << n_in)) - 1 };
        for (g, e) in got.iter().zip(&expect) {
            prop_assert_eq!(g & mask, e & mask);
        }
    }

    /// Writing and re-reading AIGER preserves structure and function.
    #[test]
    fn aiger_roundtrip((n_in, ops, n_out) in recipe()) {
        let aig = build_from_recipe(n_in, &ops, n_out);
        let text = aiger::to_string(&aig);
        let back = aiger::parse(&text).unwrap();
        back.check().unwrap();
        prop_assert_eq!(back.num_ands(), aig.num_ands());
        prop_assert!(dacpara_suite::exhaustively_equivalent(&aig, &back));
    }

    /// The binary AIGER encoding round trips to the identical graph.
    #[test]
    fn binary_aiger_roundtrip((n_in, ops, n_out) in recipe()) {
        let aig = build_from_recipe(n_in, &ops, n_out);
        let mut buf = Vec::new();
        aiger::write_binary(&aig, &mut buf).unwrap();
        let back = aiger::read_binary(&buf[..]).unwrap();
        back.check().unwrap();
        prop_assert_eq!(back.num_ands(), aig.num_ands());
        prop_assert!(dacpara_suite::exhaustively_equivalent(&aig, &back));
    }

    /// The BLIF writer/reader round trips structure and function.
    #[test]
    fn blif_roundtrip((n_in, ops, n_out) in recipe()) {
        let aig = build_from_recipe(n_in, &ops, n_out);
        let text = dacpara_aig::blif::to_string(&aig, "prop");
        let back = dacpara_aig::blif::parse(&text).unwrap();
        back.check().unwrap();
        prop_assert_eq!(back.num_ands(), aig.num_ands());
        prop_assert!(dacpara_suite::exhaustively_equivalent(&aig, &back));
    }

    /// Replacing a node by a constant keeps the graph canonical, and a
    /// subsequent cleanup removes all dangling logic.
    #[test]
    fn replace_by_constant_keeps_invariants(
        (n_in, ops, n_out) in recipe(),
        pick in 0..1000usize,
        which in any::<bool>(),
    ) {
        let mut aig = build_from_recipe(n_in, &ops, n_out);
        let ands: Vec<_> = aig.and_ids().collect();
        if ands.is_empty() {
            return Ok(());
        }
        let victim = ands[pick % ands.len()];
        aig.replace(victim, if which { Lit::TRUE } else { Lit::FALSE });
        aig.check().unwrap();
        aig.cleanup();
        aig.check().unwrap();
    }

    /// Replacing a node with one of its fanins cascades correctly.
    #[test]
    fn replace_by_fanin_keeps_invariants(
        (n_in, ops, n_out) in recipe(),
        pick in 0..1000usize,
        side in any::<bool>(),
    ) {
        let mut aig = build_from_recipe(n_in, &ops, n_out);
        let ands: Vec<_> = aig.and_ids().collect();
        if ands.is_empty() {
            return Ok(());
        }
        let victim = ands[pick % ands.len()];
        let [a, b] = aig.fanins(victim);
        aig.replace(victim, if side { a } else { b });
        aig.check().unwrap();
        aig.cleanup();
        aig.check().unwrap();
    }

    /// `ConcurrentAig` round trips preserve structure and function.
    #[test]
    fn concurrent_roundtrip((n_in, ops, n_out) in recipe()) {
        let aig = build_from_recipe(n_in, &ops, n_out);
        let shared = dacpara_aig::concurrent::ConcurrentAig::from_aig(&aig, 0).unwrap();
        shared.check().unwrap();
        let back = shared.to_aig();
        prop_assert_eq!(back.num_ands(), aig.num_ands());
        prop_assert!(dacpara_suite::exhaustively_equivalent(&aig, &back));
    }
}
