//! AIGER round trips driven by the fuzz generator, plus the latch-free
//! edge shapes `parser_robustness.rs` never exercises: constant outputs,
//! outputs wired straight to (possibly complemented) inputs, dangling
//! inputs, and duplicate output literals. Every circuit must survive both
//! the ASCII and the binary encoding with identical structure and function.

use dacpara::testkit::FUZZ_CEC;
use dacpara_aig::{aiger, Aig, AigRead, Lit};
use dacpara_equiv::{check_equivalence, CecResult};
use dacpara_fuzz::gen::{generate, GenConfig};
use dacpara_fuzz::mutate::mutate;
use dacpara_suite::exhaustively_equivalent;
use proptest::prelude::*;

/// Round-trips `aig` through one encoding and checks structure + function.
fn assert_roundtrip(aig: &Aig, binary: bool) {
    let back = if binary {
        let mut buf = Vec::new();
        aiger::write_binary(aig, &mut buf).unwrap();
        aiger::read_binary(&buf[..]).unwrap()
    } else {
        aiger::parse(&aiger::to_string(aig)).unwrap()
    };
    back.check().unwrap();
    assert_eq!(back.num_inputs(), aig.num_inputs());
    assert_eq!(back.num_outputs(), aig.num_outputs());
    assert_eq!(back.num_ands(), aig.num_ands());
    if aig.num_inputs() <= 6 {
        assert!(exhaustively_equivalent(aig, &back));
    } else {
        assert!(matches!(
            check_equivalence(aig, &back, &FUZZ_CEC),
            CecResult::Equivalent | CecResult::Undecided
        ));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Generator output round-trips through both encodings.
    #[test]
    fn generated_circuits_roundtrip(seed in any::<u64>()) {
        let aig = generate(&GenConfig::small(), seed);
        assert_roundtrip(&aig, false);
        assert_roundtrip(&aig, true);
    }

    /// Mutants (which reach degenerate shapes the generator avoids —
    /// constant cones, bypassed gates, duplicate outputs) round-trip too.
    #[test]
    fn mutated_circuits_roundtrip(seed in any::<u64>(), ops in 1..5usize) {
        let aig = mutate(&generate(&GenConfig::small(), seed), ops, seed ^ 0xA16E5);
        assert_roundtrip(&aig, false);
        assert_roundtrip(&aig, true);
    }
}

/// Constant outputs (both polarities), in isolation and mixed with logic.
#[test]
fn constant_outputs_roundtrip() {
    let mut aig = Aig::new();
    let a = aig.add_input();
    let b = aig.add_input();
    let ab = aig.add_and(a, b);
    aig.add_output(Lit::FALSE);
    aig.add_output(Lit::TRUE);
    aig.add_output(ab);
    aig.check().unwrap();
    assert_roundtrip(&aig, false);
    assert_roundtrip(&aig, true);
}

/// Outputs wired straight to inputs, complemented and not, plus the same
/// input exported twice — no AND nodes at all.
#[test]
fn passthrough_outputs_roundtrip() {
    let mut aig = Aig::new();
    let a = aig.add_input();
    let b = aig.add_input();
    aig.add_output(a);
    aig.add_output(!b);
    aig.add_output(a);
    aig.check().unwrap();
    assert_eq!(aig.num_ands(), 0);
    assert_roundtrip(&aig, false);
    assert_roundtrip(&aig, true);
}

/// Dangling inputs (declared but never read) must survive the encodings —
/// the interface is part of the function.
#[test]
fn dangling_inputs_roundtrip() {
    let mut aig = Aig::new();
    let a = aig.add_input();
    let _unused = aig.add_input();
    let _unused_too = aig.add_input();
    aig.add_output(!a);
    aig.check().unwrap();
    assert_eq!(aig.num_inputs(), 3);
    assert_roundtrip(&aig, false);
    assert_roundtrip(&aig, true);
}

/// A single constant-false output and nothing else — the smallest legal
/// AIGER file this workspace can produce.
#[test]
fn minimal_constant_circuit_roundtrips() {
    let mut aig = Aig::new();
    aig.add_output(Lit::FALSE);
    aig.check().unwrap();
    assert_roundtrip(&aig, false);
    assert_roundtrip(&aig, true);
}
