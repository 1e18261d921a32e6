//! Oracle-soundness negative tests: prove the differential oracle's CEC
//! stage would actually convict a miscompile, and that the shrinker
//! preserves a semantic failure while minimizing.
//!
//! The positive suites show healthy engines pass; these show a *broken*
//! result cannot sneak through. A fuzzer whose oracle silently accepts
//! everything is worse than no fuzzer — this file is the reason to trust a
//! green campaign.

use dacpara::testkit::FUZZ_CEC;
use dacpara_aig::{same_interface, Aig, AigRead};
use dacpara_equiv::{check_equivalence, simulate_bools, CecResult};
use dacpara_fuzz::gen::{generate, GenConfig};
use dacpara_fuzz::mutate::mutate_until_inequivalent;
use dacpara_fuzz::shrink::{shrink, ShrinkConfig};

/// A function-changing mutation must be provably inequivalent under the
/// same CEC policy the oracle uses, and the counterexample it returns
/// must actually separate the pair.
#[test]
fn function_changing_mutation_is_convicted() {
    for seed in [5u64, 23, 71] {
        let golden = generate(&GenConfig::small(), seed);
        let (mutant, cex) =
            mutate_until_inequivalent(&golden, seed ^ 0xBAD, 60).expect("mutation space dry");
        assert!(same_interface(&golden, &mutant));
        assert!(matches!(
            check_equivalence(&golden, &mutant, &FUZZ_CEC),
            CecResult::Inequivalent(_)
        ));
        let oa = simulate_bools(&golden, &cex);
        let ob = simulate_bools(&mutant, &cex);
        assert_ne!(oa, ob, "counterexample must separate golden and mutant");
    }
}

/// Shrinking an inequivalent mutant against the fixed golden keeps the
/// inequivalence alive all the way down: the minimized circuit is still a
/// counterexample to "the engines preserved the function", only smaller.
#[test]
fn shrinker_preserves_inequivalence() {
    let golden = generate(&GenConfig::small(), 41);
    let (mutant, _) = mutate_until_inequivalent(&golden, 0xFEED, 60).expect("mutation space dry");

    let still_fails = |candidate: &Aig| {
        // Reductions that change the interface can no longer be compared
        // against the fixed golden; the predicate rejects them and the
        // shrinker moves on to interface-preserving reductions.
        same_interface(&golden, candidate)
            && matches!(
                check_equivalence(&golden, candidate, &FUZZ_CEC),
                CecResult::Inequivalent(_)
            )
    };
    assert!(still_fails(&mutant), "shrink input must fail to begin with");

    let small = shrink(&mutant, &ShrinkConfig::default(), still_fails);
    small.check().unwrap();
    assert!(still_fails(&small), "shrinker lost the inequivalence");
    assert!(
        small.num_ands() <= mutant.num_ands(),
        "shrinker grew the witness: {} -> {}",
        mutant.num_ands(),
        small.num_ands()
    );
}

/// The oracle's invariant-checking stage is not vacuous either: the
/// generator only ever hands it circuits that pass `check()`, so assert the
/// precondition holds for a spread of seeds (a generator regression that
/// emits broken circuits would otherwise convert every campaign into noise).
#[test]
fn generated_circuits_always_pass_the_invariant_checker() {
    for seed in 0..40u64 {
        let aig = generate(&GenConfig::small(), seed);
        aig.check().unwrap();
        assert!(aig.num_outputs() > 0);
    }
}
