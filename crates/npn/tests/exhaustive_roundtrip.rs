//! Exhaustive NPN round-trip over every 4-input function.
//!
//! For all 65536 truth tables: canonicalization must return a transform
//! that actually maps the function to its canonical representative, the
//! inverse transform must map it back exactly, and the set of distinct
//! representatives must be the textbook 222 NPN classes. This pins the
//! transform algebra (`apply`/`inverse`/`wire` composition) that every
//! engine's replacement builder leans on — a silent off-by-one in the
//! permutation tables would corrupt rewrites only on rare functions that
//! unit tests never sample.
//!
//! The memoized [`canon`] must also agree with [`canon_uncached`] on
//! every function, transform included.
//!
//! Ignored by default (it sweeps 65536 × 768 transform applications);
//! CI runs it in the release test step via `--ignored`.

use std::collections::HashSet;

use dacpara_npn::{canon, canon_uncached, ClassRegistry, NpnTransform, Tt4};

#[test]
#[ignore = "exhaustive sweep; run with --ignored (CI release tests do)"]
fn all_65536_functions_round_trip_through_canon() {
    let registry = ClassRegistry::global();
    let mut representatives = HashSet::new();
    for raw in 0..=u16::MAX {
        let f = Tt4::from_raw(raw);
        let (canonical, t) = canon_uncached(f);
        assert_eq!(
            t.apply(f),
            canonical,
            "transform does not achieve the canonical form for {raw:#06x}"
        );
        assert_eq!(
            t.inverse().apply(canonical),
            f,
            "inverse transform does not restore {raw:#06x}"
        );
        // The canonical representative is its own canonical form, and the
        // registry agrees both functions live in the same class.
        assert_eq!(canon_uncached(canonical).0, canonical);
        assert_eq!(registry.class_of(f), registry.class_of(canonical));
        representatives.insert(canonical.raw());
    }
    assert_eq!(
        representatives.len(),
        222,
        "distinct canonical representatives must be the 222 NPN classes"
    );
}

#[test]
#[ignore = "exhaustive sweep; run with --ignored (CI release tests do)"]
fn memoized_canon_matches_the_uncached_search_everywhere() {
    // The memo table must hand back exactly the transform the search
    // picks (not merely one reaching the same representative): structure
    // wiring, and therefore every rewrite, depends on it. Both the filling
    // lookup and the filled one are checked.
    for raw in 0..=u16::MAX {
        let f = Tt4::from_raw(raw);
        let want = canon_uncached(f);
        assert_eq!(canon(f), want, "first lookup of {raw:#06x}");
        assert_eq!(canon(f), want, "memoized lookup of {raw:#06x}");
    }
}

#[test]
#[ignore = "exhaustive sweep; run with --ignored (CI release tests do)"]
fn inverse_composes_to_identity_for_every_transform() {
    // 768 transforms × a basket of functions: t⁻¹∘t and t∘t⁻¹ are both the
    // identity on every sampled point, and (t⁻¹)⁻¹ is t again.
    let basket: Vec<Tt4> = (0..=u16::MAX).step_by(257).map(Tt4::from_raw).collect();
    for t in NpnTransform::all() {
        let inv = t.inverse();
        assert_eq!(inv.inverse(), t);
        for &f in &basket {
            assert_eq!(inv.apply(t.apply(f)), f);
            assert_eq!(t.apply(inv.apply(f)), f);
        }
    }
}
