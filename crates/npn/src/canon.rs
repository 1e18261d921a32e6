//! NPN canonicalization of 4-input functions.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;

use crate::{NpnTransform, Tt4};

/// Marks a filled [`canon`] table entry (an empty entry is all zeros).
const FILLED: u32 = 1 << 31;

/// Packs a canonicalization result into one table word: the representative
/// in bits 0–15, the permutation index in 16–20, the input negations in
/// 21–24, the output negation in bit 25, and [`FILLED`].
fn pack((rep, t): (Tt4, NpnTransform)) -> u32 {
    FILLED
        | u32::from(rep.raw())
        | u32::from(t.perm) << 16
        | u32::from(t.input_neg) << 21
        | u32::from(t.output_neg) << 25
}

fn unpack(word: u32) -> (Tt4, NpnTransform) {
    let t = NpnTransform {
        perm: (word >> 16 & 0x1f) as u8,
        input_neg: (word >> 21 & 0xf) as u8,
        output_neg: word >> 25 & 1 != 0,
    };
    (Tt4::from_raw(word as u16), t)
}

/// Canonical representative of `f`'s NPN class: the minimum raw truth table
/// over all 768 transforms, together with one transform achieving it.
///
/// Results are memoized in a process-wide table with one atomic word per
/// function, filled lazily: rewriting canonicalizes the same handful of
/// functions over and over, from every worker at once, and a lookup is a
/// single relaxed load. Racing fills store the same word, and the stored
/// transform is exactly [`canon_uncached`]'s, so callers see the same
/// wiring whichever thread filled the entry.
///
/// # Example
///
/// ```
/// use dacpara_npn::{canon, Tt4};
/// let (c1, _) = canon(Tt4::var(0));
/// let (c2, _) = canon(!Tt4::var(3));
/// assert_eq!(c1, c2); // all (possibly negated) projections share a class
/// ```
pub fn canon(f: Tt4) -> (Tt4, NpnTransform) {
    static TABLE: OnceLock<Box<[AtomicU32]>> = OnceLock::new();
    let table = TABLE.get_or_init(|| (0..1 << 16).map(|_| AtomicU32::new(0)).collect());
    let slot = &table[f.raw() as usize];
    let word = slot.load(Ordering::Relaxed);
    if word & FILLED != 0 {
        return unpack(word);
    }
    let result = canon_uncached(f);
    slot.store(pack(result), Ordering::Relaxed);
    result
}

/// Like [`canon`] but bypassing the memo cache.
pub fn canon_uncached(f: Tt4) -> (Tt4, NpnTransform) {
    let mut best = (Tt4::TRUE, NpnTransform::IDENTITY);
    let mut first = true;
    for t in NpnTransform::all() {
        let g = t.apply(f);
        if first || g < best.0 {
            best = (g, t);
            first = false;
        }
    }
    best
}

/// The full orbit of `f`: every function NPN-equivalent to it.
pub fn orbit(f: Tt4) -> Vec<Tt4> {
    let mut seen = vec![false; 1 << 16];
    let mut out = Vec::new();
    for t in NpnTransform::all() {
        let g = t.apply(f);
        if !seen[g.raw() as usize] {
            seen[g.raw() as usize] = true;
            out.push(g);
        }
    }
    out
}

/// Whether two functions are NPN-equivalent.
pub fn npn_equivalent(f: Tt4, g: Tt4) -> bool {
    canon(f).0 == canon(g).0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canon_is_invariant_over_the_orbit() {
        let f = Tt4::from_raw(0x6996); // xor of the four variables
        let (c, _) = canon(f);
        for g in orbit(f).into_iter().take(50) {
            assert_eq!(canon(g).0, c);
        }
    }

    #[test]
    fn canon_transform_achieves_canon() {
        for raw in [0x0000u16, 0xFFFF, 0x8000, 0x1ee7, 0x6996, 0xCAFE] {
            let f = Tt4::from_raw(raw);
            let (c, t) = canon(f);
            assert_eq!(t.apply(f), c);
        }
    }

    #[test]
    fn packed_entries_round_trip_every_transform() {
        for t in NpnTransform::all() {
            for raw in [0x0000u16, 0xFFFF, 0x1ee7] {
                let entry = (Tt4::from_raw(raw), t);
                assert_eq!(unpack(pack(entry)), entry);
            }
        }
    }

    #[test]
    fn cached_and_uncached_agree_on_repeated_lookups() {
        for raw in [0x0000u16, 0xFFFF, 0x8000, 0x1ee7, 0x6996, 0xCAFE] {
            let f = Tt4::from_raw(raw);
            let miss = canon(f);
            assert_eq!(miss, canon_uncached(f));
            assert_eq!(canon(f), miss, "a filled entry returns what was stored");
        }
    }

    #[test]
    fn constants_are_their_own_classes() {
        assert_eq!(canon(Tt4::FALSE).0, Tt4::FALSE);
        // TRUE canonicalizes to FALSE via output negation.
        assert_eq!(canon(Tt4::TRUE).0, Tt4::FALSE);
    }

    #[test]
    fn equivalence_is_symmetric() {
        let f = Tt4::var(0) & Tt4::var(1);
        let g = !(Tt4::var(2) | Tt4::var(3));
        assert!(npn_equivalent(f, g));
        assert!(npn_equivalent(g, f));
        assert!(!npn_equivalent(f, Tt4::var(0) ^ Tt4::var(1)));
    }
}
