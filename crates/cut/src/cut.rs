//! The 4-feasible cut datatype.

use dacpara_aig::NodeId;
use dacpara_npn::Tt4;

/// Maximum number of leaves of a cut (4-input rewriting).
pub const MAX_LEAVES: usize = 4;

/// A cut of an AIG node: up to four leaf nodes such that every path from the
/// primary inputs to the root passes through a leaf, together with the truth
/// table of the root expressed over the leaves (in sorted leaf order).
///
/// # Example
///
/// ```
/// use dacpara_aig::NodeId;
/// use dacpara_cut::Cut;
/// use dacpara_npn::Tt4;
///
/// let cut = Cut::trivial(NodeId::new(7));
/// assert_eq!(cut.leaves(), [NodeId::new(7)]);
/// assert_eq!(cut.tt(), Tt4::var(0));
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct Cut {
    len: u8,
    leaves: [NodeId; MAX_LEAVES],
    tt: Tt4,
}

impl Cut {
    /// The trivial cut `{n}` whose function is the projection on `n`.
    pub fn trivial(n: NodeId) -> Cut {
        Cut {
            len: 1,
            leaves: [n, NodeId::CONST0, NodeId::CONST0, NodeId::CONST0],
            tt: Tt4::var(0),
        }
    }

    /// The empty cut of the constant node (function false, no leaves).
    pub fn constant() -> Cut {
        Cut {
            len: 0,
            leaves: [NodeId::CONST0; MAX_LEAVES],
            tt: Tt4::FALSE,
        }
    }

    /// Builds a cut from sorted, distinct leaves and a truth table over them.
    ///
    /// # Panics
    ///
    /// Panics if there are more than four leaves or they are not strictly
    /// ascending.
    pub fn new(leaves: &[NodeId], tt: Tt4) -> Cut {
        assert!(leaves.len() <= MAX_LEAVES, "at most four leaves");
        assert!(
            leaves.windows(2).all(|w| w[0] < w[1]),
            "leaves must be strictly ascending"
        );
        let mut arr = [NodeId::CONST0; MAX_LEAVES];
        arr[..leaves.len()].copy_from_slice(leaves);
        Cut {
            len: leaves.len() as u8,
            leaves: arr,
            tt,
        }
    }

    /// The leaves, sorted ascending.
    #[inline]
    pub fn leaves(&self) -> &[NodeId] {
        &self.leaves[..self.len as usize]
    }

    /// Number of leaves.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether this is the empty (constant) cut.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether this is a trivial single-leaf cut.
    #[inline]
    pub fn is_trivial(&self) -> bool {
        self.len == 1
    }

    /// Truth table of the root over the leaves (leaf `i` is variable `i`).
    #[inline]
    pub fn tt(&self) -> Tt4 {
        self.tt
    }

    /// Replaces the truth table (enumeration fills it in once a merge has
    /// survived the dominance filter).
    #[inline]
    pub(crate) fn set_tt(&mut self, tt: Tt4) {
        self.tt = tt;
    }

    /// The 64-bit membership signature used to prescreen dominance tests
    /// and merges: bit `leaf % 64` for each leaf. It is computed from the
    /// leaves rather than stored, which keeps a cut, and so the cut memo,
    /// at 20 bytes a cut.
    #[inline]
    pub fn sign(&self) -> u64 {
        // Branch-free over the four leaf slots; the padding slots past
        // `len` contribute nothing.
        let mut sign = 0;
        for (i, l) in self.leaves.iter().enumerate() {
            let present = u64::from(i < usize::from(self.len));
            sign |= present << (l.raw() % 64);
        }
        sign
    }

    /// Whether every leaf of `self` is a leaf of `other`.
    pub fn dominates(&self, other: &Cut) -> bool {
        if self.len > other.len || self.sign() & !other.sign() != 0 {
            return false;
        }
        self.leaves().iter().all(|l| other.leaves().contains(l))
    }

    /// Merges the leaf sets of two cuts; `None` if the union exceeds four.
    pub fn merge_leaves(&self, other: &Cut) -> Option<([NodeId; MAX_LEAVES], usize)> {
        let mut out = [NodeId::CONST0; MAX_LEAVES];
        let (mut i, mut j, mut k) = (0usize, 0usize, 0usize);
        let a = self.leaves();
        let b = other.leaves();
        while i < a.len() || j < b.len() {
            let next = match (a.get(i), b.get(j)) {
                (Some(&x), Some(&y)) if x == y => {
                    i += 1;
                    j += 1;
                    x
                }
                (Some(&x), Some(&y)) if x < y => {
                    i += 1;
                    x
                }
                (Some(_), Some(&y)) => {
                    j += 1;
                    y
                }
                (Some(&x), None) => {
                    i += 1;
                    x
                }
                (None, Some(&y)) => {
                    j += 1;
                    y
                }
                (None, None) => unreachable!(),
            };
            if k == MAX_LEAVES {
                return None;
            }
            out[k] = next;
            k += 1;
        }
        Some((out, k))
    }

    /// Re-expresses this cut's truth table over a superset leaf ordering.
    ///
    /// `merged` must contain every leaf of `self` in ascending order. Both
    /// orderings are ascending, so leaf `i` moves to a position `p_i >= i`
    /// with `p_0 < p_1 < ...`; stretching from the highest leaf down, each
    /// variable slides up through positions the table does not depend on,
    /// one adjacent-variable swap at a time.
    pub fn expand_tt(&self, merged: &[NodeId]) -> Tt4 {
        let mut t = self.tt.raw();
        for (i, l) in self.leaves().iter().enumerate().rev() {
            let p = merged
                .iter()
                .position(|m| m == l)
                .expect("merged leaves must be a superset");
            for v in i..p {
                t = swap_adjacent(t, v);
            }
        }
        Tt4::from_raw(t)
    }
}

/// Swaps variables `v` and `v + 1` of a 4-input truth table: minterms with
/// `x_v = x_{v+1}` stay, the two mixed halves trade places.
fn swap_adjacent(t: u16, v: usize) -> u16 {
    const KEEP: [u16; 3] = [0x9999, 0xC3C3, 0xF00F];
    const UP: [u16; 3] = [0x2222, 0x0C0C, 0x00F0];
    let shift = 1 << v;
    t & KEEP[v] | (t & UP[v]) << shift | (t >> shift) & UP[v]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn dominance() {
        let small = Cut::new(&[n(1), n(2)], Tt4::var(0));
        let big = Cut::new(&[n(1), n(2), n(3)], Tt4::var(0));
        assert!(small.dominates(&big));
        assert!(!big.dominates(&small));
        assert!(small.dominates(&small));
        let other = Cut::new(&[n(1), n(4)], Tt4::var(0));
        assert!(!other.dominates(&big));
    }

    #[test]
    fn merge_respects_limit() {
        let a = Cut::new(&[n(1), n(2), n(3)], Tt4::var(0));
        let b = Cut::new(&[n(3), n(4)], Tt4::var(0));
        let (leaves, k) = a.merge_leaves(&b).unwrap();
        assert_eq!(&leaves[..k], &[n(1), n(2), n(3), n(4)]);
        let c = Cut::new(&[n(5), n(6)], Tt4::var(0));
        assert!(a.merge_leaves(&c).is_none());
    }

    #[test]
    fn a_cut_is_20_bytes() {
        // The cut memo stores every set it computes in a session run
        // (`CutStore`), so a cut's size is the memo's peak memory.
        assert_eq!(std::mem::size_of::<Cut>(), 20);
    }

    #[test]
    fn signature_prefilter_never_rejects_a_feasible_merge() {
        // Every pair of 1-4-leaf cuts over ids where 65, 66 and 67 collide
        // with 1, 2 and 3 modulo 64: more than four signature bits must
        // mean the merge fails. Collisions only hide leaves, so the reverse
        // does not hold, and the sweep must see both kinds of pair.
        let ids = [1, 2, 3, 4, 5, 6, 65, 66, 67];
        let cuts: Vec<Cut> = (1u32..1 << ids.len())
            .filter(|mask| (1..=MAX_LEAVES as u32).contains(&mask.count_ones()))
            .map(|mask| {
                let leaves: Vec<NodeId> = (0..ids.len())
                    .filter(|b| mask >> b & 1 != 0)
                    .map(|b| n(ids[b]))
                    .collect();
                Cut::new(&leaves, Tt4::FALSE)
            })
            .collect();
        let (mut rejected, mut collided) = (0, 0);
        for a in &cuts {
            for b in &cuts {
                let merged = a.merge_leaves(b);
                if (a.sign() | b.sign()).count_ones() as usize > MAX_LEAVES {
                    assert!(merged.is_none(), "{:?} + {:?}", a.leaves(), b.leaves());
                    rejected += 1;
                } else if merged.is_none() {
                    collided += 1;
                }
            }
        }
        assert!(rejected > 0 && collided > 0, "{rejected} / {collided}");
    }

    #[test]
    fn expand_tt_repositions_variables() {
        // Cut over {5, 9} computing leaf0 & leaf1; expand over {2, 5, 9}.
        let cut = Cut::new(&[n(5), n(9)], Tt4::var(0) & Tt4::var(1));
        let expanded = cut.expand_tt(&[n(2), n(5), n(9)]);
        assert_eq!(expanded, Tt4::var(1) & Tt4::var(2));
    }

    /// The bit-by-bit definition `expand_tt` must match: minterm `m` of the
    /// merged ordering reads the cut table at the leaves' merged positions.
    fn expand_tt_reference(cut: &Cut, merged: &[NodeId]) -> Tt4 {
        let pos: Vec<usize> = cut
            .leaves()
            .iter()
            .map(|l| merged.iter().position(|m| m == l).unwrap())
            .collect();
        let mut g = 0u16;
        for m in 0..16u16 {
            let mut child = 0u16;
            for (i, &p) in pos.iter().enumerate() {
                child |= (m >> p & 1) << i;
            }
            if cut.tt().raw() >> child & 1 != 0 {
                g |= 1 << m;
            }
        }
        Tt4::from_raw(g)
    }

    #[test]
    fn expand_tt_matches_the_reference_exhaustively() {
        // Every placement of a k-leaf cut among four merged slots (15 in
        // all), against every table that ignores variables k and above —
        // the only tables a k-leaf cut can carry.
        let merged = [n(10), n(20), n(30), n(40)];
        for mask in 1u32..16 {
            let leaves: Vec<NodeId> = (0..4)
                .filter(|b| mask >> b & 1 != 0)
                .map(|b| merged[b])
                .collect();
            let k = leaves.len();
            for raw in 0..=u16::MAX {
                let tt = Tt4::from_raw(raw);
                if (k..4).any(|v| tt.depends_on(v)) {
                    continue;
                }
                let cut = Cut::new(&leaves, tt);
                assert_eq!(
                    cut.expand_tt(&merged),
                    expand_tt_reference(&cut, &merged),
                    "leaves {mask:#06b}, table {raw:#06x}"
                );
            }
        }
    }

    #[test]
    fn swap_adjacent_exchanges_projections() {
        for v in 0..3 {
            assert_eq!(swap_adjacent(Tt4::var(v).raw(), v), Tt4::var(v + 1).raw());
            assert_eq!(swap_adjacent(Tt4::var(v + 1).raw(), v), Tt4::var(v).raw());
            for other in (0..4).filter(|&o| o != v && o != v + 1) {
                assert_eq!(
                    swap_adjacent(Tt4::var(other).raw(), v),
                    Tt4::var(other).raw()
                );
            }
        }
    }

    #[test]
    fn constant_cut_is_empty_and_false() {
        let c = Cut::constant();
        assert!(c.is_empty());
        assert_eq!(c.tt(), Tt4::FALSE);
        assert_eq!(c.expand_tt(&[n(3)]), Tt4::FALSE);
    }
}
