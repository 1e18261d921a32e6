//! The NPN structure library ("NST" in the paper): per NPN class, a ranked
//! list of precomputed AIG subgraphs computing the class representative.

use std::sync::OnceLock;

use dacpara_npn::{ClassId, ClassRegistry, Tt4};

use crate::forest::{FLit, Forest};
use crate::shannon::{synthesize_candidates, BuildMemo};

/// Input of a structure gate (or the structure's root).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum StructIn {
    /// A constant.
    Const(bool),
    /// Cut variable `var` (0..=3), optionally complemented.
    Leaf {
        /// Which cut variable (0..=3).
        var: u8,
        /// Whether the edge is complemented.
        neg: bool,
    },
    /// Output of gate `idx` (an earlier entry of [`Structure::gates`]),
    /// optionally complemented.
    Gate {
        /// Index of the driving gate within [`Structure::gates`].
        idx: u16,
        /// Whether the edge is complemented.
        neg: bool,
    },
}

impl StructIn {
    /// Applies an extra complementation.
    #[must_use]
    pub fn xor(self, c: bool) -> StructIn {
        match self {
            StructIn::Const(b) => StructIn::Const(b ^ c),
            StructIn::Leaf { var, neg } => StructIn::Leaf { var, neg: neg ^ c },
            StructIn::Gate { idx, neg } => StructIn::Gate { idx, neg: neg ^ c },
        }
    }
}

/// A self-contained replacement structure: AND gates in topological order
/// over four cut variables.
///
/// # Example
///
/// ```
/// use dacpara_npn::{ClassRegistry, Tt4};
/// use dacpara_nst::NpnLibrary;
///
/// let lib = NpnLibrary::global();
/// let reg = ClassRegistry::global();
/// let class = reg.class_of(Tt4::var(0) & Tt4::var(1));
/// let s = &lib.structures(class)[0];
/// assert_eq!(s.function(), reg.representative(class));
/// assert_eq!(s.size(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct Structure {
    gates: Vec<[StructIn; 2]>,
    root: StructIn,
}

impl Structure {
    /// Extracts the cone of `root` from a forest.
    pub fn from_forest(forest: &Forest, root: FLit) -> Structure {
        let cone = forest.cone(root);
        let map_in = |l: FLit, cone: &[u32]| -> StructIn {
            let n = l.node();
            if n == 0 {
                StructIn::Const(l.is_complement())
            } else if n <= 4 {
                StructIn::Leaf {
                    var: (n - 1) as u8,
                    neg: l.is_complement(),
                }
            } else {
                let idx = cone.iter().position(|&c| c == n).expect("cone closed") as u16;
                StructIn::Gate {
                    idx,
                    neg: l.is_complement(),
                }
            }
        };
        let gates = cone
            .iter()
            .map(|&n| {
                let [a, b] = forest.fanins(FLit::positive(n));
                [map_in(a, &cone), map_in(b, &cone)]
            })
            .collect();
        Structure {
            gates,
            root: map_in(root, &cone),
        }
    }

    /// The gates, in topological order.
    pub fn gates(&self) -> &[[StructIn; 2]] {
        &self.gates
    }

    /// The root reference (a gate, leaf or constant).
    pub fn root(&self) -> StructIn {
        self.root
    }

    /// Number of AND gates.
    pub fn size(&self) -> usize {
        self.gates.len()
    }

    /// Simulates the structure on arbitrary leaf functions.
    pub fn simulate(&self, leaves: [Tt4; 4]) -> Tt4 {
        let mut values: Vec<Tt4> = Vec::with_capacity(self.gates.len());
        let eval = |i: StructIn, values: &[Tt4]| -> Tt4 {
            match i {
                StructIn::Const(b) => {
                    if b {
                        Tt4::TRUE
                    } else {
                        Tt4::FALSE
                    }
                }
                StructIn::Leaf { var, neg } => {
                    let t = leaves[var as usize];
                    if neg {
                        !t
                    } else {
                        t
                    }
                }
                StructIn::Gate { idx, neg } => {
                    let t = values[idx as usize];
                    if neg {
                        !t
                    } else {
                        t
                    }
                }
            }
        };
        for g in &self.gates {
            let a = eval(g[0], &values);
            let b = eval(g[1], &values);
            values.push(a & b);
        }
        eval(self.root, &values)
    }

    /// The function computed over the elementary variables.
    pub fn function(&self) -> Tt4 {
        self.simulate([Tt4::var(0), Tt4::var(1), Tt4::var(2), Tt4::var(3)])
    }

    /// Logic depth of the root given the depth of each leaf.
    pub fn eval_depth(&self, leaf_depths: [u32; 4]) -> u32 {
        let mut depths: Vec<u32> = Vec::with_capacity(self.gates.len());
        let d = |i: StructIn, depths: &[u32]| -> u32 {
            match i {
                StructIn::Const(_) => 0,
                StructIn::Leaf { var, .. } => leaf_depths[var as usize],
                StructIn::Gate { idx, .. } => depths[idx as usize],
            }
        };
        for g in &self.gates {
            let v = 1 + d(g[0], &depths).max(d(g[1], &depths));
            depths.push(v);
        }
        d(self.root, &depths)
    }
}

/// Upper bound on the gates of any library structure (the largest built
/// today has 24), so per-structure scratch can live in a fixed array.
pub const MAX_STRUCTURE_GATES: usize = 32;

/// The per-class structure library.
///
/// Every structure has at most [`MAX_STRUCTURE_GATES`] gates.
pub struct NpnLibrary {
    per_class: Vec<Vec<Structure>>,
}

impl NpnLibrary {
    /// Builds the library for every NPN class (Shannon/XOR splits on each
    /// dependent variable plus both-polarity flat and factored ISOP; see
    /// `DESIGN.md` for how this substitutes ABC's precomputed blob).
    pub fn build() -> NpnLibrary {
        let reg = ClassRegistry::global();
        let mut forest = Forest::new();
        let mut memo = BuildMemo::new();
        let per_class = reg
            .representatives()
            .iter()
            .enumerate()
            .map(|(id, &rep)| {
                let structures: Vec<Structure> = synthesize_candidates(&mut forest, rep, &mut memo)
                    .into_iter()
                    .map(|root| Structure::from_forest(&forest, root))
                    .collect();
                debug_assert!(
                    structures.iter().all(|s| s.function() == rep),
                    "class {id} has a structure off its representative"
                );
                assert!(
                    structures.iter().all(|s| s.size() <= MAX_STRUCTURE_GATES),
                    "class {id} has a structure above MAX_STRUCTURE_GATES"
                );
                structures
            })
            .collect();
        NpnLibrary { per_class }
    }

    /// The process-wide library (built once on first use).
    pub fn global() -> &'static NpnLibrary {
        static LIB: OnceLock<NpnLibrary> = OnceLock::new();
        LIB.get_or_init(NpnLibrary::build)
    }

    /// The candidate structures of a class, sorted by ascending size.
    pub fn structures(&self, id: ClassId) -> &[Structure] {
        &self.per_class[id as usize]
    }

    /// Size of the smallest structure of a class.
    pub fn min_size(&self, id: ClassId) -> usize {
        self.per_class[id as usize]
            .first()
            .map(Structure::size)
            .unwrap_or(0)
    }

    /// Number of classes covered (always 222).
    pub fn num_classes(&self) -> usize {
        self.per_class.len()
    }

    /// Total number of structures across all classes.
    pub fn num_structures(&self) -> usize {
        self.per_class.iter().map(Vec::len).sum()
    }
}

impl std::fmt::Debug for NpnLibrary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NpnLibrary")
            .field("classes", &self.num_classes())
            .field("structures", &self.num_structures())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_class_is_covered() {
        let lib = NpnLibrary::global();
        let reg = ClassRegistry::global();
        assert_eq!(lib.num_classes(), 222);
        assert_eq!(lib.num_structures(), 1701);
        for id in 0..reg.len() as ClassId {
            assert!(
                !lib.structures(id).is_empty(),
                "class {id} has no structures"
            );
        }
    }

    #[test]
    fn structures_compute_their_representative() {
        let lib = NpnLibrary::global();
        let reg = ClassRegistry::global();
        for id in (0..reg.len() as ClassId).step_by(11) {
            let rep = reg.representative(id);
            for s in lib.structures(id) {
                assert_eq!(s.function(), rep, "class {id}");
            }
        }
    }

    #[test]
    fn structures_sorted_by_size() {
        let lib = NpnLibrary::global();
        for id in 0..lib.num_classes() as ClassId {
            let sizes: Vec<usize> = lib.structures(id).iter().map(Structure::size).collect();
            assert!(sizes.windows(2).all(|w| w[0] <= w[1]), "class {id}");
        }
    }

    #[test]
    fn depth_evaluation_matches_balanced_and() {
        let lib = NpnLibrary::global();
        let reg = ClassRegistry::global();
        let and4 = Tt4::var(0) & Tt4::var(1) & Tt4::var(2) & Tt4::var(3);
        let id = reg.class_of(and4);
        let best = &lib.structures(id)[0];
        // Balanced 4-AND has depth 2 from equal-depth leaves.
        assert!(best.eval_depth([0, 0, 0, 0]) <= 3);
        assert!(best.eval_depth([5, 0, 0, 0]) >= 6);
    }
}
