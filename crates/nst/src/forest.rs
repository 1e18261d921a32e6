//! A hash-consed AND-inverter forest over four variables.
//!
//! The structure library is itself a miniature AIG whose primary inputs are
//! the four cut variables. Hash-consing makes structures generated for
//! different NPN classes share subgraphs, exactly like ABC's `Rwr_Man`
//! forest.

use std::collections::HashMap;

use dacpara_npn::Tt4;

/// Edge literal inside the forest: `2 * node + complement`.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FLit(u32);

impl FLit {
    /// Constant false (node 0, plain).
    pub const FALSE: FLit = FLit(0);
    /// Constant true (node 0, complemented).
    pub const TRUE: FLit = FLit(1);

    fn new(node: u32, neg: bool) -> FLit {
        FLit(node << 1 | neg as u32)
    }

    /// The plain (non-complemented) literal on forest node `node`.
    pub fn positive(node: u32) -> FLit {
        FLit::new(node, false)
    }

    /// The forest node this literal points at.
    pub fn node(self) -> u32 {
        self.0 >> 1
    }

    /// Whether the edge is complemented.
    pub fn is_complement(self) -> bool {
        self.0 & 1 != 0
    }
}

impl std::ops::Not for FLit {
    type Output = FLit;
    fn not(self) -> FLit {
        FLit(self.0 ^ 1)
    }
}

#[derive(Clone, Debug)]
struct FNode {
    fanin: [FLit; 2],
    tt: Tt4,
    /// Number of gates in the node's cone (for cost ranking).
    cone_size: u32,
}

/// Hash-consed forest of AND gates over variables `x0..x3`.
///
/// Node 0 is the constant, nodes 1–4 the variables.
///
/// # Example
///
/// ```
/// use dacpara_nst::Forest;
/// use dacpara_npn::Tt4;
///
/// let mut forest = Forest::new();
/// let x0 = Forest::var(0);
/// let x1 = Forest::var(1);
/// let a = forest.add_and(x0, x1);
/// assert_eq!(forest.tt(a), Tt4::var(0) & Tt4::var(1));
/// assert_eq!(forest.add_and(x1, x0), a); // hash-consed
/// ```
#[derive(Clone, Debug)]
pub struct Forest {
    nodes: Vec<FNode>,
    strash: HashMap<(FLit, FLit), u32>,
}

impl Default for Forest {
    fn default() -> Self {
        Self::new()
    }
}

impl Forest {
    /// Creates a forest containing the constant and the four variables.
    pub fn new() -> Forest {
        let mut nodes = Vec::with_capacity(64);
        nodes.push(FNode {
            fanin: [FLit::FALSE; 2],
            tt: Tt4::FALSE,
            cone_size: 0,
        });
        for k in 0..4 {
            nodes.push(FNode {
                fanin: [FLit::FALSE; 2],
                tt: Tt4::var(k),
                cone_size: 0,
            });
        }
        Forest {
            nodes,
            strash: HashMap::new(),
        }
    }

    /// The literal of variable `k` (0..=3).
    ///
    /// # Panics
    ///
    /// Panics if `k >= 4`.
    pub fn var(k: usize) -> FLit {
        assert!(k < 4);
        FLit::new(k as u32 + 1, false)
    }

    /// Number of nodes (constant + variables + gates).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the forest holds no gates yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 5
    }

    /// The function computed by a literal.
    pub fn tt(&self, l: FLit) -> Tt4 {
        let t = self.nodes[l.node() as usize].tt;
        if l.is_complement() {
            !t
        } else {
            t
        }
    }

    /// Number of gates in the cone of `l`.
    pub fn cone_size(&self, l: FLit) -> u32 {
        self.nodes[l.node() as usize].cone_size
    }

    /// Fanins of a gate node.
    ///
    /// # Panics
    ///
    /// Panics if `l` points at a variable or the constant.
    pub fn fanins(&self, l: FLit) -> [FLit; 2] {
        assert!(l.node() >= 5, "no fanins on leaves");
        self.nodes[l.node() as usize].fanin
    }

    /// AND with folding and hash-consing.
    pub fn add_and(&mut self, a: FLit, b: FLit) -> FLit {
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        // One-level folding.
        if a == FLit::FALSE {
            return FLit::FALSE;
        }
        if a == FLit::TRUE {
            return b;
        }
        if a == b {
            return a;
        }
        if a.node() == b.node() {
            return FLit::FALSE;
        }
        if let Some(&n) = self.strash.get(&(a, b)) {
            return FLit::new(n, false);
        }
        let tt = self.tt(a) & self.tt(b);
        // Gate count of the cone: union of the two cones plus this gate —
        // approximate with an exact DFS (forests stay small).
        let cone_size = self.union_cone_size(a, b) + 1;
        let idx = self.nodes.len() as u32;
        self.nodes.push(FNode {
            fanin: [a, b],
            tt,
            cone_size,
        });
        self.strash.insert((a, b), idx);
        FLit::new(idx, false)
    }

    /// OR via De Morgan.
    pub fn add_or(&mut self, a: FLit, b: FLit) -> FLit {
        !self.add_and(!a, !b)
    }

    /// XOR (three gates).
    pub fn add_xor(&mut self, a: FLit, b: FLit) -> FLit {
        let x = self.add_and(a, !b);
        let y = self.add_and(!a, b);
        self.add_or(x, y)
    }

    /// Multiplexer `if s then t else e`.
    pub fn add_mux(&mut self, s: FLit, t: FLit, e: FLit) -> FLit {
        let st = self.add_and(s, t);
        let se = self.add_and(!s, e);
        self.add_or(st, se)
    }

    fn union_cone_size(&self, a: FLit, b: FLit) -> u32 {
        let mut seen: Vec<u32> = Vec::new();
        let mut stack = vec![a.node(), b.node()];
        let mut count = 0u32;
        while let Some(n) = stack.pop() {
            if n < 5 || seen.contains(&n) {
                continue;
            }
            seen.push(n);
            count += 1;
            let [fa, fb] = self.nodes[n as usize].fanin;
            stack.push(fa.node());
            stack.push(fb.node());
        }
        count
    }

    /// The gate nodes in the cone of `root`, in topological order.
    pub fn cone(&self, root: FLit) -> Vec<u32> {
        let mut order = Vec::new();
        let mut seen: Vec<u32> = Vec::new();
        let mut stack: Vec<(u32, bool)> = vec![(root.node(), false)];
        while let Some((n, done)) = stack.pop() {
            if n < 5 {
                continue;
            }
            if done {
                order.push(n);
                continue;
            }
            if seen.contains(&n) {
                continue;
            }
            seen.push(n);
            stack.push((n, true));
            let [a, b] = self.nodes[n as usize].fanin;
            stack.push((a.node(), false));
            stack.push((b.node(), false));
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folding_and_consing() {
        let mut f = Forest::new();
        let x = Forest::var(0);
        let y = Forest::var(1);
        assert_eq!(f.add_and(x, FLit::FALSE), FLit::FALSE);
        assert_eq!(f.add_and(x, FLit::TRUE), x);
        assert_eq!(f.add_and(x, !x), FLit::FALSE);
        let a = f.add_and(x, y);
        assert_eq!(f.add_and(y, x), a);
        assert_eq!(f.len(), 6);
    }

    #[test]
    fn tts_compose() {
        let mut f = Forest::new();
        let x = Forest::var(0);
        let y = Forest::var(1);
        let z = Forest::var(2);
        let m = f.add_mux(x, y, z);
        let expect = (Tt4::var(0) & Tt4::var(1)) | (!Tt4::var(0) & Tt4::var(2));
        assert_eq!(f.tt(m), expect);
    }

    #[test]
    fn cone_sizes_count_gates() {
        let mut f = Forest::new();
        let x = Forest::var(0);
        let y = Forest::var(1);
        let a = f.add_and(x, y);
        let b = f.add_xor(x, y);
        assert_eq!(f.cone_size(a), 1);
        assert_eq!(f.cone_size(b), 3);
        assert_eq!(f.cone(b).len(), 3);
    }

    #[test]
    fn cone_is_topological() {
        let mut f = Forest::new();
        let x = Forest::var(0);
        let y = Forest::var(1);
        let z = Forest::var(2);
        let m = f.add_mux(x, y, z);
        let cone = f.cone(m);
        for (i, &n) in cone.iter().enumerate() {
            let [a, b] = f.nodes[n as usize].fanin;
            for l in [a, b] {
                if l.node() >= 5 {
                    let pos = cone.iter().position(|&c| c == l.node()).unwrap();
                    assert!(pos < i);
                }
            }
        }
    }
}
