//! The benchmark's workloads: seeded circuits of three shapes that stress
//! different layers of a rewriting pass.
//!
//! Each workload circuit is a disjoint union of sub-circuits, and every
//! sub-circuit gets its own seeded presentation — a random input order and
//! a random topological order of its AND gates — so node ids, and with them
//! worklist order, scheduling and tie-breaks, differ from seed to seed while
//! the function and the size stay fixed, and so does the quality a pass
//! reaches up to the engine's own nondeterminism. The three circuits take
//! about the same time per pass.

use dacpara_aig::{Aig, AigRead, Lit, NodeKind};
use dacpara_circuits::{arith, control, mtm, MtmParams};

/// Disjoint sub-circuits of the `voter` and `mtm` circuits (the MtM ones
/// are drawn with generator seeds `1..=COPIES`).
const COPIES: usize = 4;

/// `log2` operand width and fractional bits: one copy of about 3.5k ANDs
/// and depth 302, so its ~300 level worklists hold about a dozen gates each.
const LOG2_WIDTH: usize = 10;
const LOG2_FRAC: usize = 4;
/// `voter` input count: about 1.3k ANDs and depth 39 per copy.
const VOTER_INPUTS: usize = 101;
/// MtM generator gate budget: about 2.1k ANDs and depth 100 per copy.
const MTM_GATES: usize = 4_000;

/// One benchmark workload.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Deep arithmetic: hundreds of thin level worklists, so barriers and
    /// scheduling weigh most; a quarter of the gates rewrite away.
    Log2,
    /// Shallow and wide: a few dozen fat level worklists that parallelize
    /// well, and the most commits per evaluation.
    Voter,
    /// Random control logic with hot high-fanout nodes: evaluation-heavy,
    /// with few commits and lock conflicts around the hot nodes.
    Mtm,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::Log2, Workload::Voter, Workload::Mtm];

    /// The name the command line uses.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Log2 => "log2",
            Workload::Voter => "voter",
            Workload::Mtm => "mtm",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's circuit for `seed`: the same seed gives the same
    /// circuit.
    pub fn generate(self, seed: u64) -> Aig {
        let mut rng = SplitMix64::new(seed);
        let parts: Vec<Aig> = match self {
            Workload::Log2 => vec![arith::log2(LOG2_WIDTH, LOG2_FRAC)],
            Workload::Voter => vec![control::voter(VOTER_INPUTS); COPIES],
            Workload::Mtm => (1..=COPIES as u64)
                .map(|seed| {
                    mtm(&MtmParams {
                        inputs: 117,
                        gates: MTM_GATES,
                        outputs: 50,
                        seed,
                    })
                })
                .collect(),
        };
        shuffled_union(&parts, &mut rng)
    }
}

/// The disjoint union of `parts`, each copied with a random input order and
/// a random topological order of its AND gates.
fn shuffled_union(parts: &[Aig], rng: &mut SplitMix64) -> Aig {
    let total: usize = parts.iter().map(Aig::num_nodes).sum();
    let mut out = Aig::with_capacity(total);
    for part in parts {
        let mut map = vec![Lit::FALSE; part.slot_count()];
        let mut inputs = part.inputs().to_vec();
        rng.shuffle(&mut inputs);
        for i in inputs {
            map[i.index()] = out.add_input();
        }
        // Kahn's algorithm, drawing the next ready gate at random.
        let ands = dacpara_aig::topo_ands(part);
        let mut pending = vec![0u8; part.slot_count()];
        let mut fanouts = vec![Vec::new(); part.slot_count()];
        let mut ready = Vec::new();
        for &n in &ands {
            for l in part.fanins(n) {
                if part.kind(l.node()) == NodeKind::And {
                    pending[n.index()] += 1;
                    fanouts[l.node().index()].push(n);
                }
            }
            if pending[n.index()] == 0 {
                ready.push(n);
            }
        }
        while !ready.is_empty() {
            let n = ready.swap_remove(rng.below(ready.len()));
            let [a, b] = part.fanins(n);
            let la = map[a.node().index()].xor(a.is_complement());
            let lb = map[b.node().index()].xor(b.is_complement());
            map[n.index()] = out.add_and(la, lb);
            for &f in &fanouts[n.index()] {
                pending[f.index()] -= 1;
                if pending[f.index()] == 0 {
                    ready.push(f);
                }
            }
        }
        for &po in part.outputs() {
            out.add_output(map[po.node().index()].xor(po.is_complement()));
        }
    }
    out
}

/// A small, fast, seedable generator (SplitMix64), so the inputs depend only
/// on the seed and this file.
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator whose stream is fixed by `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}
