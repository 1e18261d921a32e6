//! The evaluation stage: pick the best replacement structure for a node.
//!
//! Evaluation is the paper's hot stage (>90% of rewriting runtime, §4.3;
//! about half of stage time here, see EXPERIMENTS.md) and — crucially — it
//! must not mutate the graph, so DACPara can run it with *no locks at all*.
//! All bookkeeping that ABC does by temporarily dereferencing the graph is
//! done here on local scratch ([`dacpara_aig::mffc::simulate_deref`]).
//! Structures are mapped only as far as they can still win (see
//! ARCHITECTURE.md §14).

use std::cell::RefCell;
use std::sync::{Arc, OnceLock};

use dacpara_aig::concurrent::ConcurrentAig;
use dacpara_aig::mffc::ConeDeref;
use dacpara_aig::{Aig, AigError, AigRead, Lit, NodeId};
use dacpara_cut::{Cut, MAX_LEAVES};
use dacpara_npn::{canon, ClassId, ClassRegistry, NpnTransform, Tt4};
use dacpara_nst::{NpnLibrary, StructIn, Structure, MAX_STRUCTURE_GATES};
use dacpara_obs::LogHistogram;

use crate::validity::verify_cut;
use crate::RewriteConfig;

/// Cached observability handles for the evaluation hot path.
struct EvalObs {
    mffc_size: Arc<LogHistogram>,
}

fn eval_obs() -> &'static EvalObs {
    static HANDLES: OnceLock<EvalObs> = OnceLock::new();
    HANDLES.get_or_init(|| EvalObs {
        mffc_size: dacpara_obs::histogram("rewrite.mffc_size"),
    })
}

/// Shared, read-only context for evaluation.
#[derive(Clone)]
pub struct EvalContext {
    /// The structure library.
    pub lib: &'static NpnLibrary,
    /// The class registry.
    pub registry: &'static ClassRegistry,
    /// Per-class filter (index = class id).
    pub allowed: Vec<bool>,
    /// Structures scanned per class (`0` = all).
    pub max_structures: usize,
    /// Accept zero-gain candidates.
    pub use_zeros: bool,
    /// Reject candidates that raise the root's level.
    pub preserve_level: bool,
    /// Count logical sharing with existing nodes (the TCAD'23 emulation
    /// sets this to `false` — replacement cost ignores the structural
    /// hash, which is exactly the "static information" quality deficit the
    /// paper discusses).
    pub count_sharing: bool,
}

impl EvalContext {
    /// Builds the context for a configuration.
    pub fn new(cfg: &RewriteConfig) -> EvalContext {
        EvalContext {
            lib: NpnLibrary::global(),
            registry: ClassRegistry::global(),
            allowed: cfg.allowed_classes(),
            max_structures: cfg.max_structures,
            use_zeros: cfg.use_zeros,
            preserve_level: cfg.preserve_level,
            count_sharing: true,
        }
    }

    /// The acceptance rule for a replacement at a root of level
    /// `root_level`: a positive gain (non-negative under `use_zeros`) and,
    /// under `preserve_level`, a new root no deeper than the old one.
    pub fn accepts(&self, gain: i32, level: u32, root_level: u32) -> bool {
        gain > self.base_floor() && (!self.preserve_level || level <= root_level)
    }

    /// The gain a candidate must strictly exceed to pass [`Self::accepts`].
    fn base_floor(&self) -> i32 {
        if self.use_zeros {
            -1
        } else {
            0
        }
    }
}

impl std::fmt::Debug for EvalContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvalContext")
            .field("allowed", &self.allowed.iter().filter(|&&b| b).count())
            .field("max_structures", &self.max_structures)
            .field("use_zeros", &self.use_zeros)
            .field("preserve_level", &self.preserve_level)
            .field("count_sharing", &self.count_sharing)
            .finish()
    }
}

/// A chosen replacement: what DACPara stores in `prepInfo` between the
/// evaluation and replacement stages (§4.1). Its at most four leaves and
/// their generations are held inline, so a candidate is `Copy` and
/// choosing, storing or revising one allocates nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Candidate {
    /// The cut's leaves, sorted ascending, then `CONST0` padding.
    leaves: [NodeId; MAX_LEAVES],
    /// Generation stamps of the leaves at evaluation time — the staleness
    /// detector behind the paper's Fig. 3 discussion — then zero padding.
    leaf_gens: [u32; MAX_LEAVES],
    len: u8,
    /// The cut function over the leaves.
    pub tt: Tt4,
    /// NPN class of the cut function.
    pub class: ClassId,
    /// Transform mapping the cut function onto the class representative.
    pub transform: NpnTransform,
    /// Index of the chosen structure within the class's library entry.
    pub struct_idx: usize,
    /// Evaluated gain (nodes saved − nodes added).
    pub gain: i32,
}

impl Candidate {
    /// The candidate for structure `struct_idx` of the NPN class `class` on
    /// `cut` (whose function `transform` maps onto the class
    /// representative), recording the leaves' current generations.
    pub fn on_cut<V: AigRead + ?Sized>(
        view: &V,
        cut: &Cut,
        class: ClassId,
        transform: NpnTransform,
        struct_idx: usize,
        gain: i32,
    ) -> Candidate {
        let mut leaves = [NodeId::CONST0; MAX_LEAVES];
        let mut leaf_gens = [0; MAX_LEAVES];
        for (i, &l) in cut.leaves().iter().enumerate() {
            leaves[i] = l;
            leaf_gens[i] = view.generation(l);
        }
        Candidate {
            leaves,
            leaf_gens,
            len: cut.len() as u8,
            tt: cut.tt(),
            class,
            transform,
            struct_idx,
            gain,
        }
    }

    /// The cut's leaves, sorted ascending.
    pub fn leaves(&self) -> &[NodeId] {
        &self.leaves[..usize::from(self.len)]
    }

    /// The leaves' generation stamps at evaluation, one per leaf.
    pub fn leaf_gens(&self) -> &[u32] {
        &self.leaf_gens[..usize::from(self.len)]
    }

    /// Whether every leaf is still alive with the generation recorded at
    /// evaluation — the cut the candidate was chosen on is untouched.
    pub fn leaves_intact<V: AigRead + ?Sized>(&self, view: &V) -> bool {
        self.leaves()
            .iter()
            .zip(self.leaf_gens())
            .all(|(&l, &g)| view.is_alive(l) && view.generation(l) == g)
    }
}

/// Outcome of mapping one structure onto the current graph.
#[derive(Debug)]
struct Mapping {
    added: u32,
    /// `Some` when the whole structure resolves to an existing literal.
    root: Option<Lit>,
    level: u32,
}

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum MVal {
    Real(Lit),
    /// `idx`-th virtual (to-be-created) node, with edge complement.
    Virt(u16, bool),
}

impl MVal {
    fn xor(self, c: bool) -> MVal {
        match self {
            MVal::Real(l) => MVal::Real(l.xor(c)),
            MVal::Virt(i, neg) => MVal::Virt(i, neg ^ c),
        }
    }
}

/// Structural-hash probes made while evaluating one node, shared by every
/// cut and structure mapped for it: the literal pair `(x, y)`, `x <= y`,
/// maps to the raw answer of [`AigRead::find_and`]. Open addressing over a
/// fixed array; once [`ProbeMemo::LIMIT`] pairs are stored, new pairs go to
/// the graph uncached.
///
/// Each thread keeps one memo ([`EvalScratch`]) and empties it per node in
/// O(1): a slot holds the epoch it was written in, and [`ProbeMemo::reset`]
/// starts a new epoch, so every older slot reads as empty.
///
/// Caching is exact because nothing writes the graph while DACPara's
/// evaluation stage runs; the ICCAD'18 operator holds every cut leaf's
/// lock, so its leaf-pair answers are stable too (ARCHITECTURE.md §14).
/// The answer is cached raw; whether it may be shared depends on the cut,
/// so the caller filters it at every use.
struct ProbeMemo {
    slots: [Probe; ProbeMemo::SLOTS],
    /// The epoch of the current node; slots stamped otherwise are empty.
    epoch: u32,
    len: usize,
}

/// One memo slot: a literal pair, its answer, and the epoch that wrote it.
#[derive(Copy, Clone)]
struct Probe {
    key: u64,
    val: u32,
    epoch: u32,
}

impl ProbeMemo {
    /// Table size (a power of two).
    const SLOTS: usize = 128;
    /// Stored pairs at most, keeping linear probe runs short.
    const LIMIT: usize = Self::SLOTS * 3 / 4;
    /// An empty slot: stamped with epoch 0, which `reset` never starts.
    const VACANT: Probe = Probe {
        key: 0,
        val: 0,
        epoch: 0,
    };
    /// Value of a pair `find_and` found no node for.
    const ABSENT: u32 = u32::MAX;

    const fn new() -> ProbeMemo {
        ProbeMemo {
            slots: [Self::VACANT; Self::SLOTS],
            epoch: 1,
            len: 0,
        }
    }

    /// Empties the memo by starting a new epoch.
    fn reset(&mut self) {
        self.len = 0;
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Once every 2^32 resets: clear the stamps, so no slot of an
            // old epoch can read as current once the counter wraps.
            self.slots = [Self::VACANT; Self::SLOTS];
            self.epoch = 1;
        }
    }

    /// `view.find_and(x, y)` for `x <= y`, answered from the memo when the
    /// pair was probed before in this epoch.
    fn find_and<V: AigRead + ?Sized>(&mut self, view: &V, x: Lit, y: Lit) -> Option<NodeId> {
        let key = u64::from(x.raw()) << 32 | u64::from(y.raw());
        let shift = 64 - Self::SLOTS.trailing_zeros();
        let mut i = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize;
        while self.slots[i].epoch == self.epoch {
            if self.slots[i].key == key {
                return match self.slots[i].val {
                    Self::ABSENT => None,
                    raw => Some(NodeId::new(raw)),
                };
            }
            i = (i + 1) % Self::SLOTS;
        }
        let found = view.find_and(x, y);
        if self.len < Self::LIMIT {
            self.slots[i] = Probe {
                key,
                val: found.map_or(Self::ABSENT, NodeId::raw),
                epoch: self.epoch,
            };
            self.len += 1;
        }
        found
    }
}

/// What [`map_structure`] works in: the node's probe memo, and the value
/// of each structure gate mapped so far. A mapping writes gate `i`'s value
/// before any later gate reads it, so `vals` is never cleared — most
/// mappings stop after a gate or two.
struct MapScratch {
    memo: ProbeMemo,
    vals: [(MVal, u32); MAX_STRUCTURE_GATES],
}

/// Per-thread evaluation scratch: the mapping scratch, the MFFC lists that
/// every cut recomputes in place, and the shared-node list of a
/// re-evaluation. Evaluating or re-evaluating a node allocates nothing.
struct EvalScratch {
    map: MapScratch,
    cone: ConeDeref,
    shared: Vec<(NodeId, u32)>,
}

thread_local! {
    static SCRATCH: RefCell<EvalScratch> = const {
        RefCell::new(EvalScratch {
            map: MapScratch {
                memo: ProbeMemo::new(),
                vals: [(MVal::Real(Lit::FALSE), 0); MAX_STRUCTURE_GATES],
            },
            cone: ConeDeref::new(),
            shared: Vec::new(),
        })
    };
}

/// Runs `f` on this thread's evaluation scratch, its memo emptied.
fn with_scratch<R>(f: impl FnOnce(&mut EvalScratch) -> R) -> R {
    SCRATCH.with(|scratch| {
        let scratch = &mut *scratch.borrow_mut();
        scratch.map.memo.reset();
        f(scratch)
    })
}

/// The cut leaves as the inputs of one NPN transform's structures, with
/// their levels: structure input `y_j` is `inputs[j]`, and the output is
/// complemented when `out_neg` is set. Built once per cut and shared by
/// every structure mapped on it.
struct Wiring {
    /// `None` for an input the transform maps past the cut's leaves; no
    /// structure of the cut's class reads it.
    inputs: [Option<(Lit, u32)>; 4],
    out_neg: bool,
}

impl Wiring {
    fn new<V: AigRead + ?Sized>(view: &V, transform: &NpnTransform, leaves: &[NodeId]) -> Wiring {
        let (wiring, out_neg) = transform.wire();
        Wiring {
            inputs: wiring.map(|(idx, neg)| {
                leaves
                    .get(idx)
                    .map(|&id| (Lit::new(id, neg), view.level(id)))
            }),
            out_neg,
        }
    }

    /// Structure input `var` and its level.
    fn input(&self, var: u8) -> (MVal, u32) {
        let (lit, level) =
            self.inputs[var as usize].expect("a structure reads only its cut's leaves");
        (MVal::Real(lit), level)
    }
}

/// Evaluates every (non-trivial) cut of `n` and returns the best
/// replacement candidate, if any beats the gain/level thresholds: the
/// first cut, in order, whose best gain is strictly greater than every
/// earlier cut's.
///
/// Each cut is evaluated against a gain floor — the best gain found so
/// far — and reports only structures that beat it, so a cut that cannot
/// win is dropped after its MFFC and losing structures stop mapping early
/// (see ARCHITECTURE.md §14).
pub fn evaluate_node<V: AigRead + ?Sized>(
    view: &V,
    n: NodeId,
    cuts: &[Cut],
    ctx: &EvalContext,
) -> Option<Candidate> {
    with_scratch(|EvalScratch { map, cone, .. }| {
        let mut best: Option<Candidate> = None;
        for cut in cuts {
            if cut.len() < 2 {
                continue;
            }
            let floor = best.as_ref().map_or(ctx.base_floor(), |b| b.gain);
            if let Some(cand) = best_on_cut(view, n, cut, ctx, floor, map, cone) {
                best = Some(cand);
            }
        }
        best
    })
}

/// Evaluates a single cut of `n`: the best structure of the cut's class by
/// (gain, fewest added nodes, lowest level, first in library order) among
/// those passing the gain and level thresholds.
///
/// A structure is mapped only until it has added more nodes than the gain
/// threshold allows — `added` never shrinks, so such a structure could not
/// be chosen (see ARCHITECTURE.md §14).
pub fn evaluate_cut<V: AigRead + ?Sized>(
    view: &V,
    n: NodeId,
    cut: &Cut,
    ctx: &EvalContext,
) -> Option<Candidate> {
    with_scratch(|EvalScratch { map, cone, .. }| {
        best_on_cut(view, n, cut, ctx, ctx.base_floor(), map, cone)
    })
}

/// Structures scanned out of `available` for one class, under a
/// [`EvalContext::max_structures`] cap (`0` = all).
fn structure_budget(max_structures: usize, available: usize) -> usize {
    if max_structures == 0 {
        available
    } else {
        max_structures.min(available)
    }
}

/// [`evaluate_cut`] restricted to structures whose gain is strictly greater
/// than `floor` (at least [`EvalContext::base_floor`]); `map`'s memo holds
/// the probes of earlier cuts of the same node, and `cone` is scratch for
/// the cut's MFFC.
fn best_on_cut<V: AigRead + ?Sized>(
    view: &V,
    n: NodeId,
    cut: &Cut,
    ctx: &EvalContext,
    floor: i32,
    map: &mut MapScratch,
    cone: &mut ConeDeref,
) -> Option<Candidate> {
    debug_assert!(cut.len() >= 2);
    debug_assert!(floor >= ctx.base_floor());
    let leaves = cut.leaves();
    let tt = cut.tt();
    let class = ctx.registry.class_of(tt);
    if !ctx.allowed[class as usize] {
        return None;
    }
    cone.simulate(view, n, |x| leaves.contains(&x));
    if dacpara_obs::is_enabled() {
        eval_obs().mffc_size.record(cone.saved() as u64);
    }
    // `gain = saved - added <= saved`: a cut that frees no more than the
    // floor cannot beat it.
    let saved = cone.saved() as i32;
    if saved <= floor {
        return None;
    }
    // The most nodes a structure may add and still beat the floor.
    let max_added = (saved - floor - 1) as u32;
    let (rep, transform) = canon(tt);
    debug_assert_eq!(rep, ctx.registry.representative(class));
    let wiring = Wiring::new(view, &transform, leaves);

    let structures = ctx.lib.structures(class);
    let budget = structure_budget(ctx.max_structures, structures.len());

    let root_level = view.level(n);
    let mut best: Option<(i32, u32, u32, usize)> = None; // gain, added, level, idx
    for (si, s) in structures.iter().take(budget).enumerate() {
        let Some(m) = map_structure(
            view,
            s,
            &wiring,
            &cone.freed,
            ctx.count_sharing,
            max_added,
            map,
            None,
        ) else {
            continue;
        };
        if let Some(r) = m.root {
            if r.node() == n {
                continue; // identity replacement
            }
        }
        // `added <= max_added`, so the gain beats the floor.
        let gain = saved - m.added as i32;
        debug_assert!(gain > floor);
        if !ctx.accepts(gain, m.level, root_level) {
            continue;
        }
        let better = match best {
            None => true,
            Some((bg, ba, bl, _)) => {
                (gain, std::cmp::Reverse(m.added), std::cmp::Reverse(m.level))
                    > (bg, std::cmp::Reverse(ba), std::cmp::Reverse(bl))
            }
        };
        if better {
            best = Some((gain, m.added, m.level, si));
        }
    }
    best.map(|(gain, _, _, struct_idx)| {
        Candidate::on_cut(view, cut, class, transform, struct_idx, gain)
    })
}

/// Simulates building `structure` on the current graph: how many new nodes
/// would be needed given structural sharing, and what the new root's level
/// would be. Nodes in `freed` (the would-be-deleted MFFC) are not counted
/// as shareable.
///
/// Returns `None` as soon as more than `max_added` nodes would be added.
/// When `shared` is given, it collects the existing nodes the structure
/// would share, each with its generation (the parallel engines lock these
/// before building, and a changed generation under the locks means the
/// build could allocate a gate this mapping did not count).
#[allow(clippy::too_many_arguments)]
fn map_structure<V: AigRead + ?Sized>(
    view: &V,
    structure: &Structure,
    wiring: &Wiring,
    freed: &[NodeId],
    count_sharing: bool,
    max_added: u32,
    map: &mut MapScratch,
    mut shared: Option<&mut Vec<(NodeId, u32)>>,
) -> Option<Mapping> {
    let MapScratch { memo, vals } = map;
    let mut added = 0u32;
    let resolve = |input: StructIn, vals: &[(MVal, u32)]| -> (MVal, u32) {
        match input {
            StructIn::Const(b) => (MVal::Real(Lit::FALSE.xor(b)), 0),
            StructIn::Leaf { var, neg } => {
                let (v, lvl) = wiring.input(var);
                (v.xor(neg), lvl)
            }
            StructIn::Gate { idx, neg } => {
                let (v, lvl) = vals[idx as usize];
                (v.xor(neg), lvl)
            }
        }
    };

    for (gi, gate) in structure.gates().iter().enumerate() {
        let (va, la) = resolve(gate[0], vals);
        let (vb, lb) = resolve(gate[1], vals);
        let value = match (va, vb) {
            // Constant operands fold regardless of the other side.
            (MVal::Real(x), _) | (_, MVal::Real(x)) if x == Lit::FALSE => {
                (MVal::Real(Lit::FALSE), 0)
            }
            (MVal::Real(x), o) if x == Lit::TRUE => (o, lb),
            (o, MVal::Real(x)) if x == Lit::TRUE => (o, la),
            (MVal::Real(x), MVal::Real(y)) => {
                let (x, y) = if x <= y { (x, y) } else { (y, x) };
                if let Some(f) = Aig::fold_and(x, y) {
                    (MVal::Real(f), view.level(f.node()))
                } else {
                    let mut existing = if count_sharing {
                        memo.find_and(view, x, y)
                            .filter(|&g| view.is_and(g) && !freed.contains(&g))
                    } else {
                        None
                    };
                    if let (Some(g), Some(shared)) = (existing, shared.as_deref_mut()) {
                        // Read the generation first, then confirm `g` still
                        // is AND(x, y): an unchanged generation later proves
                        // it has not changed since.
                        let gen = view.generation(g);
                        if view.is_and(g) && view.fanins(g) == [x, y] {
                            shared.push((g, gen));
                        } else {
                            existing = None;
                        }
                    }
                    match existing {
                        Some(g) => (MVal::Real(g.lit()), view.level(g)),
                        None => {
                            added += 1;
                            (MVal::Virt(added as u16, false), 1 + la.max(lb))
                        }
                    }
                }
            }
            (MVal::Virt(i, ni), MVal::Virt(j, nj)) if i == j => {
                if ni == nj {
                    (MVal::Virt(i, ni), la)
                } else {
                    (MVal::Real(Lit::FALSE), 0)
                }
            }
            _ => {
                added += 1;
                (MVal::Virt(added as u16, false), 1 + la.max(lb))
            }
        };
        if added > max_added {
            return None;
        }
        vals[gi] = value;
    }

    let (root, level) = resolve(structure.root(), vals);
    let root = match root.xor(wiring.out_neg) {
        MVal::Real(l) => Some(l),
        MVal::Virt(..) => None,
    };
    Some(Mapping { added, root, level })
}

/// Re-evaluation of a *specific* stored structure on the latest graph —
/// the paper's §4.4 requirement that "each replacement must obtain a
/// positive gain on the latest AIG". Also reports the existing nodes the
/// build would share, which the replacement operator must lock. It
/// borrows the thread's evaluation scratch (see [`reevaluate_structure`]).
#[derive(Clone, Copy, Debug)]
pub struct Reevaluation<'a> {
    /// Nodes saved minus nodes added, on the current graph.
    pub gain: i32,
    /// Nodes that would be deleted (the cut-bounded MFFC, root first).
    pub freed: &'a [NodeId],
    /// Existing nodes the structure build would reuse, each with its
    /// generation at re-evaluation.
    pub shared_nodes: &'a [(NodeId, u32)],
    /// Level of the new root.
    pub level: u32,
}

/// Re-evaluates `cand`'s stored structure against the current graph,
/// mapping it to completion (the commit needs every shared node), and
/// hands the result to `then`. The result lives in this thread's
/// evaluation scratch, so it allocates nothing; `then` runs while the
/// scratch is borrowed, so it must not evaluate (that would panic).
/// The caller is responsible for `cand.tt`/`cand.transform` being valid for
/// the current graph (see `validity::verify_cut`).
pub fn reevaluate_structure<V: AigRead + ?Sized, R>(
    view: &V,
    n: NodeId,
    cand: &Candidate,
    ctx: &EvalContext,
    then: impl FnOnce(Reevaluation<'_>) -> R,
) -> R {
    let structure = &ctx.lib.structures(cand.class)[cand.struct_idx];
    let wiring = Wiring::new(view, &cand.transform, cand.leaves());
    with_scratch(|EvalScratch { map, cone, shared }| {
        cone.simulate(view, n, |x| cand.leaves().contains(&x));
        shared.clear();
        let m = map_structure(
            view,
            structure,
            &wiring,
            &cone.freed,
            ctx.count_sharing,
            u32::MAX,
            map,
            Some(shared),
        )
        .expect("an unbounded mapping always completes");
        let identity = m.root.is_some_and(|r| r.node() == n);
        let gain = if identity {
            i32::MIN
        } else {
            cone.saved() as i32 - m.added as i32
        };
        then(Reevaluation {
            gain,
            freed: &cone.freed,
            shared_nodes: shared,
            level: m.level,
        })
    })
}

/// Something that can create AND gates — lets the structure builder run on
/// both the serial and the concurrent graph.
pub trait AndBuilder {
    /// The graph the builder reads back from.
    type View: AigRead + ?Sized;

    /// Creates (or finds) the AND of two literals.
    ///
    /// # Errors
    ///
    /// The concurrent implementation reports a full arena as an
    /// invariant violation.
    fn and(&mut self, a: Lit, b: Lit) -> Result<Lit, AigError>;

    /// Read access to the graph being built on.
    fn view(&self) -> &Self::View;
}

impl AndBuilder for Aig {
    type View = Aig;

    fn and(&mut self, a: Lit, b: Lit) -> Result<Lit, AigError> {
        Ok(self.add_and(a, b))
    }

    fn view(&self) -> &Aig {
        self
    }
}

/// Concurrent builder: the caller must hold the engine locks on every node
/// that may serve as a fanin (cut leaves and shareable nodes).
impl AndBuilder for &ConcurrentAig {
    type View = ConcurrentAig;

    fn and(&mut self, a: Lit, b: Lit) -> Result<Lit, AigError> {
        self.add_and_locked(a, b)
    }

    fn view(&self) -> &ConcurrentAig {
        self
    }
}

/// The function of `lit` over `leaves`, or `None` when the leaves do not
/// cut it off from the inputs.
fn lit_tt<V: AigRead + ?Sized>(view: &V, lit: Lit, leaves: &[NodeId]) -> Option<Tt4> {
    let tt = if lit.node() == NodeId::CONST0 {
        Tt4::FALSE
    } else {
        verify_cut(view, lit.node(), leaves)?.1
    };
    Some(if lit.is_complement() { !tt } else { tt })
}

/// Materializes the candidate's structure on the graph and returns the new
/// root literal (which may be an existing node thanks to sharing).
///
/// The returned root is *certified*: its function over `cand.leaves`,
/// evaluated on the graph just built, equals `cand.tt`. A root that fails
/// the certificate is refused — nothing is rewired, and the gates built
/// for it are left dangling for the next sweep (see ARCHITECTURE.md §12).
///
/// # Errors
///
/// Returns [`AigError::InvariantViolation`] when the built root does not
/// compute `cand.tt` over the leaves, and propagates the concurrent
/// builder's full-arena error.
pub fn build_replacement<B: AndBuilder>(
    builder: &mut B,
    cand: &Candidate,
    lib: &NpnLibrary,
) -> Result<Lit, AigError> {
    let structure = &lib.structures(cand.class)[cand.struct_idx];
    let (wiring, out_neg) = cand.transform.wire();
    let mut vals = [Lit::FALSE; MAX_STRUCTURE_GATES];
    let resolve = |input: StructIn, vals: &[Lit]| -> Lit {
        match input {
            StructIn::Const(b) => Lit::FALSE.xor(b),
            StructIn::Leaf { var, neg } => {
                let (idx, w_neg) = wiring[var as usize];
                Lit::new(cand.leaves()[idx], w_neg ^ neg)
            }
            StructIn::Gate { idx, neg } => vals[idx as usize].xor(neg),
        }
    };
    for (i, gate) in structure.gates().iter().enumerate() {
        let a = resolve(gate[0], &vals[..i]);
        let b = resolve(gate[1], &vals[..i]);
        vals[i] = builder.and(a, b)?;
    }
    let root = resolve(structure.root(), &vals[..structure.gates().len()]).xor(out_neg);
    if lit_tt(builder.view(), root, cand.leaves()) != Some(cand.tt) {
        return Err(AigError::InvariantViolation(format!(
            "replacement root {root:?} does not compute the cut function over {:?}",
            cand.leaves()
        )));
    }
    Ok(root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dacpara_cut::{CutConfig, CutStore};
    use dacpara_equiv::{check_equivalence, CecConfig, CecResult};

    fn ctx() -> EvalContext {
        EvalContext::new(&RewriteConfig {
            num_classes: 222,
            preserve_level: false,
            ..RewriteConfig::rewrite_op()
        })
    }

    #[test]
    fn structure_budget_caps() {
        let capped = RewriteConfig::p1().max_structures;
        assert_eq!(structure_budget(capped, 10), 5);
        assert_eq!(structure_budget(capped, 3), 3);
        let unlimited = RewriteConfig::rewrite_op().max_structures;
        assert_eq!(structure_budget(unlimited, 10), 10);
    }

    /// A deliberately wasteful majority: 2:1 muxes instead of the 4-gate
    /// optimum — evaluation must find a positive gain.
    fn wasteful_majority() -> (Aig, NodeId) {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let c = aig.add_input();
        // maj(a,b,c) = a ? (b | c) : (b & c), built with a full mux.
        let or = aig.add_or(b, c);
        let and = aig.add_and(b, c);
        let m = aig.add_mux(a, or, and);
        aig.add_output(m);
        (aig, m.node())
    }

    #[test]
    fn finds_gain_on_redundant_cone() {
        let (aig, root) = wasteful_majority();
        let store = CutStore::new(aig.slot_count(), CutConfig::unlimited());
        let cuts = store.cuts(&aig, root);
        let cand = evaluate_node(&aig, root, cuts, &ctx()).expect("a candidate");
        assert!(cand.gain > 0, "gain {}", cand.gain);
        assert_eq!(cand.leaves().len(), 3);
    }

    #[test]
    fn replacement_preserves_function_and_realizes_gain() {
        let (mut aig, root) = wasteful_majority();
        let golden = aig.clone();
        let store = CutStore::new(aig.slot_count(), CutConfig::unlimited());
        let cuts = store.cuts(&aig, root);
        let cand = evaluate_node(&aig, root, cuts, &ctx()).unwrap();
        let before = dacpara_aig::AigRead::num_ands(&aig);
        let new_root = build_replacement(&mut aig, &cand, NpnLibrary::global()).unwrap();
        aig.replace(root, new_root);
        aig.check().unwrap();
        let after = dacpara_aig::AigRead::num_ands(&aig);
        assert_eq!(
            (before - after) as i32,
            cand.gain,
            "realized gain must equal evaluated gain"
        );
        assert_eq!(
            check_equivalence(&golden, &aig, &CecConfig::default()),
            CecResult::Equivalent
        );
    }

    /// Candidates whose transform does not realize their table: the output
    /// flipped, and every input flipped (majority is self-dual, so that
    /// complements it too).
    fn miswired(cand: &Candidate) -> [Candidate; 2] {
        let mut out = *cand;
        out.transform.output_neg ^= true;
        let mut inputs = *cand;
        inputs.transform.input_neg ^= 0b1111;
        [out, inputs]
    }

    #[test]
    fn certificate_refuses_a_root_that_misses_the_cut_function() {
        let (aig, root) = wasteful_majority();
        let store = CutStore::new(aig.slot_count(), CutConfig::unlimited());
        let cuts = store.cuts(&aig, root);
        let cand = evaluate_node(&aig, root, cuts, &ctx()).unwrap();
        for bad in miswired(&cand) {
            let mut serial = aig.clone();
            let err = build_replacement(&mut serial, &bad, NpnLibrary::global());
            assert!(
                matches!(err, Err(AigError::InvariantViolation(_))),
                "serial: {bad:?} must be refused, got {err:?}"
            );
            serial.check().unwrap();
            assert_eq!(
                check_equivalence(&aig, &serial, &CecConfig::default()),
                CecResult::Equivalent
            );

            let shared = ConcurrentAig::from_aig(&aig, 64, 1).unwrap();
            let err = build_replacement(&mut &shared, &bad, NpnLibrary::global());
            assert!(
                matches!(err, Err(AigError::InvariantViolation(_))),
                "concurrent: {bad:?} must be refused, got {err:?}"
            );
            shared.check().unwrap();
            assert_eq!(
                check_equivalence(&aig, &shared.to_aig(), &CecConfig::default()),
                CecResult::Equivalent
            );
        }
    }

    #[test]
    fn no_candidate_on_already_optimal_cone() {
        // A single AND gate over two inputs cannot be improved.
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let ab = aig.add_and(a, b);
        aig.add_output(ab);
        let store = CutStore::new(aig.slot_count(), CutConfig::unlimited());
        let cuts = store.cuts(&aig, ab.node());
        assert_eq!(evaluate_node(&aig, ab.node(), cuts, &ctx()), None);
    }

    #[test]
    fn class_filter_blocks_evaluation() {
        let (aig, root) = wasteful_majority();
        let store = CutStore::new(aig.slot_count(), CutConfig::unlimited());
        let cuts = store.cuts(&aig, root);
        let mut blocked = ctx();
        blocked.allowed = vec![false; blocked.registry.len()];
        assert_eq!(evaluate_node(&aig, root, cuts, &blocked), None);
    }

    #[test]
    fn preserve_level_rejects_deeper_structures() {
        let (aig, root) = wasteful_majority();
        let store = CutStore::new(aig.slot_count(), CutConfig::unlimited());
        let cuts = store.cuts(&aig, root);
        let mut strict = ctx();
        strict.preserve_level = true;
        // With level preservation the engine may still find the 4-gate
        // majority (depth 2 <= mux depth 3); the candidate must respect it.
        if let Some(c) = evaluate_node(&aig, root, cuts, &strict) {
            assert!(c.gain > 0);
        }
    }

    #[test]
    fn sharing_detection_reduces_added_cost() {
        // Saturate the graph with every 2-input AND/OR over (a, b, c) so
        // that, whatever orientation the NPN transform picks, the factored
        // majority structure finds its inner gates already present.
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let c = aig.add_input();
        for (x, y) in [(a, b), (a, c), (b, c)] {
            let and = aig.add_and(x, y);
            let or = aig.add_or(x, y);
            aig.add_output(and);
            aig.add_output(or);
        }
        // Wasteful mux-based majority on top (its or/and nodes are shared
        // with the pool, so they are not in the MFFC).
        let or = aig.add_or(b, c);
        let an = aig.add_and(b, c);
        let m = aig.add_mux(a, or, an);
        aig.add_output(m);
        let golden = aig.clone();

        let store = CutStore::new(aig.slot_count(), CutConfig::unlimited());
        let cuts = store.cuts(&aig, m.node());
        let dynamic = evaluate_node(&aig, m.node(), cuts, &ctx());
        let mut static_ctx = ctx();
        static_ctx.count_sharing = false;
        let static_ = evaluate_node(&aig, m.node(), cuts, &static_ctx);

        // With sharing, the inner OR and AND of the factored majority are
        // free; without it, the structure costs as much as the cone saves.
        let dyn_gain = dynamic.as_ref().map(|c| c.gain).unwrap_or(0);
        let sta_gain = static_.map(|c| c.gain).unwrap_or(0);
        assert!(dyn_gain >= 1, "sharing-aware gain, got {dyn_gain}");
        assert!(
            dyn_gain > sta_gain,
            "sharing-aware gain {dyn_gain} must beat static {sta_gain}"
        );

        // Applying it must preserve the function.
        let cand = dynamic.expect("dynamic candidate");
        let new_root = build_replacement(&mut aig, &cand, NpnLibrary::global()).unwrap();
        aig.replace(m.node(), new_root);
        aig.check().unwrap();
        assert_eq!(
            check_equivalence(&golden, &aig, &CecConfig::default()),
            CecResult::Equivalent
        );
    }

    #[test]
    fn static_mode_ignores_sharing() {
        // Same saturated pool as above: sharing-aware evaluation finds a
        // positive-gain candidate, sharing-blind (TCAD'23-style) evaluation
        // finds none — the cone only pays off through reuse.
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let c = aig.add_input();
        for (x, y) in [(a, b), (a, c), (b, c)] {
            let and = aig.add_and(x, y);
            let or = aig.add_or(x, y);
            aig.add_output(and);
            aig.add_output(or);
        }
        let or = aig.add_or(b, c);
        let an = aig.add_and(b, c);
        let m = aig.add_mux(a, or, an);
        aig.add_output(m);

        let store = CutStore::new(aig.slot_count(), CutConfig::unlimited());
        let cuts = store.cuts(&aig, m.node());
        let mut static_ctx = ctx();
        static_ctx.count_sharing = false;
        let dynamic = evaluate_node(&aig, m.node(), cuts, &ctx());
        let static_ = evaluate_node(&aig, m.node(), cuts, &static_ctx);
        assert!(dynamic.is_some(), "sharing-aware evaluation finds the gain");
        assert!(
            static_.is_none(),
            "sharing-blind evaluation must see no profit here, got {static_:?}"
        );
    }
}
