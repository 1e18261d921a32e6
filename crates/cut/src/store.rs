//! Concurrent memo store for per-node cut sets.
//!
//! The paper's cut-enumeration operator computes cuts recursively from the
//! fanins and caches them per node; replacements invalidate the stored
//! results of the deleted nodes' transitive fanouts (§4.4: "the previous
//! enumeration results (if not empty) of all transitive fanouts for each
//! deleted node will be recursively cleared").
//!
//! Entries are tagged with the node's *generation* at computation time, so
//! a recycled or re-fanined slot can never serve a stale cut set even if an
//! explicit invalidation was missed — the second line of defense behind the
//! stored-cut validity protocol of §4.4.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

use dacpara_aig::{AigRead, NodeId, NodeKind};
use dacpara_obs::{LogHistogram, ShardedCounter};
use parking_lot::RwLock;

use crate::{and_cuts, leaf_cuts, Cut, CutConfig, CutSet};

/// Cached handles to the global memo-probe instruments (taking the registry
/// lock on every probe would defeat the sharded counters).
struct ObsHandles {
    memo_hits: Arc<ShardedCounter>,
    memo_misses: Arc<ShardedCounter>,
    cuts_per_node: Arc<LogHistogram>,
}

fn obs() -> &'static ObsHandles {
    static HANDLES: OnceLock<ObsHandles> = OnceLock::new();
    HANDLES.get_or_init(|| ObsHandles {
        memo_hits: dacpara_obs::counter("cut.memo_hits"),
        memo_misses: dacpara_obs::counter("cut.memo_misses"),
        cuts_per_node: dacpara_obs::histogram("cut.cuts_per_node"),
    })
}

/// Counts `k` cut sets served from the memo.
fn count_hits(k: u64) {
    if k > 0 && dacpara_obs::is_enabled() {
        obs().memo_hits.add(k);
    }
}

type Slot = RwLock<Option<(u32, CutSet)>>;

/// Per-thread scratch of [`CutStore::try_cuts`]: the request stack and the
/// buffer [`and_cuts`] merges into. Both keep their capacity across calls,
/// so computing a set allocates only the exact-size block that is stored.
struct Scratch {
    stack: Vec<(NodeId, bool)>,
    cuts: Vec<Cut>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = const {
        RefCell::new(Scratch {
            stack: Vec::new(),
            cuts: Vec::new(),
        })
    };
}

/// A slot-indexed, generation-validated cache of cut sets, safe for
/// concurrent use.
///
/// # Example
///
/// ```
/// use dacpara_aig::Aig;
/// use dacpara_cut::{CutConfig, CutStore};
///
/// let mut aig = Aig::new();
/// let a = aig.add_input();
/// let b = aig.add_input();
/// let ab = aig.add_and(a, b);
/// aig.add_output(ab);
/// let store = CutStore::new(aig.slot_count(), CutConfig::unlimited());
/// let cuts = store.cuts(&aig, ab.node());
/// assert_eq!(cuts.len(), 2); // trivial + {a, b}
/// ```
pub struct CutStore {
    slots: Vec<Slot>,
    cfg: CutConfig,
    /// Per-slot dirty flags. A dirty node is one whose stored cuts *or*
    /// whose evaluation inputs (reference counts, shareable structures
    /// nearby) may have changed since the flags were last drained — the
    /// seed of the incremental worklists in `dacpara-core`'s
    /// `RewriteSession`. One-shot engines never drain them.
    dirty: Vec<AtomicBool>,
}

impl CutStore {
    /// Creates a store covering `capacity` node slots.
    pub fn new(capacity: usize, cfg: CutConfig) -> CutStore {
        CutStore {
            slots: (0..capacity).map(|_| RwLock::new(None)).collect(),
            cfg,
            dirty: (0..capacity).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    /// The enumeration configuration this store was built with.
    pub fn config(&self) -> &CutConfig {
        &self.cfg
    }

    /// Extends the store to cover at least `capacity` slots (serial-owner
    /// operation — the concurrent engines size the store up front).
    pub fn grow(&mut self, capacity: usize) {
        while self.slots.len() < capacity {
            self.slots.push(RwLock::new(None));
            self.dirty.push(AtomicBool::new(false));
        }
    }

    /// Number of covered slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// The cached cut set of `n`, if present and still matching `n`'s
    /// current generation. A plain lookup: the memo counters describe
    /// [`CutStore::try_cuts`] only.
    pub fn get<V: AigRead + ?Sized>(&self, view: &V, n: NodeId) -> Option<CutSet> {
        match &*self.slots[n.index()].read() {
            Some((gen, cuts)) if *gen == view.generation(n) => Some(CutSet::clone(cuts)),
            _ => None,
        }
    }

    /// Stores a cut set for `n` at its current generation.
    pub fn put<V: AigRead + ?Sized>(&self, view: &V, n: NodeId, cuts: CutSet) {
        *self.slots[n.index()].write() = Some((view.generation(n), cuts));
    }

    /// Stores a freshly computed cut set, counting it as one memo miss.
    fn put_computed<V: AigRead + ?Sized>(&self, view: &V, n: NodeId, cuts: CutSet) -> CutSet {
        if dacpara_obs::is_enabled() {
            obs().memo_misses.incr();
        }
        self.put(view, n, CutSet::clone(&cuts));
        cuts
    }

    /// Returns the cut set of `n`, computing it (and any missing ancestor
    /// sets) bottom-up on demand.
    ///
    /// # Panics
    ///
    /// Panics if `n` or anything in its fanin cone is a dead slot — use
    /// [`CutStore::try_cuts`] when the graph may be mutating concurrently.
    pub fn cuts<V: AigRead + ?Sized>(&self, view: &V, n: NodeId) -> CutSet {
        self.try_cuts(view, n)
            .expect("cut enumeration hit a dead slot")
    }

    /// Like [`CutStore::cuts`], but returns `None` (instead of panicking)
    /// when a dead node is encountered — which can happen when planning
    /// against a concurrently mutating graph; callers retry after
    /// revalidation.
    ///
    /// Memo accounting: the request for `n` and each fanin set an AND node
    /// needs count once — a miss if this call computes the set, a hit if
    /// the memo serves it.
    pub fn try_cuts<V: AigRead + ?Sized>(&self, view: &V, n: NodeId) -> Option<CutSet> {
        if let Some(hit) = self.get(view, n) {
            count_hits(1);
            return Some(hit);
        }
        SCRATCH.with(|scratch| {
            let Scratch { stack, cuts } = &mut *scratch.borrow_mut();
            stack.clear();
            self.compute(view, n, stack, cuts)
        })
    }

    /// The miss path of [`CutStore::try_cuts`]: computes the set of `n` and
    /// every missing set below it, depth first on `stack`.
    fn compute<V: AigRead + ?Sized>(
        &self,
        view: &V,
        n: NodeId,
        stack: &mut Vec<(NodeId, bool)>,
        scratch: &mut Vec<Cut>,
    ) -> Option<CutSet> {
        // Each entry is a set some caller needs; `probed` marks an AND
        // node whose fanins were already looked up (and counted) once.
        stack.push((n, false));
        loop {
            let &(top, probed) = stack.last().expect("the loop returns on an empty stack");
            let cuts = if let Some(hit) = self.get(view, top) {
                count_hits(1);
                hit
            } else {
                match view.kind(top) {
                    NodeKind::Const0 | NodeKind::Input => {
                        self.put_computed(view, top, leaf_cuts(view, top))
                    }
                    NodeKind::And => {
                        let [fa, fb] = view.fanins(top);
                        if !view.is_alive(fa.node()) || !view.is_alive(fb.node()) {
                            return None; // racing against a concurrent mutation
                        }
                        let ca = self.get(view, fa.node());
                        let cb = self.get(view, fb.node());
                        if !probed {
                            count_hits(u64::from(ca.is_some()) + u64::from(cb.is_some()));
                            stack.last_mut().expect("top is on the stack").1 = true;
                        }
                        match (ca, cb) {
                            (Some(ca), Some(cb)) => {
                                and_cuts(view, top, &ca, &cb, &self.cfg, scratch);
                                if dacpara_obs::is_enabled() {
                                    obs().cuts_per_node.record(scratch.len() as u64);
                                }
                                self.put_computed(view, top, CutSet::from(&scratch[..]))
                            }
                            (ca, cb) => {
                                if ca.is_none() {
                                    stack.push((fa.node(), false));
                                }
                                if cb.is_none() {
                                    stack.push((fb.node(), false));
                                }
                                continue;
                            }
                        }
                    }
                    NodeKind::Free => return None,
                }
            };
            stack.pop();
            if stack.is_empty() {
                return Some(cuts);
            }
        }
    }

    /// Clears the cached set of `n`; returns whether one was present.
    ///
    /// The node is also marked dirty (§4.4: an invalidated enumeration
    /// result must be recomputed — and, across passes, the node must be
    /// revisited).
    pub fn invalidate(&self, n: NodeId) -> bool {
        self.mark_dirty(n);
        self.slots[n.index()].write().take().is_some()
    }

    /// Clears the cached sets of `n` and of its transitive fanouts,
    /// short-circuiting on nodes whose entry is already empty (a cleared
    /// node's fanouts were cleared by whoever cleared it).
    pub fn invalidate_tfo<V: AigRead + ?Sized>(&self, view: &V, n: NodeId) {
        let mut stack = vec![(n, true)];
        while let Some((x, force)) = stack.pop() {
            let had = self.invalidate(x);
            if had || force {
                for f in view.fanout_ids(x) {
                    stack.push((f, false));
                }
            }
        }
    }

    /// Number of node slots currently holding a cached set (regardless of
    /// generation freshness).
    pub fn cached_count(&self) -> usize {
        self.slots.iter().filter(|s| s.read().is_some()).count()
    }

    // ---- Dirty tracking -------------------------------------------------

    /// Marks `n` dirty without touching its cached set (used for nodes
    /// whose *gain* inputs — reference counts, sharing opportunities —
    /// changed while their cut structure did not).
    pub fn mark_dirty(&self, n: NodeId) {
        self.dirty[n.index()].store(true, Ordering::Relaxed);
    }

    /// Marks `n` and its transitive fanouts dirty without clearing cached
    /// sets, short-circuiting on nodes already marked (their fanout cone
    /// was walked when they were marked, or is covered by a concurrent
    /// walk). Cached cuts stay valid — only the evaluation verdict is
    /// suspect — which is what keeps incremental passes memo-hot.
    pub fn mark_dirty_tfo<V: AigRead + ?Sized>(&self, view: &V, n: NodeId) {
        let mut stack = vec![n];
        while let Some(x) = stack.pop() {
            if self.dirty[x.index()].swap(true, Ordering::Relaxed) {
                continue; // already marked: its fanouts were covered
            }
            for f in view.fanout_ids(x) {
                stack.push(f);
            }
        }
    }

    /// Whether `n` is currently marked dirty.
    pub fn is_dirty(&self, n: NodeId) -> bool {
        self.dirty[n.index()].load(Ordering::Relaxed)
    }

    /// Number of slots currently marked dirty.
    pub fn dirty_count(&self) -> usize {
        self.dirty
            .iter()
            .filter(|d| d.load(Ordering::Relaxed))
            .count()
    }

    /// Returns every dirty slot (ascending ids) and clears the flags —
    /// the hand-over point between one rewriting pass and the next.
    pub fn drain_dirty(&self) -> Vec<NodeId> {
        let mut out = Vec::new();
        for (i, d) in self.dirty.iter().enumerate() {
            if d.swap(false, Ordering::Relaxed) {
                out.push(NodeId::new(i as u32));
            }
        }
        out
    }
}

impl std::fmt::Debug for CutStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CutStore")
            .field("capacity", &self.slots.len())
            .field("cached", &self.cached_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dacpara_aig::{Aig, Lit};

    fn chain() -> (Aig, Vec<Lit>) {
        let mut aig = Aig::new();
        let ins: Vec<_> = (0..5).map(|_| aig.add_input()).collect();
        let mut lits = Vec::new();
        let mut acc = ins[0];
        for &i in &ins[1..] {
            acc = aig.add_and(acc, i);
            lits.push(acc);
        }
        aig.add_output(acc);
        (aig, lits)
    }

    #[test]
    fn on_demand_computes_transitively() {
        let (aig, lits) = chain();
        let store = CutStore::new(aig.slot_count(), CutConfig::unlimited());
        let top = lits.last().unwrap().node();
        let cuts = store.cuts(&aig, top);
        assert!(cuts.len() > 1);
        for l in &lits {
            assert!(store.get(&aig, l.node()).is_some());
        }
    }

    #[test]
    fn invalidate_tfo_clears_upward() {
        let (aig, lits) = chain();
        let store = CutStore::new(aig.slot_count(), CutConfig::unlimited());
        let top = lits.last().unwrap().node();
        store.cuts(&aig, top);
        let first = lits[0].node();
        store.invalidate_tfo(&aig, first);
        assert!(store.get(&aig, first).is_none());
        for l in &lits[1..] {
            assert!(store.get(&aig, l.node()).is_none(), "{:?}", l.node());
        }
        assert!(store.get(&aig, aig.inputs()[0]).is_some());
    }

    #[test]
    fn invalidate_tfo_short_circuits_on_empty_entries() {
        let (aig, lits) = chain();
        let store = CutStore::new(aig.slot_count(), CutConfig::unlimited());
        let top = lits.last().unwrap().node();
        store.cuts(&aig, top);
        store.invalidate(lits[1].node());
        store.invalidate_tfo(&aig, lits[1].node());
        assert!(store.get(&aig, top).is_none());
    }

    #[test]
    fn generation_mismatch_invalidates_implicitly() {
        let (mut aig, lits) = chain();
        let store = CutStore::new(aig.slot_count() + 8, CutConfig::unlimited());
        let top = lits.last().unwrap().node();
        store.cuts(&aig, top);
        // Replace the bottom AND: its slot is freed and the generation
        // bumped; a recycled occupant must not see the stale entry.
        let victim = lits[0].node();
        let keep = aig.inputs()[0].lit();
        aig.replace(victim, keep);
        assert!(store.get(&aig, victim).is_none(), "gen tag must reject");
    }

    #[test]
    fn grow_extends_capacity() {
        let (aig, _) = chain();
        let mut store = CutStore::new(4, CutConfig::unlimited());
        store.grow(aig.slot_count());
        assert!(store.capacity() >= aig.slot_count());
    }

    #[test]
    fn invalidation_marks_the_cleared_cone_dirty() {
        let (aig, lits) = chain();
        let store = CutStore::new(aig.slot_count(), CutConfig::unlimited());
        let top = lits.last().unwrap().node();
        store.cuts(&aig, top);
        store.invalidate_tfo(&aig, lits[0].node());
        assert!(store.is_dirty(lits[0].node()));
        assert!(store.is_dirty(top));
        let drained = store.drain_dirty();
        assert_eq!(drained.len(), lits.len());
        assert_eq!(store.dirty_count(), 0);
    }

    #[test]
    fn mark_dirty_tfo_keeps_cached_sets() {
        let (aig, lits) = chain();
        let store = CutStore::new(aig.slot_count(), CutConfig::unlimited());
        let top = lits.last().unwrap().node();
        store.cuts(&aig, top);
        store.mark_dirty_tfo(&aig, lits[0].node());
        // Every node upward is marked, but the memo entries survive.
        for l in &lits {
            assert!(store.is_dirty(l.node()));
            assert!(store.get(&aig, l.node()).is_some());
        }
    }

    #[test]
    fn recompute_after_invalidation() {
        let (aig, lits) = chain();
        let store = CutStore::new(aig.slot_count(), CutConfig::unlimited());
        let top = lits.last().unwrap().node();
        let before = store.cuts(&aig, top);
        store.invalidate_tfo(&aig, lits[0].node());
        let after = store.cuts(&aig, top);
        assert_eq!(before.len(), after.len());
    }
}
