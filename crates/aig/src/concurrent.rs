//! A fixed-capacity AIG whose node fields can be read without locks.
//!
//! [`ConcurrentAig`] backs the parallel rewriting engines. Its design
//! follows the paper's requirements:
//!
//! * **Lock-free reads everywhere** — every node field is an atomic, and the
//!   per-node fanout lists sit behind lightweight reader/writer locks, so
//!   the evaluation stage (§4.3 of the paper, >90% of the runtime) runs with
//!   *no exclusive locks at all*. In the *read-only phase*
//!   ([`ConcurrentAig::begin_read_only`]), which DACPara holds over the
//!   enumeration and evaluation stages of a level list, structural probes
//!   read the fanout lists without touching their lock words either.
//! * **Decentralized structural hashing** — [`ConcurrentAig::find_and`]
//!   scans the fanout list of one fanin instead of probing a global hash
//!   table, the scheme adopted from ICCAD'18.
//! * **Galois-style mutation discipline** — mutating calls
//!   ([`ConcurrentAig::add_and_locked`], [`ConcurrentAig::replace_locked`])
//!   expect the caller to hold the engine's exclusive per-node locks over
//!   every node they touch. The structure itself stays memory-safe without
//!   them (all state is atomic or lock-guarded), but logical consistency —
//!   reference counts, canonicity — relies on the discipline.
//! * **Slot recycling with generations** — like the serial [`Aig`], freed
//!   slots are reused and their generation counter bumped, reproducing the
//!   stored-cut invalidation of Fig. 3. Each worker frees into and
//!   allocates from its own free list and keeps its own share of the AND
//!   count, on cache lines of its own, and `next_fresh` has a line too.
//!
//! Replacements performed in parallel do not cascade structural merges (that
//! would require locking an unbounded fanout frontier mid-mutation).
//! Instead, fanouts whose fanin pair may have become foldable or duplicated
//! are queued, and [`ConcurrentAig::canonicalize_traced`] — called serially
//! at the engine's synchronization points (between level worklists) —
//! restores full strash canonicity. The graph is functionally correct at every instant
//! either way.

use std::cell::{Cell, UnsafeCell};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicU32, AtomicU8, AtomicUsize, Ordering};

use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::{Aig, AigError, AigRead, Lit, NodeId, NodeKind};

const ORD_LOAD: Ordering = Ordering::Acquire;
const ORD_STORE: Ordering = Ordering::Release;

/// Largest addressable capacity: literals pack `(index << 1) | complement`
/// into a `u32`.
const MAX_CAPACITY: usize = (u32::MAX >> 1) as usize;

/// Aligns `T` to 128 bytes, so it shares no cache line with its
/// neighbours (two 64-byte lines: adjacent-line prefetchers pull lines in
/// pairs). The graph pads each worker's lists with it, and the cut memo
/// each worker's arena shard.
#[repr(align(128))]
#[derive(Default)]
pub struct CachePadded<T>(T);

impl<T> Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

/// One worker's slot bookkeeping: the slots it freed, the fanouts its
/// edge moves queued for canonicalization, and the ANDs it added minus
/// those it deleted (the shares sum to [`AigRead::num_ands`]).
struct WorkerLists {
    free: Mutex<Vec<NodeId>>,
    pending: Mutex<Vec<NodeId>>,
    ands: AtomicIsize,
}

/// Hands each thread a home list on its first write, round robin: the
/// workers of one team first write within the same pass, so they take
/// consecutive homes unless another thread takes one in between, and two
/// threads sharing a list only contend.
static NEXT_HOME: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static HOME: usize = NEXT_HOME.fetch_add(1, Ordering::Relaxed);
    /// This thread's cone-deletion stack, kept for its capacity.
    static CONE_STACK: Cell<Vec<NodeId>> = const { Cell::new(Vec::new()) };
}

/// Atomic per-node storage.
struct CNode {
    fanin0: AtomicU32,
    fanin1: AtomicU32,
    refs: AtomicU32,
    po_refs: AtomicU32,
    gen: AtomicU32,
    level: AtomicU32,
    kind: AtomicU8,
    /// Bit 0: queued for canonicalization.
    flags: AtomicU8,
}

impl CNode {
    fn free() -> CNode {
        CNode {
            fanin0: AtomicU32::new(0),
            fanin1: AtomicU32::new(0),
            refs: AtomicU32::new(0),
            po_refs: AtomicU32::new(0),
            gen: AtomicU32::new(0),
            level: AtomicU32::new(0),
            kind: AtomicU8::new(NodeKind::Free.to_u8()),
            flags: AtomicU8::new(0),
        }
    }
}

/// One node's fanout list: the ids of the AND gates it feeds, guarded by
/// `lock` — except in the read-only phase, see [`FanoutLists`].
struct FanoutList {
    lock: RwLock<()>,
    ids: UnsafeCell<Vec<NodeId>>,
}

// SAFETY: `lock` is `Sync` itself. `ids` holds plain `NodeId`s (`Send`
// and `Sync`) and is reached only through `FanoutLists`, which writes it
// under the write lock and reads it under the read lock or in the
// read-only phase, when no thread writes any list (see `FanoutLists::read`).
unsafe impl Sync for FanoutList {}

/// The per-node fanout lists, and the read-only phase in which they are
/// read without their locks.
///
/// Outside the phase every read takes the list's read lock and every write
/// its write lock. [`ConcurrentAig::begin_read_only`] turns the phase on
/// for a span in which nobody writes the graph — DACPara's enumeration and
/// evaluation stages — and [`FanoutLists::read`] then skips the lock word,
/// so a structural probe writes no shared memory. Debug builds check the
/// other half of the contract in [`FanoutLists::write`].
struct FanoutLists {
    lists: Box<[FanoutList]>,
    /// Whether the read-only phase is on. Accessed `Relaxed`: the flag
    /// publishes no data itself; the synchronization its contract requires
    /// around `begin_read_only`/`end_read_only` (barrier steps) orders it
    /// against every reader and writer.
    read_only: AtomicBool,
}

/// A borrowed fanout list; holds the read lock outside the read-only
/// phase.
struct ListRead<'a> {
    _lock: Option<RwLockReadGuard<'a, ()>>,
    ids: &'a [NodeId],
}

impl Deref for ListRead<'_> {
    type Target = [NodeId];

    fn deref(&self) -> &[NodeId] {
        self.ids
    }
}

/// A fanout list borrowed for writing, under its write lock.
struct ListWrite<'a> {
    _lock: RwLockWriteGuard<'a, ()>,
    ids: &'a mut Vec<NodeId>,
}

impl Deref for ListWrite<'_> {
    type Target = Vec<NodeId>;

    fn deref(&self) -> &Vec<NodeId> {
        self.ids
    }
}

impl DerefMut for ListWrite<'_> {
    fn deref_mut(&mut self) -> &mut Vec<NodeId> {
        self.ids
    }
}

impl FanoutLists {
    fn new(capacity: usize) -> FanoutLists {
        FanoutLists {
            lists: (0..capacity)
                .map(|_| FanoutList {
                    lock: RwLock::new(()),
                    ids: UnsafeCell::new(Vec::new()),
                })
                .collect(),
            read_only: AtomicBool::new(false),
        }
    }

    /// Reads the fanout list of `n`.
    fn read(&self, n: NodeId) -> ListRead<'_> {
        let list = &self.lists[n.index()];
        if self.read_only.load(Ordering::Relaxed) {
            // SAFETY: the phase is on, so by the contract of
            // `ConcurrentAig::begin_read_only` every earlier write
            // happens-before this read (through the synchronization that
            // turned the phase on, a barrier step in DACPara), and this read
            // happens-before every later write (through the one that turns
            // it off). `ListRead` is private and lives for one probe, so the
            // borrow ends inside the phase: nothing mutates the list while
            // it is borrowed.
            ListRead {
                _lock: None,
                ids: unsafe { &*list.ids.get() },
            }
        } else {
            let lock = list.lock.read();
            // SAFETY: the read lock excludes writers while `ListRead`
            // holds it, and `ids` is only reachable through that guard.
            ListRead {
                ids: unsafe { &*list.ids.get() },
                _lock: Some(lock),
            }
        }
    }

    /// Writes the fanout list of `n`.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if the read-only phase is on.
    fn write(&self, n: NodeId) -> ListWrite<'_> {
        debug_assert!(
            !self.read_only.load(Ordering::Relaxed),
            "fanout list of {n:?} written during the read-only phase"
        );
        let list = &self.lists[n.index()];
        let lock = list.lock.write();
        // SAFETY: the write lock excludes every locked reader and writer
        // while `ListWrite` holds it, and the read-only phase, which
        // readers would skip the lock in, is off (see `read`).
        ListWrite {
            ids: unsafe { &mut *list.ids.get() },
            _lock: lock,
        }
    }

    /// The fanout list of `n`, through exclusive access to every list.
    fn get_mut(&mut self, n: NodeId) -> &mut Vec<NodeId> {
        self.lists[n.index()].ids.get_mut()
    }
}

/// Shared-memory AIG for the parallel rewriting engines.
///
/// Create one from a serial graph with [`ConcurrentAig::from_aig`], run a
/// parallel pass against it, then convert back with
/// [`ConcurrentAig::to_aig`].
///
/// # Example
///
/// ```
/// use dacpara_aig::{Aig, AigRead, concurrent::ConcurrentAig};
///
/// let mut aig = Aig::new();
/// let a = aig.add_input();
/// let b = aig.add_input();
/// let ab = aig.add_and(a, b);
/// aig.add_output(ab);
/// let shared = ConcurrentAig::from_aig(&aig, 0, 1).unwrap();
/// assert_eq!(shared.num_ands(), 1);
/// let back = shared.to_aig();
/// assert_eq!(back.num_ands(), 1);
/// ```
pub struct ConcurrentAig {
    nodes: Box<[CNode]>,
    fanouts: FanoutLists,
    inputs: Vec<NodeId>,
    outputs: Mutex<Vec<Lit>>,
    /// One free list, pending queue and AND-count share per worker. A
    /// thread writes to its home list (`home`); two threads that share one
    /// only contend.
    workers: Box<[CachePadded<WorkerLists>]>,
    next_fresh: CachePadded<AtomicUsize>,
}

impl ConcurrentAig {
    /// Builds a concurrent copy of `aig` with `spare` free slots beyond its
    /// live nodes, for `workers` threads writing at once (one free list and
    /// pending queue each). Rewriting allocates a replacement's gates
    /// before it frees the old cone, so the caller sizes `spare` to the
    /// most slots that can be in flight at once (see
    /// `docs/ARCHITECTURE.md` §12).
    ///
    /// Live nodes are renumbered compactly: constant, inputs, then ANDs in
    /// topological order.
    ///
    /// # Errors
    ///
    /// Returns [`AigError::CapacityOverflow`] when the capacity does not
    /// fit the node-id space.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn from_aig(aig: &Aig, spare: usize, workers: usize) -> Result<ConcurrentAig, AigError> {
        assert!(workers > 0, "need at least one worker");
        let capacity = Self::capacity_for(aig, spare)?;
        let mut shared = ConcurrentAig {
            nodes: (0..capacity).map(|_| CNode::free()).collect(),
            fanouts: FanoutLists::new(capacity),
            inputs: Vec::new(),
            outputs: Mutex::new(Vec::new()),
            workers: (0..workers)
                .map(|_| {
                    CachePadded(WorkerLists {
                        free: Mutex::new(Vec::new()),
                        pending: Mutex::new(Vec::new()),
                        ands: AtomicIsize::new(0),
                    })
                })
                .collect(),
            // Slot 0 is the constant.
            next_fresh: CachePadded(AtomicUsize::new(1)),
        };
        shared.nodes[0]
            .kind
            .store(NodeKind::Const0.to_u8(), ORD_STORE);
        let mut map: Vec<Lit> = vec![Lit::FALSE; aig.slot_count()];
        for &inp in aig.inputs() {
            let slot = shared.next_fresh.fetch_add(1, Ordering::Relaxed);
            let id = NodeId::new(slot as u32);
            shared.nodes[slot]
                .kind
                .store(NodeKind::Input.to_u8(), ORD_STORE);
            shared.inputs.push(id);
            map[inp.index()] = id.lit();
        }
        for n in crate::topo::topo_ands(aig) {
            let [a, b] = aig.fanins(n);
            let ma = map[a.node().index()].xor(a.is_complement());
            let mb = map[b.node().index()].xor(b.is_complement());
            let (ma, mb) = if ma <= mb { (ma, mb) } else { (mb, ma) };
            let slot = shared.next_fresh.fetch_add(1, Ordering::Relaxed);
            let id = NodeId::new(slot as u32);
            let node = &shared.nodes[slot];
            node.kind.store(NodeKind::And.to_u8(), ORD_STORE);
            node.fanin0.store(ma.raw(), Ordering::Relaxed);
            node.fanin1.store(mb.raw(), Ordering::Relaxed);
            let level = 1 + shared.level(ma.node()).max(shared.level(mb.node()));
            node.level.store(level, Ordering::Relaxed);
            for l in [ma, mb] {
                shared.fanouts.get_mut(l.node()).push(id);
                shared.nodes[l.node().index()]
                    .refs
                    .fetch_add(1, Ordering::Relaxed);
            }
            shared.workers[0].ands.fetch_add(1, Ordering::Relaxed);
            map[n.index()] = id.lit();
        }
        {
            let outs = shared.outputs.get_mut();
            for &po in aig.outputs() {
                let l = map[po.node().index()].xor(po.is_complement());
                outs.push(l);
                shared.nodes[l.node().index()]
                    .refs
                    .fetch_add(1, Ordering::Relaxed);
                shared.nodes[l.node().index()]
                    .po_refs
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(shared)
    }

    /// The arena capacity for `aig` plus `spare` slots, in checked integer
    /// math: a sum that overflows `usize` or passes the packed-literal id
    /// space is an error, never a wrapped value.
    fn capacity_for(aig: &Aig, spare: usize) -> Result<usize, AigError> {
        let live = 1 + aig.num_inputs() + aig.num_ands();
        live.checked_add(spare)
            .filter(|&capacity| capacity <= MAX_CAPACITY)
            .ok_or(AigError::CapacityOverflow { live })
    }

    /// Total number of node slots in the arena.
    pub fn capacity(&self) -> usize {
        self.nodes.len()
    }

    /// Converts back to a compact serial [`Aig`] (folds any residual
    /// non-canonical gates through [`Aig::add_and`]).
    pub fn to_aig(&self) -> Aig {
        let mut aig = Aig::with_capacity(self.num_ands() + self.inputs.len() + 1);
        let mut map: Vec<Lit> = vec![Lit::FALSE; self.capacity()];
        for &inp in &self.inputs {
            map[inp.index()] = aig.add_input();
        }
        for n in crate::topo::topo_ands(self) {
            let [a, b] = self.fanins(n);
            let ma = map[a.node().index()].xor(a.is_complement());
            let mb = map[b.node().index()].xor(b.is_complement());
            map[n.index()] = aig.add_and(ma, mb);
        }
        for po in self.output_lits() {
            let l = map[po.node().index()].xor(po.is_complement());
            aig.add_output(l);
        }
        aig
    }

    /// The calling thread's list: its round-robin home modulo the lists.
    fn home(&self) -> &WorkerLists {
        &self.workers[HOME.with(|&h| h) % self.workers.len()]
    }

    /// Pops a freed slot from `home`'s list, else from the first list that
    /// holds one, and takes a fresh slot only when every list is empty.
    fn alloc_slot(&self, home: &WorkerLists) -> Result<NodeId, AigError> {
        if let Some(id) = home.free.lock().pop() {
            return Ok(id);
        }
        self.alloc_from(&self.workers)
    }

    /// Pops the last freed slot of the first non-empty list in `lists`,
    /// holding each list's lock while it looks further, so a fresh slot is
    /// taken at an instant when every list is empty (the arena bound,
    /// `docs/ARCHITECTURE.md` §12). Lists are always locked in index order,
    /// so two callers cannot deadlock.
    ///
    /// A full arena means the caller's sizing bound was wrong, so it is an
    /// invariant violation rather than a condition to recover from.
    fn alloc_from(&self, lists: &[CachePadded<WorkerLists>]) -> Result<NodeId, AigError> {
        if let Some((first, rest)) = lists.split_first() {
            let mut free = first.free.lock();
            if let Some(id) = free.pop() {
                return Ok(id);
            }
            return self.alloc_from(rest);
        }
        let slot = self.next_fresh.fetch_add(1, Ordering::Relaxed);
        if slot >= self.nodes.len() {
            // Undo so repeated failures don't wrap.
            self.next_fresh.fetch_sub(1, Ordering::Relaxed);
            return Err(AigError::InvariantViolation(format!(
                "concurrent aig arena is full at {} slots",
                self.nodes.len()
            )));
        }
        Ok(NodeId::new(slot as u32))
    }

    /// Turns the read-only phase on: until [`ConcurrentAig::end_read_only`],
    /// structural probes ([`AigRead::find_and`],
    /// [`ConcurrentAig::find_and_excluding`]) and every other fanout-list
    /// read skip the list's lock. Idempotent.
    ///
    /// DACPara enters the phase in the barrier step that opens a level
    /// list's enumeration stage and leaves it in the one that opens its
    /// replacement stage (see `docs/ARCHITECTURE.md` §4).
    ///
    /// # Safety
    ///
    /// Until the phase ends, no thread may write the graph — call
    /// [`ConcurrentAig::add_and_locked`], [`ConcurrentAig::replace_locked`],
    /// [`ConcurrentAig::delete_cone`] or the serial maintenance passes —
    /// while another thread may be reading it. The call itself, and the
    /// matching `end_read_only`, must be ordered against every thread that
    /// reads in between (as a barrier orders its team), so that earlier
    /// writes happen-before the unlocked reads and those reads
    /// happen-before later writes. Debug builds assert on a fanout write
    /// while the phase is on.
    pub unsafe fn begin_read_only(&self) {
        self.fanouts.read_only.store(true, Ordering::Relaxed);
    }

    /// Turns the read-only phase off; fanout reads take their locks again.
    /// Idempotent, and safe: ending the phase only restores locking.
    pub fn end_read_only(&self) {
        self.fanouts.read_only.store(false, Ordering::Relaxed);
    }

    /// Whether the read-only phase is on.
    pub fn is_read_only(&self) -> bool {
        self.fanouts.read_only.load(Ordering::Relaxed)
    }

    /// Like [`AigRead::find_and`] but never returns `exclude` — needed when
    /// probing whether a node duplicates *another* node.
    pub fn find_and_excluding(&self, f0: Lit, f1: Lit, exclude: NodeId) -> Option<NodeId> {
        let (a, b) = if f0 <= f1 { (f0, f1) } else { (f1, f0) };
        // Scan whichever fanin has the shorter fanout list (high-fanout
        // nodes would otherwise dominate the decentralized lookup cost). A
        // list holds one entry per fanin edge, so its length is the atomic
        // `refs - po_refs` (an invariant `check` verifies) and only the
        // scanned list is locked (none in the read-only phase).
        let scan = if self.fanout_count(a.node()) <= self.fanout_count(b.node()) {
            a.node()
        } else {
            b.node()
        };
        for &cand in self.fanouts.read(scan).iter() {
            if cand == exclude || self.kind(cand) != NodeKind::And {
                continue;
            }
            let ca = Lit::from_raw(self.nodes[cand.index()].fanin0.load(ORD_LOAD));
            let cb = Lit::from_raw(self.nodes[cand.index()].fanin1.load(ORD_LOAD));
            if (ca, cb) == (a, b) {
                return Some(cand);
            }
        }
        None
    }

    /// Number of AND fanouts of `n` (the length of its fanout list): its
    /// references minus those from primary outputs.
    fn fanout_count(&self, n: NodeId) -> u32 {
        let node = &self.nodes[n.index()];
        node.refs
            .load(ORD_LOAD)
            .wrapping_sub(node.po_refs.load(ORD_LOAD))
    }

    /// Creates (or finds) the AND of `a` and `b`.
    ///
    /// Lock discipline: the caller must hold the engine's exclusive locks on
    /// `a.node()` and `b.node()` (their fanout lists are probed and then
    /// extended, which must not race with other structural lookups on the
    /// same nodes).
    ///
    /// # Errors
    ///
    /// Returns [`AigError::InvariantViolation`] when the arena is full.
    pub fn add_and_locked(&self, a: Lit, b: Lit) -> Result<Lit, AigError> {
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        if let Some(l) = Aig::fold_and(a, b) {
            return Ok(l);
        }
        if let Some(n) = self.find_and(a, b) {
            return Ok(n.lit());
        }
        let home = self.home();
        let id = self.alloc_slot(home)?;
        let node = &self.nodes[id.index()];
        node.fanin0.store(a.raw(), Ordering::Relaxed);
        node.fanin1.store(b.raw(), Ordering::Relaxed);
        node.refs.store(0, Ordering::Relaxed);
        node.po_refs.store(0, Ordering::Relaxed);
        let level = 1 + self.level(a.node()).max(self.level(b.node()));
        node.level.store(level, Ordering::Relaxed);
        node.gen.fetch_add(1, Ordering::AcqRel);
        node.kind.store(NodeKind::And.to_u8(), ORD_STORE);
        for l in [a, b] {
            self.fanouts.write(l.node()).push(id);
            self.nodes[l.node().index()]
                .refs
                .fetch_add(1, Ordering::AcqRel);
        }
        home.ands.fetch_add(1, Ordering::AcqRel);
        Ok(id.lit())
    }

    /// Replaces every use of `old` by the literal `new` and deletes the part
    /// of `old`'s fanin cone that becomes dangling.
    ///
    /// Lock discipline: the caller must hold exclusive locks on `old`, its
    /// fanouts, every node of its (cut-bounded) MFFC and the MFFC boundary
    /// nodes whose reference counts change — exactly the "relevant nodes" of
    /// the paper's replacement operator.
    ///
    /// Structural merges exposed by the edge moves are queued for the next
    /// [`ConcurrentAig::canonicalize_traced`] instead of cascading
    /// immediately.
    pub fn replace_locked(&self, old: NodeId, new: Lit) {
        debug_assert_eq!(self.kind(old), NodeKind::And);
        debug_assert!(self.is_alive(new.node()));
        if new.node() == old {
            return;
        }
        // Pin `new` so cone deletion cannot reclaim it.
        self.nodes[new.node().index()]
            .refs
            .fetch_add(1, Ordering::AcqRel);
        self.move_fanout_edges(old, new);
        if self.nodes[old.index()].refs.load(ORD_LOAD) == 0 {
            self.delete_cone(old);
        }
        self.nodes[new.node().index()]
            .refs
            .fetch_sub(1, Ordering::AcqRel);
    }

    fn move_fanout_edges(&self, o: NodeId, t: Lit) {
        loop {
            let f = {
                match self.fanouts.write(o).pop() {
                    Some(f) => f,
                    None => break,
                }
            };
            self.nodes[o.index()].refs.fetch_sub(1, Ordering::AcqRel);
            let node = &self.nodes[f.index()];
            let f0 = Lit::from_raw(node.fanin0.load(ORD_LOAD));
            let f1 = Lit::from_raw(node.fanin1.load(ORD_LOAD));
            let (mut a, mut b) = (f0, f1);
            if a.node() == o {
                a = t.xor(a.is_complement());
            } else {
                debug_assert_eq!(b.node(), o);
                b = t.xor(b.is_complement());
            }
            let (a, b) = if a <= b { (a, b) } else { (b, a) };
            node.fanin0.store(a.raw(), Ordering::Relaxed);
            node.fanin1.store(b.raw(), Ordering::Relaxed);
            node.gen.fetch_add(1, Ordering::AcqRel);
            self.fanouts.write(t.node()).push(f);
            self.nodes[t.node().index()]
                .refs
                .fetch_add(1, Ordering::AcqRel);
            self.mark_pending(f);
        }
        if self.nodes[o.index()].po_refs.load(ORD_LOAD) > 0 {
            let mut outs = self.outputs.lock();
            let mut moved = 0u32;
            for po in outs.iter_mut() {
                if po.node() == o {
                    *po = t.xor(po.is_complement());
                    moved += 1;
                }
            }
            drop(outs);
            if moved > 0 {
                self.nodes[o.index()]
                    .refs
                    .fetch_sub(moved, Ordering::AcqRel);
                self.nodes[o.index()]
                    .po_refs
                    .fetch_sub(moved, Ordering::AcqRel);
                self.nodes[t.node().index()]
                    .refs
                    .fetch_add(moved, Ordering::AcqRel);
                self.nodes[t.node().index()]
                    .po_refs
                    .fetch_add(moved, Ordering::AcqRel);
            }
        }
    }

    fn mark_pending(&self, n: NodeId) {
        let prev = self.nodes[n.index()].flags.fetch_or(1, Ordering::AcqRel);
        if prev & 1 == 0 {
            self.home().pending.lock().push(n);
        }
    }

    /// Deletes the dangling node `root` (refs == 0) and, transitively, every
    /// fanin that becomes dangling. Same lock discipline as
    /// [`ConcurrentAig::replace_locked`].
    pub fn delete_cone(&self, root: NodeId) {
        self.delete_cone_inner(root, None);
    }

    fn delete_cone_inner(&self, root: NodeId, mut boundary: Option<&mut Vec<NodeId>>) {
        debug_assert_eq!(self.nodes[root.index()].refs.load(ORD_LOAD), 0);
        debug_assert_eq!(self.kind(root), NodeKind::And);
        let home = self.home();
        let mut stack = CONE_STACK.take();
        stack.clear();
        stack.push(root);
        while let Some(n) = stack.pop() {
            let node = &self.nodes[n.index()];
            let f0 = Lit::from_raw(node.fanin0.load(ORD_LOAD));
            let f1 = Lit::from_raw(node.fanin1.load(ORD_LOAD));
            for l in [f0, f1] {
                let v = l.node();
                {
                    let mut guard = self.fanouts.write(v);
                    let pos = guard
                        .iter()
                        .position(|&x| x == n)
                        .expect("fanout lists out of sync");
                    guard.swap_remove(pos);
                }
                let prev = self.nodes[v.index()].refs.fetch_sub(1, Ordering::AcqRel);
                if prev == 1 && self.kind(v) == NodeKind::And {
                    stack.push(v);
                } else if let Some(b) = boundary.as_deref_mut() {
                    b.push(v);
                }
            }
            node.kind.store(NodeKind::Free.to_u8(), ORD_STORE);
            node.gen.fetch_add(1, Ordering::AcqRel);
            home.ands.fetch_sub(1, Ordering::AcqRel);
            home.free.lock().push(n);
        }
        CONE_STACK.set(stack);
    }

    /// Restores strash canonicity by folding/merging every queued node, with
    /// full cascading. **Must be called from a single thread while no
    /// parallel operators are running** (the engines call it at barriers).
    /// Returns the number of nodes eliminated, and records the nodes whose
    /// cached cut or cost picture may have changed, in two kinds:
    ///
    /// * `refanined`: each processed pending node — its fanins were moved,
    ///   so its cuts, and those of its transitive fanouts, may have changed;
    /// * `gain_only`: each merge target (its fanout set grew) and each
    ///   surviving boundary fanin of a cone deleted by a merge (its
    ///   reference count fell). Their structure, and so their cuts and
    ///   those of their fanouts, did not change.
    ///
    /// Entries may repeat, and some may be dead by the time this returns.
    pub fn canonicalize_traced(
        &self,
        refanined: &mut Vec<NodeId>,
        gain_only: &mut Vec<NodeId>,
    ) -> usize {
        let before = self.num_ands();
        let mut batch = Vec::new();
        loop {
            batch.clear();
            for lists in self.workers.iter() {
                batch.append(&mut lists.pending.lock());
            }
            if batch.is_empty() {
                break;
            }
            for &f in &batch {
                self.nodes[f.index()].flags.fetch_and(!1, Ordering::AcqRel);
                if self.kind(f) != NodeKind::And {
                    continue;
                }
                refanined.push(f);
                let a = Lit::from_raw(self.nodes[f.index()].fanin0.load(ORD_LOAD));
                let b = Lit::from_raw(self.nodes[f.index()].fanin1.load(ORD_LOAD));
                let target = if let Some(t) = Aig::fold_and(a, b) {
                    Some(t)
                } else {
                    self.find_and_excluding(a, b, f).map(NodeId::lit)
                };
                if let Some(t) = target {
                    gain_only.push(t.node());
                    self.nodes[t.node().index()]
                        .refs
                        .fetch_add(1, Ordering::AcqRel);
                    self.move_fanout_edges(f, t);
                    debug_assert_eq!(self.nodes[f.index()].refs.load(ORD_LOAD), 0);
                    self.delete_cone_inner(f, Some(&mut *gain_only));
                    self.nodes[t.node().index()]
                        .refs
                        .fetch_sub(1, Ordering::AcqRel);
                }
            }
        }
        before - self.num_ands()
    }

    /// Recomputes every level from scratch. Call from a single thread at a
    /// synchronization point.
    pub fn recompute_levels(&self) {
        for n in crate::topo::topo_ands(self) {
            let [a, b] = self.fanins(n);
            let level = 1 + self.level(a.node()).max(self.level(b.node()));
            self.nodes[n.index()].level.store(level, Ordering::Relaxed);
        }
    }

    /// Removes every dangling AND node. Call from a single thread. Records
    /// each *surviving* fanin of a deleted node into `boundary` — the nodes
    /// whose reference counts (and hence MFFC/sharing picture) changed
    /// without their own structure changing. Entries may repeat.
    pub fn cleanup_traced(&self, boundary: &mut Vec<NodeId>) -> usize {
        let before = self.num_ands();
        for i in 0..self.capacity() {
            let n = NodeId::new(i as u32);
            if self.kind(n) == NodeKind::And && self.refs(n) == 0 {
                self.delete_cone_inner(n, Some(&mut *boundary));
            }
        }
        before - self.num_ands()
    }

    /// Verifies the structural invariants via conversion: the compact
    /// serial copy must pass [`Aig::check`], and the bookkeeping counters
    /// must be internally consistent — every live node's reference count
    /// matches its fanin and output uses, its output count matches its
    /// occurrences among the outputs, and its fanout list holds exactly
    /// `refs - po_refs` entries (the length [`AigRead::find_and`] reads to
    /// pick the list it scans).
    ///
    /// # Errors
    ///
    /// Returns [`AigError::InvariantViolation`] on the first mismatch.
    pub fn check(&self) -> Result<(), AigError> {
        let mut refs = vec![0u32; self.capacity()];
        let mut po_refs = vec![0u32; self.capacity()];
        for i in 0..self.capacity() {
            let n = NodeId::new(i as u32);
            if self.kind(n) != NodeKind::And {
                continue;
            }
            for l in self.fanins(n) {
                if !self.is_alive(l.node()) {
                    return Err(AigError::InvariantViolation(format!(
                        "{n:?} has dead fanin {l:?}"
                    )));
                }
                refs[l.node().index()] += 1;
            }
        }
        for po in self.output_lits() {
            refs[po.node().index()] += 1;
            po_refs[po.node().index()] += 1;
        }
        for (i, (&want, &want_po)) in refs.iter().zip(&po_refs).enumerate() {
            let n = NodeId::new(i as u32);
            if !self.is_alive(n) {
                continue;
            }
            if self.refs(n) != want {
                return Err(AigError::InvariantViolation(format!(
                    "{n:?}: stored refs {} recomputed {want}",
                    self.refs(n),
                )));
            }
            let stored_po = self.nodes[i].po_refs.load(ORD_LOAD);
            if stored_po != want_po {
                return Err(AigError::InvariantViolation(format!(
                    "{n:?}: stored po_refs {stored_po} but {want_po} output uses"
                )));
            }
            let listed = self.fanouts.read(n).len();
            if listed != (want - want_po) as usize {
                return Err(AigError::InvariantViolation(format!(
                    "{n:?}: fanout list holds {listed} entries for {} fanin uses",
                    want - want_po
                )));
            }
        }
        self.to_aig().check()
    }
}

impl AigRead for ConcurrentAig {
    fn slot_count(&self) -> usize {
        self.nodes.len()
    }

    fn kind(&self, n: NodeId) -> NodeKind {
        NodeKind::from_u8(self.nodes[n.index()].kind.load(ORD_LOAD))
    }

    fn fanins(&self, n: NodeId) -> [Lit; 2] {
        let node = &self.nodes[n.index()];
        [
            Lit::from_raw(node.fanin0.load(ORD_LOAD)),
            Lit::from_raw(node.fanin1.load(ORD_LOAD)),
        ]
    }

    fn refs(&self, n: NodeId) -> u32 {
        self.nodes[n.index()].refs.load(ORD_LOAD)
    }

    fn generation(&self, n: NodeId) -> u32 {
        self.nodes[n.index()].gen.load(ORD_LOAD)
    }

    fn level(&self, n: NodeId) -> u32 {
        self.nodes[n.index()].level.load(ORD_LOAD)
    }

    fn find_and(&self, f0: Lit, f1: Lit) -> Option<NodeId> {
        self.find_and_excluding(f0, f1, NodeId::CONST0)
    }

    fn input_ids(&self) -> Vec<NodeId> {
        self.inputs.clone()
    }

    fn output_lits(&self) -> Vec<Lit> {
        self.outputs.lock().clone()
    }

    fn num_ands(&self) -> usize {
        let ands: isize = self.workers.iter().map(|w| w.ands.load(ORD_LOAD)).sum();
        ands as usize
    }

    fn for_each_fanout(&self, n: NodeId, visit: &mut dyn FnMut(NodeId)) {
        self.fanouts.read(n).iter().for_each(|&f| visit(f));
    }
}

impl std::fmt::Debug for ConcurrentAig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConcurrentAig")
            .field("capacity", &self.capacity())
            .field("inputs", &self.inputs.len())
            .field("outputs", &self.outputs.lock().len())
            .field("num_ands", &self.num_ands())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Aig, Lit, Lit, Lit) {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let c = aig.add_input();
        let x = aig.add_xor(a, b);
        let m = aig.add_mux(c, x, a);
        aig.add_output(m);
        (aig, a, b, c)
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let (aig, ..) = sample();
        let shared = ConcurrentAig::from_aig(&aig, 8, 1).unwrap();
        shared.check().unwrap();
        let back = shared.to_aig();
        back.check().unwrap();
        assert_eq!(back.num_ands(), aig.num_ands());
        assert_eq!(back.num_inputs(), aig.num_inputs());
        assert_eq!(back.num_outputs(), aig.num_outputs());
    }

    #[test]
    fn check_catches_fanout_list_and_output_count_drift() {
        let (aig, ..) = sample();
        let shared = ConcurrentAig::from_aig(&aig, 8, 1).unwrap();
        let input = shared.input_ids()[0];
        // A fanout entry without a matching reference.
        shared.fanouts.write(input).push(input);
        let err = shared.check().unwrap_err();
        assert!(format!("{err}").contains("fanout list"), "{err}");
        shared.fanouts.write(input).pop();
        shared.check().unwrap();
        // An output count that disagrees with the outputs.
        shared.nodes[input.index()]
            .po_refs
            .fetch_add(1, Ordering::Relaxed);
        let err = shared.check().unwrap_err();
        assert!(format!("{err}").contains("po_refs"), "{err}");
    }

    #[test]
    fn lookup_scans_the_shorter_list_by_reference_count() {
        // `a` feeds four gates and an output, `b` one gate: the counts the
        // lookup compares equal the list lengths, and the lookup succeeds
        // from either operand order.
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let c = aig.add_input();
        let d = aig.add_input();
        let ab = aig.add_and(a, b);
        for x in [c, d, !c] {
            let g = aig.add_and(a, x);
            aig.add_output(g);
        }
        aig.add_output(ab);
        aig.add_output(a);
        let shared = ConcurrentAig::from_aig(&aig, 8, 1).unwrap();
        let ins = shared.input_ids();
        let (sa, sb) = (ins[0], ins[1]);
        assert_eq!(shared.fanout_count(sa), 4);
        assert_eq!(shared.fanout_count(sb), 1);
        let sab = shared
            .find_and(sa.lit(), sb.lit())
            .expect("AND(a, b) exists");
        assert_eq!(shared.find_and(sb.lit(), sa.lit()), Some(sab));
        assert_eq!(shared.find_and(sa.lit(), !sb.lit()), None);
        shared.check().unwrap();
    }

    #[test]
    fn decentralized_lookup_matches_serial() {
        let (aig, ..) = sample();
        let shared = ConcurrentAig::from_aig(&aig, 8, 1).unwrap();
        for i in 0..shared.capacity() {
            let n = NodeId::new(i as u32);
            if shared.kind(n) == NodeKind::And {
                let [a, b] = shared.fanins(n);
                assert_eq!(shared.find_and(a, b), Some(n));
                assert_eq!(shared.find_and(b, a), Some(n));
            }
        }
    }

    #[test]
    fn read_only_probes_match_locked_probes() {
        let (aig, ..) = sample();
        let shared = ConcurrentAig::from_aig(&aig, 8, 1).unwrap();
        let ands: Vec<NodeId> = (0..shared.capacity())
            .map(|i| NodeId::new(i as u32))
            .filter(|&n| shared.kind(n) == NodeKind::And)
            .collect();
        let probe = |shared: &ConcurrentAig| -> Vec<_> {
            ands.iter()
                .map(|&n| {
                    let [a, b] = shared.fanins(n);
                    let mut fanouts = Vec::new();
                    shared.for_each_fanout(a.node(), &mut |f| fanouts.push(f));
                    (shared.find_and(b, a), shared.find_and(!a, b), fanouts)
                })
                .collect()
        };
        let locked = probe(&shared);
        // SAFETY: this thread is the only one using the graph.
        unsafe { shared.begin_read_only() };
        assert!(shared.is_read_only());
        assert_eq!(probe(&shared), locked);
        shared.end_read_only();
        assert!(!shared.is_read_only());
        // Writers work again once the phase is over.
        let ins = shared.input_ids();
        shared.add_and_locked(ins[0].lit(), ins[1].lit()).unwrap();
        shared.check().unwrap();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "written during the read-only phase")]
    fn fanout_writer_panics_in_the_read_only_phase() {
        let (aig, ..) = sample();
        let shared = ConcurrentAig::from_aig(&aig, 8, 1).unwrap();
        let ins = shared.input_ids();
        // SAFETY: this thread is the only one using the graph, so the write
        // below races no reader; the assertion refuses it before it writes.
        unsafe { shared.begin_read_only() };
        let _ = shared.add_and_locked(ins[0].lit(), ins[1].lit());
    }

    #[test]
    fn add_and_locked_reuses_and_creates() {
        let (aig, ..) = sample();
        let shared = ConcurrentAig::from_aig(&aig, 8, 1).unwrap();
        let ins = shared.input_ids();
        let (a, b) = (ins[0].lit(), ins[1].lit());
        let before = shared.num_ands();
        // AND(a, b) exists inside the XOR already? Not directly: XOR is built
        // from AND(a,!b), AND(!a,b) — so AND(a,b) is new.
        let fresh = shared.add_and_locked(a, b).unwrap();
        assert_eq!(shared.num_ands(), before + 1);
        let again = shared.add_and_locked(b, a).unwrap();
        assert_eq!(fresh, again);
        assert_eq!(shared.num_ands(), before + 1);
        assert_eq!(shared.add_and_locked(a, Lit::TRUE).unwrap(), a);
    }

    #[test]
    fn replace_locked_moves_fanouts_and_canonicalize_merges() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let c = aig.add_input();
        let ac = aig.add_and(a, c);
        let bc = aig.add_and(b, c);
        let top = aig.add_and(ac, bc);
        aig.add_output(top);
        let shared = ConcurrentAig::from_aig(&aig, 8, 1).unwrap();

        // Find the concurrent ids of ac/bc via lookup.
        let ins = shared.input_ids();
        let (ca, cb, cc) = (ins[0].lit(), ins[1].lit(), ins[2].lit());
        let sac = shared.find_and(ca, cc).unwrap();
        let sbc = shared.find_and(cb, cc).unwrap();

        // Replace bc by ac: the top AND folds to ac, PO must follow.
        shared.replace_locked(sbc, sac.lit());
        let (mut refanined, mut gain_only) = (Vec::new(), Vec::new());
        let merged = shared.canonicalize_traced(&mut refanined, &mut gain_only);
        assert!(merged >= 1);
        assert!(!refanined.is_empty(), "the replacement queued its fanout");
        shared.check().unwrap();
        assert_eq!(shared.num_ands(), 1);
        assert_eq!(shared.output_lits()[0], sac.lit());
    }

    #[test]
    fn slot_reuse_bumps_generation() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let ab = aig.add_and(a, b);
        aig.add_output(ab);
        let shared = ConcurrentAig::from_aig(&aig, 8, 1).unwrap();
        let ins = shared.input_ids();
        let sab = shared.find_and(ins[0].lit(), ins[1].lit()).unwrap();
        let gen0 = shared.generation(sab);
        shared.replace_locked(sab, ins[0].lit());
        assert!(!shared.is_alive(sab));
        assert!(shared.generation(sab) > gen0);
        // The freed slot is recycled by the next allocation (LIFO free list),
        // reproducing the ID-reuse hazard of the paper's Fig. 3.
        let fresh = shared.add_and_locked(!ins[0].lit(), ins[1].lit()).unwrap();
        assert_eq!(fresh.node(), sab);
        assert!(shared.generation(sab) > gen0);
        let (mut refanined, mut gain_only) = (Vec::new(), Vec::new());
        shared.canonicalize_traced(&mut refanined, &mut gain_only);
        shared.cleanup_traced(&mut gain_only);
        shared.check().unwrap();
    }

    #[test]
    fn a_fresh_slot_is_taken_only_when_every_list_is_empty() {
        let (aig, ..) = sample();
        let shared = ConcurrentAig::from_aig(&aig, 8, 2).unwrap();
        let lists = [&*shared.workers[0], &*shared.workers[1]];
        let fresh = || shared.next_fresh.load(Ordering::Relaxed);
        let taken: Vec<NodeId> = (0..3)
            .map(|_| shared.alloc_slot(lists[0]).unwrap())
            .collect();
        let high_water = fresh();
        // Each worker frees into its own list; either worker reuses the
        // other's slots once its own list runs dry.
        for (home, other) in [(0, 1), (1, 0)] {
            lists[other].free.lock().push(taken[0]);
            assert_eq!(shared.alloc_slot(lists[home]).unwrap(), taken[0]);
            lists[home].free.lock().push(taken[1]);
            lists[other].free.lock().push(taken[2]);
            assert_eq!(shared.alloc_slot(lists[home]).unwrap(), taken[1]);
            assert_eq!(shared.alloc_slot(lists[home]).unwrap(), taken[2]);
            assert_eq!(fresh(), high_water, "a freed slot was waiting");
        }
        // Only with both lists empty does the arena grow.
        let grown = shared.alloc_slot(lists[1]).unwrap();
        assert_eq!(grown.index(), high_water);
        assert_eq!(fresh(), high_water + 1);
    }

    #[test]
    fn canonicalize_traced_reports_merge_sites() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let c = aig.add_input();
        let ac = aig.add_and(a, c);
        let bc = aig.add_and(b, c);
        let top = aig.add_and(ac, bc);
        aig.add_output(top);
        let shared = ConcurrentAig::from_aig(&aig, 8, 1).unwrap();
        let ins = shared.input_ids();
        let (ca, cb, cc) = (ins[0].lit(), ins[1].lit(), ins[2].lit());
        let sac = shared.find_and(ca, cc).unwrap();
        let sbc = shared.find_and(cb, cc).unwrap();
        let stop = shared.find_and(sac.lit(), sbc.lit()).unwrap();

        shared.replace_locked(sbc, sac.lit());
        let (mut refanined, mut gain_only) = (Vec::new(), Vec::new());
        let merged = shared.canonicalize_traced(&mut refanined, &mut gain_only);
        assert!(merged >= 1);
        shared.check().unwrap();
        // The queued fanout (top) was processed, and its merge target (ac)
        // absorbed the fanout edges — each must be reported as its kind.
        assert!(refanined.contains(&stop));
        assert!(gain_only.contains(&sac));
        assert!(!refanined.contains(&sac));
    }

    #[test]
    fn cleanup_traced_reports_cone_boundary() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let c = aig.add_input();
        let ab = aig.add_and(a, b);
        let _abc = aig.add_and(ab, c); // dangling: only ab is an output
        aig.add_output(ab);
        let shared = ConcurrentAig::from_aig(&aig, 8, 1).unwrap();
        let ins = shared.input_ids();
        let sab = shared.find_and(ins[0].lit(), ins[1].lit()).unwrap();
        let sabc = shared.find_and(sab.lit(), ins[2].lit()).unwrap();
        assert_eq!(shared.refs(sabc), 0);

        // Deleting the dangling abc leaves ab (still a PO driver) and input
        // c on the cone's boundary — their refs drop but they survive.
        let mut boundary = Vec::new();
        let removed = shared.cleanup_traced(&mut boundary);
        assert_eq!(removed, 1);
        assert!(!shared.is_alive(sabc));
        assert!(shared.is_alive(sab));
        assert!(boundary.contains(&sab));
        assert!(boundary.contains(&ins[2]));
        shared.check().unwrap();
    }

    #[test]
    fn capacity_exhaustion_is_reported() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let ab = aig.add_and(a, b);
        aig.add_output(ab);
        let shared = ConcurrentAig::from_aig(&aig, 2, 1).unwrap();
        let ins = shared.input_ids();
        // Fill the two spare slots; the third fresh gate finds the arena
        // full, which is an error, not a panic or a wrapped index.
        let mut lit = ins[0].lit();
        let mut built = 0;
        for i in 0..8u32 {
            // Alternate the polarity so no gate already exists or folds.
            let other = if i % 2 == 0 {
                !ins[1].lit()
            } else {
                ins[1].lit()
            };
            match shared.add_and_locked(lit, other) {
                Ok(l) => {
                    lit = l;
                    built += 1;
                }
                Err(AigError::InvariantViolation(msg)) => {
                    assert!(msg.contains("full"), "{msg}");
                    break;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert_eq!(built, 2);
        assert_eq!(shared.capacity(), 1 + 2 + 1 + 2);
        shared.check().unwrap();
    }

    #[test]
    fn capacity_for_uses_checked_integer_math() {
        let (aig, ..) = sample();
        let live = 1 + aig.num_inputs() + aig.num_ands();
        assert_eq!(ConcurrentAig::capacity_for(&aig, 0).unwrap(), live);
        assert_eq!(ConcurrentAig::capacity_for(&aig, 66).unwrap(), live + 66);
        // A sum that would wrap `usize` errors out.
        assert!(matches!(
            ConcurrentAig::capacity_for(&aig, usize::MAX),
            Err(AigError::CapacityOverflow { .. })
        ));
        // Anything past the packed-literal id space is refused even when
        // the addition itself does not overflow.
        assert!(matches!(
            ConcurrentAig::capacity_for(&aig, (u32::MAX >> 1) as usize),
            Err(AigError::CapacityOverflow { .. })
        ));
    }
}
