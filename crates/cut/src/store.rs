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
//!
//! # Arena entries
//!
//! A computed set is copied once, with its generation, into a chunk of the
//! computing thread's arena shard, and published by one `Release` store of
//! its address into the node's slot. A lookup is one `Acquire` load and a
//! generation compare, and borrows the cuts where they lie: a hit takes no
//! lock and touches no reference count. An entry is never written after it
//! is published, and no chunk is freed or moved while the store is shared —
//! [`CutStore::invalidate`] only nulls the slot — so a borrowed set stays
//! valid for the `&self` borrow it came from. Memory comes back only
//! through `&mut self`: [`CutStore::compact`], or drop.

use std::alloc::{self, Layout};
use std::cell::RefCell;
use std::ptr::{self, NonNull};
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use dacpara_aig::concurrent::CachePadded;
use dacpara_aig::{AigRead, NodeId, NodeKind};
use dacpara_obs::{LogHistogram, ShardedCounter};
use parking_lot::Mutex;

use crate::{and_cuts, leaf_cuts, Cut, CutConfig};

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

/// The head of an arena entry; the entry's `len` cuts follow it.
#[repr(C)]
struct Header {
    /// The node's generation when the set was computed.
    gen: u32,
    len: u32,
    /// The node whose slot the entry was published in.
    node: u32,
}

/// Byte offset of an entry's cuts from its header.
const CUTS_AT: usize = std::mem::size_of::<Header>();
/// Alignment of every chunk and every entry.
const ENTRY_ALIGN: usize = std::mem::align_of::<Header>();
const _: () = assert!(
    std::mem::align_of::<Cut>() <= ENTRY_ALIGN
        && CUTS_AT.is_multiple_of(std::mem::align_of::<Cut>()),
    "an entry's cuts must be aligned behind its header"
);

/// Bytes of one arena chunk. A set too large for one gets a chunk of its
/// own size.
const CHUNK_BYTES: usize = 64 << 10;

/// Bytes an entry of `len` cuts occupies, header included.
fn entry_bytes(len: usize) -> usize {
    (CUTS_AT + len * std::mem::size_of::<Cut>()).next_multiple_of(ENTRY_ALIGN)
}

/// One arena allocation, filled front to back: `0..used` holds entries
/// back to back.
struct Chunk {
    base: NonNull<u8>,
    cap: usize,
    used: usize,
}

// SAFETY: a chunk is the only owner of its allocation, whose bytes are
// headers and cuts — plain `Copy` data with no tie to a thread. A chunk
// moves between threads only inside its shard's mutex or through
// `&mut CutStore`.
unsafe impl Send for Chunk {}

impl Chunk {
    fn layout(cap: usize) -> Layout {
        Layout::from_size_align(cap, ENTRY_ALIGN).expect("a chunk's size fits the address space")
    }

    fn new(cap: usize) -> Chunk {
        let layout = Chunk::layout(cap);
        // SAFETY: `layout`'s size is at least `CUTS_AT`, never zero.
        let base = unsafe { alloc::alloc(layout) };
        let base = NonNull::new(base).unwrap_or_else(|| alloc::handle_alloc_error(layout));
        Chunk { base, cap, used: 0 }
    }
}

impl Drop for Chunk {
    fn drop(&mut self) {
        // SAFETY: `base` was allocated in `Chunk::new` with this layout, and
        // only this drop frees it.
        unsafe { alloc::dealloc(self.base.as_ptr(), Chunk::layout(self.cap)) }
    }
}

/// A shard's chunks, the last one being filled.
#[derive(Default)]
struct Arena {
    chunks: Vec<Chunk>,
    /// Entry bytes written since the last compaction.
    appended: usize,
    /// Tails of chunks left unfilled because the next entry did not fit.
    wasted: usize,
}

impl Arena {
    /// Reserves `bytes`, a multiple of [`ENTRY_ALIGN`], at the end of the
    /// last chunk, starting a new chunk when they do not fit.
    fn reserve(&mut self, bytes: usize) -> NonNull<u8> {
        match self.chunks.last() {
            Some(last) if last.cap - last.used >= bytes => {}
            last => {
                self.wasted += last.map_or(0, |c| c.cap - c.used);
                self.chunks.push(Chunk::new(bytes.max(CHUNK_BYTES)));
            }
        }
        let chunk = self
            .chunks
            .last_mut()
            .expect("a chunk with room was just ensured");
        // SAFETY: `used + bytes <= cap`, so the offset stays inside the
        // allocation.
        let at = unsafe { chunk.base.add(chunk.used) };
        chunk.used += bytes;
        self.appended += bytes;
        at
    }

    /// Writes a new, unpublished entry: the `cuts` of `node`, computed at
    /// generation `gen`.
    fn push(&mut self, node: NodeId, gen: u32, cuts: &[Cut]) -> NonNull<Header> {
        let len = u32::try_from(cuts.len()).expect("a cut set holds fewer than 2^32 cuts");
        let at = self.reserve(entry_bytes(cuts.len()));
        let head = at.cast::<Header>();
        // SAFETY: `reserve` handed out `entry_bytes(len)` bytes at `at` to
        // this entry alone, aligned to `ENTRY_ALIGN`; nobody reads them
        // before they are published. The header fits at offset 0 and the
        // cuts, aligned (the const assertion above), at `CUTS_AT`.
        unsafe {
            head.write(Header {
                gen,
                len,
                node: node.raw(),
            });
            ptr::copy_nonoverlapping(
                cuts.as_ptr(),
                at.add(CUTS_AT).cast::<Cut>().as_ptr(),
                cuts.len(),
            );
        }
        head
    }
}

/// The header and cuts of the entry at `head`.
///
/// # Safety
///
/// `head` must point to an entry that an [`Arena`] of a store borrowed for
/// `'a` wrote completely before this call: in this thread, or published to
/// it by a `Release` slot store that this thread's `Acquire` load of the
/// slot read. Such an entry is never written again, and its chunk lives
/// until the store is next borrowed `&mut`, which `'a` excludes.
unsafe fn entry<'a>(head: NonNull<Header>) -> (&'a Header, &'a [Cut]) {
    // SAFETY: the caller guarantees a complete, live, unwritten entry: a
    // header followed at `CUTS_AT` by `len` initialized, aligned cuts in the
    // same allocation. The cuts pointer derives from `head`, which carries
    // the chunk's provenance.
    unsafe {
        let header = head.as_ref();
        let cuts = head.cast::<u8>().add(CUTS_AT).cast::<Cut>();
        (
            header,
            std::slice::from_raw_parts(cuts.as_ptr(), header.len as usize),
        )
    }
}

/// One thread's share of the arena, on cache lines of its own: the chunks
/// its misses fill, and the entry bytes its slot writes retired.
#[derive(Default)]
struct Shard {
    arena: Mutex<Arena>,
    retired: AtomicUsize,
}

/// Hands each thread a home shard on its first store, round robin: the
/// workers of one team take consecutive homes unless another thread takes
/// one in between, and two threads sharing a shard only contend.
static NEXT_HOME: AtomicUsize = AtomicUsize::new(0);

/// Per-thread scratch of [`CutStore::try_cuts`] and the fanout walks: the
/// request (or walk) stack and the buffer [`and_cuts`] merges into. Both
/// keep their capacity across calls, so computing a set copies it once
/// into the arena, and a walk allocates nothing.
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
    static HOME: usize = NEXT_HOME.fetch_add(1, Ordering::Relaxed);
}

/// Heap bytes a store's arena holds (see [`CutStore::memo_bytes`]).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct MemoBytes {
    /// Bytes of every chunk the arena holds.
    pub held: usize,
    /// Bytes of the entries the slots publish now.
    pub live: usize,
    /// One chunk per shard: the room a shard's last chunk may hold that no
    /// entry has filled yet.
    pub slack: usize,
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
    /// Per node slot: the published entry, or null.
    slots: Vec<AtomicPtr<Header>>,
    /// One shard per hardware thread.
    shards: Box<[CachePadded<Shard>]>,
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
        // Asked once per process: the answer reads cgroup files (about
        // 20 µs a call).
        static SHARDS: OnceLock<usize> = OnceLock::new();
        let shards = *SHARDS
            .get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZero::get));
        CutStore {
            slots: (0..capacity).map(|_| AtomicPtr::default()).collect(),
            shards: (0..shards).map(|_| CachePadded::default()).collect(),
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
            self.slots.push(AtomicPtr::default());
            self.dirty.push(AtomicBool::new(false));
        }
    }

    /// Number of covered slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// The calling thread's shard.
    fn home(&self) -> &Shard {
        &self.shards[HOME.with(|&h| h) % self.shards.len()]
    }

    /// The entry `n`'s slot publishes, if any.
    fn published(&self, n: NodeId) -> Option<(&Header, &[Cut])> {
        let head = NonNull::new(self.slots[n.index()].load(Ordering::Acquire))?;
        // SAFETY: an `Acquire` load of a slot of this store, which `&self`
        // borrows.
        Some(unsafe { entry(head) })
    }

    /// Counts the entry a slot let go of, if any, as retired.
    fn retire(&self, old: *mut Header) {
        if let Some(old) = NonNull::new(old) {
            // SAFETY: swapped out of a slot of this store with `AcqRel`,
            // whose acquire half reads the store that published it.
            let (header, _) = unsafe { entry(old) };
            self.home()
                .retired
                .fetch_add(entry_bytes(header.len as usize), Ordering::Relaxed);
        }
    }

    /// The cached cut set of `n`, if present and still matching `n`'s
    /// current generation. A plain lookup: the memo counters describe
    /// [`CutStore::try_cuts`] only.
    pub fn get<V: AigRead + ?Sized>(&self, view: &V, n: NodeId) -> Option<&[Cut]> {
        let (header, cuts) = self.published(n)?;
        (header.gen == view.generation(n)).then_some(cuts)
    }

    /// Stores a copy of `cuts` for `n` at its current generation, and
    /// returns the copy. A set it replaces stays readable for as long as
    /// whoever borrowed it holds the store.
    pub fn put<V: AigRead + ?Sized>(&self, view: &V, n: NodeId, cuts: &[Cut]) -> &[Cut] {
        let head = self.home().arena.lock().push(n, view.generation(n), cuts);
        let old = self.slots[n.index()].swap(head.as_ptr(), Ordering::AcqRel);
        self.retire(old);
        // SAFETY: this thread wrote the entry completely in `push`, into an
        // arena of this store, which `&self` borrows.
        unsafe { entry(head) }.1
    }

    /// Stores a freshly computed cut set, counting it as one memo miss.
    fn put_computed<V: AigRead + ?Sized>(&self, view: &V, n: NodeId, cuts: &[Cut]) -> &[Cut] {
        if dacpara_obs::is_enabled() {
            obs().memo_misses.incr();
        }
        self.put(view, n, cuts)
    }

    /// Returns the cut set of `n`, computing it (and any missing ancestor
    /// sets) bottom-up on demand.
    ///
    /// # Panics
    ///
    /// Panics if `n` or anything in its fanin cone is a dead slot — use
    /// [`CutStore::try_cuts`] when the graph may be mutating concurrently.
    pub fn cuts<V: AigRead + ?Sized>(&self, view: &V, n: NodeId) -> &[Cut] {
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
    pub fn try_cuts<V: AigRead + ?Sized>(&self, view: &V, n: NodeId) -> Option<&[Cut]> {
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
    ) -> Option<&[Cut]> {
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
                        self.put_computed(view, top, &leaf_cuts(view, top))
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
                                and_cuts(view, top, ca, cb, &self.cfg, scratch);
                                if dacpara_obs::is_enabled() {
                                    obs().cuts_per_node.record(scratch.len() as u64);
                                }
                                self.put_computed(view, top, scratch)
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

    /// Clears the cached set of `n`; returns whether one was present. The
    /// set stays readable for whoever borrowed it.
    ///
    /// The node is also marked dirty (§4.4: an invalidated enumeration
    /// result must be recomputed — and, across passes, the node must be
    /// revisited).
    pub fn invalidate(&self, n: NodeId) -> bool {
        self.mark_dirty(n);
        let slot = &self.slots[n.index()];
        // An empty slot is read, not written.
        if slot.load(Ordering::Acquire).is_null() {
            return false;
        }
        let old = slot.swap(ptr::null_mut(), Ordering::AcqRel);
        self.retire(old);
        !old.is_null()
    }

    /// Clears the cached sets of `n` and of its transitive fanouts,
    /// short-circuiting on nodes whose entry is already empty (a cleared
    /// node's fanouts were cleared by whoever cleared it).
    pub fn invalidate_tfo<V: AigRead + ?Sized>(&self, view: &V, n: NodeId) {
        with_walk_stack(|stack| {
            stack.push((n, true));
            while let Some((x, force)) = stack.pop() {
                let had = self.invalidate(x);
                if had || force {
                    view.for_each_fanout(x, &mut |f| stack.push((f, false)));
                }
            }
        });
    }

    /// Number of node slots currently holding a cached set (regardless of
    /// generation freshness).
    pub fn cached_count(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| !s.load(Ordering::Acquire).is_null())
            .count()
    }

    // ---- Arena memory ---------------------------------------------------

    /// What the arena holds, and how much of it the published entries
    /// fill. Walks every slot.
    pub fn memo_bytes(&self) -> MemoBytes {
        let held = self
            .shards
            .iter()
            .map(|s| s.arena.lock().chunks.iter().map(|c| c.cap).sum::<usize>())
            .sum();
        let live = (0..self.slots.len())
            .filter_map(|i| self.published(NodeId::new(i as u32)))
            .map(|(header, _)| entry_bytes(header.len as usize))
            .sum();
        MemoBytes {
            held,
            live,
            slack: self.shards.len() * CHUNK_BYTES,
        }
    }

    /// Frees the arena bytes no slot publishes, once they outweigh the
    /// published ones: copies each published entry into fresh chunks, and
    /// frees each old chunk as soon as its entries are copied, so the
    /// arena never holds much more than before. Which slot holds which set
    /// does not change. Returns whether it compacted.
    ///
    /// The resident engines call it after every session run, the serial
    /// engine after every replacement.
    pub fn compact(&mut self) -> bool {
        let (mut appended, mut retired, mut wasted) = (0, 0, 0);
        for shard in self.shards.iter() {
            let arena = shard.arena.lock();
            appended += arena.appended;
            wasted += arena.wasted;
            retired += shard.retired.load(Ordering::Relaxed);
        }
        // A thread retires entries of any shard, so only the totals balance.
        if retired + wasted <= appended - retired {
            return false;
        }
        let slots = &self.slots;
        for shard in self.shards.iter() {
            let mut arena = shard.arena.lock();
            for chunk in std::mem::take(&mut *arena).chunks {
                let mut at = 0;
                while at < chunk.used {
                    // SAFETY: `0..used` holds whole entries back to back,
                    // each written completely before `&mut self` was
                    // taken, which also rules out any other access now.
                    let (head, header) = unsafe {
                        let head = chunk.base.add(at).cast::<Header>();
                        (head, entry(head).0)
                    };
                    let bytes = entry_bytes(header.len as usize);
                    let slot = &slots[header.node as usize];
                    if slot.load(Ordering::Relaxed) == head.as_ptr() {
                        let to = arena.reserve(bytes);
                        // SAFETY: both ranges are `bytes` long, in two
                        // different live chunks.
                        unsafe {
                            ptr::copy_nonoverlapping(
                                head.cast::<u8>().as_ptr(),
                                to.as_ptr(),
                                bytes,
                            );
                        }
                        slot.store(to.cast::<Header>().as_ptr(), Ordering::Relaxed);
                    }
                    at += bytes;
                }
                // The old chunk is freed here, before the next one is copied.
            }
            shard.retired.store(0, Ordering::Relaxed);
        }
        true
    }

    // ---- Dirty tracking -------------------------------------------------

    /// Marks `n` dirty without touching its cached set (used for nodes
    /// whose *gain* inputs — reference counts, sharing opportunities —
    /// changed while their cut structure did not).
    pub fn mark_dirty(&self, n: NodeId) {
        let flag = &self.dirty[n.index()];
        if !flag.load(Ordering::Relaxed) {
            flag.store(true, Ordering::Relaxed);
        }
    }

    /// Marks `n` and its transitive fanouts dirty without clearing cached
    /// sets, short-circuiting on nodes already marked (their fanout cone
    /// was walked when they were marked, or is covered by a concurrent
    /// walk). Cached cuts stay valid — only the evaluation verdict is
    /// suspect — which is what keeps incremental passes memo-hot.
    pub fn mark_dirty_tfo<V: AigRead + ?Sized>(&self, view: &V, n: NodeId) {
        with_walk_stack(|stack| {
            stack.push((n, false));
            while let Some((x, _)) = stack.pop() {
                let flag = &self.dirty[x.index()];
                if flag.load(Ordering::Relaxed) || flag.swap(true, Ordering::Relaxed) {
                    continue; // already marked: its fanouts were covered
                }
                view.for_each_fanout(x, &mut |f| stack.push((f, false)));
            }
        });
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

/// Runs `walk` on this thread's scratch stack, emptied.
fn with_walk_stack(walk: impl FnOnce(&mut Vec<(NodeId, bool)>)) {
    SCRATCH.with(|scratch| {
        let stack = &mut scratch.borrow_mut().stack;
        stack.clear();
        walk(stack);
    });
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

    #[test]
    fn a_borrowed_set_outlives_invalidation_and_a_re_put() {
        let (aig, lits) = chain();
        let store = CutStore::new(aig.slot_count(), CutConfig::unlimited());
        let top = lits.last().unwrap().node();
        let borrowed = store.cuts(&aig, top);
        let copy = borrowed.to_vec();
        assert!(store.invalidate(top));
        assert!(store.get(&aig, top).is_none());
        assert_eq!(borrowed, &copy[..]);
        // A re-put of the same slot publishes a new entry and leaves the
        // borrowed one as it was.
        let replaced = store.put(&aig, top, &copy[..1]);
        assert_eq!(replaced, &copy[..1]);
        assert_eq!(store.get(&aig, top), Some(&copy[..1]));
        assert_eq!(borrowed, &copy[..]);
    }

    #[test]
    fn compaction_frees_retired_entries_and_keeps_the_published_ones() {
        let (aig, lits) = chain();
        let mut store = CutStore::new(aig.slot_count(), CutConfig::unlimited());
        let top = lits.last().unwrap().node();
        let before: Vec<Vec<Cut>> = (0..aig.slot_count())
            .map(|i| store.cuts(&aig, NodeId::new(i as u32)).to_vec())
            .collect();
        // Nothing is retired yet: compaction has nothing to do.
        assert!(!store.compact());
        // Retire and recompute the AND sets until the dead entries
        // outweigh the live ones.
        for _ in 0..3 {
            store.invalidate_tfo(&aig, lits[0].node());
            store.cuts(&aig, top);
        }
        let full = store.memo_bytes();
        assert!(store.compact());
        let compacted = store.memo_bytes();
        assert_eq!(compacted.live, full.live);
        assert!(compacted.held <= full.held);
        for (i, cuts) in before.iter().enumerate() {
            assert_eq!(store.get(&aig, NodeId::new(i as u32)), Some(&cuts[..]));
        }
        assert!(!store.compact(), "a compacted arena holds no dead entries");
    }

    #[test]
    fn concurrent_readers_share_published_sets() {
        use std::sync::Barrier;

        let (aig, lits) = chain();
        let store = CutStore::new(aig.slot_count(), CutConfig::unlimited());
        let top = lits.last().unwrap().node();
        let want = CutStore::new(aig.slot_count(), CutConfig::unlimited())
            .cuts(&aig, top)
            .to_vec();
        let start = Barrier::new(4);
        std::thread::scope(|s| {
            for t in 0..4 {
                let (store, start, want, aig, lits) = (&store, &start, &want, &aig, &lits);
                s.spawn(move || {
                    start.wait();
                    for round in 0..200 {
                        // Two threads clear what the others read, so hits,
                        // misses, racing puts and retirements interleave.
                        if t % 2 == round % 2 {
                            store.invalidate_tfo(aig, lits[round % lits.len()].node());
                        }
                        assert_eq!(store.cuts(aig, top), &want[..]);
                    }
                });
            }
        });
        assert_eq!(store.get(&aig, top), Some(&want[..]));
    }
}
