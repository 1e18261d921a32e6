//! Every cut set `CutStore` serves lives in an arena chunk, behind a
//! header no larger than one cut: a store's heap grows by at most one
//! cut's size per set plus the set's cuts, and one chunk per arena shard
//! for the room not filled yet — never by a block per set.
//!
//! The check counts live heap bytes with a counting global allocator, so
//! it lives in its own integration-test file (= its own process); keep it
//! to a single `#[test]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use dacpara_aig::{Aig, AigRead, Lit, NodeId};
use dacpara_cut::{Cut, CutConfig, CutStore};

/// The system allocator, counting the bytes currently allocated.
struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn live() -> isize {
    LIVE.load(Ordering::Relaxed)
}

/// A reconvergent 8-input circuit whose nodes have many cuts: pairwise
/// XORs, then a layer of ANDs and ORs over overlapping pairs of them.
fn reconvergent() -> Aig {
    let mut aig = Aig::new();
    let ins: Vec<Lit> = (0..8).map(|_| aig.add_input()).collect();
    let xors: Vec<Lit> = ins.windows(2).map(|w| aig.add_xor(w[0], w[1])).collect();
    let mut top = Vec::new();
    for w in xors.windows(3) {
        let a = aig.add_and(w[0], w[1]);
        let o = aig.add_or(a, w[2]);
        top.push(o);
    }
    let mut acc = top[0];
    for &t in &top[1..] {
        acc = aig.add_and(acc, !t);
        aig.add_output(acc);
    }
    aig
}

/// Computes every live node's cut set into `store`; returns the number of
/// sets and the total number of cuts they hold.
fn fill(store: &CutStore, aig: &Aig) -> (usize, usize) {
    let (mut sets, mut cuts) = (0, 0);
    for i in 0..aig.slot_count() {
        let n = NodeId::new(i as u32);
        if aig.is_alive(n) {
            sets += 1;
            cuts += store.cuts(aig, n).len();
        }
    }
    (sets, cuts)
}

#[test]
fn served_sets_fill_arena_chunks() {
    let aig = reconvergent();
    let cfg = CutConfig::unlimited();
    // Warm this thread's enumeration scratch on the same graph: it keeps
    // its capacity, which the measured fill below must not count.
    fill(&CutStore::new(aig.slot_count(), cfg), &aig);

    let store = CutStore::new(aig.slot_count(), cfg);
    let before = live();
    let (sets, cuts) = fill(&store, &aig);
    let grown = (live() - before) as usize;

    assert!(
        cuts > 4 * sets,
        "a vacuous circuit: {cuts} cuts in {sets} sets"
    );
    let bytes = store.memo_bytes();
    let bound = (cuts + sets) * std::mem::size_of::<Cut>() + bytes.slack;
    assert!(
        grown <= bound,
        "{sets} sets of {cuts} cuts grew the heap by {grown} bytes, more than {bound}"
    );
    // The published entries hold the cuts and a header each, and the arena
    // holds them in chunks.
    assert!(bytes.live >= cuts * std::mem::size_of::<Cut>(), "{bytes:?}");
    assert!(
        bytes.live <= (cuts + sets) * std::mem::size_of::<Cut>(),
        "{bytes:?}"
    );
    assert!(
        bytes.held >= bytes.live && bytes.held <= bytes.live + bytes.slack,
        "{bytes:?}"
    );
    drop(store);
}
