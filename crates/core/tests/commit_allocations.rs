//! A DACPara commit allocates nothing on the heap: the plan, lock, verify,
//! re-evaluate and commit steps of stage 3 run on per-worker scratch and
//! fixed arrays, and so does evaluation's winning candidate. What a pass
//! still allocates is per pass or per list (worklists, barriers, the
//! sweep's traces), plus one exact-size block per cut set the memo
//! computes (`crates/cut/tests/exact_size_sets.rs`).
//!
//! The check counts heap allocations with a counting global allocator, so
//! it lives in its own integration-test file (= its own process); keep it
//! to a single `#[test]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dacpara::{Engine, RewriteConfig, RewriteSession};
use dacpara_circuits::control;

/// The system allocator, counting every call that asks it for memory.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Most heap allocations a pass may make per replacement, once the cut
/// sets the memo computes are taken out.
const MAX_PER_REPLACEMENT: f64 = 6.0;

#[test]
fn a_commit_allocates_nothing() {
    let aig = control::voter(101);
    let cfg = RewriteConfig::rewrite_op().with_threads(1);
    dacpara_obs::enable();
    // Warm up on the same circuit: the lazily built tables, the cached obs
    // handles and this thread's scratch keep what they allocate here.
    RewriteSession::new(&aig, &cfg)
        .unwrap()
        .run(Engine::DacPara)
        .unwrap();
    dacpara_obs::reset();

    let mut session = RewriteSession::new(&aig, &cfg).unwrap();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let stats = session.run(Engine::DacPara).unwrap();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let misses = dacpara_obs::counter("cut.memo_misses").value();
    dacpara_obs::disable();

    assert!(stats.replacements > 100, "a vacuous pass: {stats}");
    let per_replacement = allocations.saturating_sub(misses) as f64 / stats.replacements as f64;
    assert!(
        per_replacement <= MAX_PER_REPLACEMENT,
        "{allocations} allocations, {misses} cut sets computed, {} replacements: \
         {per_replacement:.1} allocations per replacement",
        stats.replacements
    );
}
