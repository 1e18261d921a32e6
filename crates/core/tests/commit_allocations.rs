//! A commit of either resident engine allocates nothing on the heap: the
//! plan, lock, verify, re-evaluate and commit steps run on per-worker
//! scratch and fixed arrays, and so do evaluation's winning candidate and
//! the ICCAD'18 operator's cut lists. A computed cut set lands in an arena
//! chunk, not a block of its own (`crates/cut/tests/exact_size_sets.rs`).
//! What a pass still allocates is per pass, per list or per chunk
//! (worklists, barriers, the sweep's traces, arena chunks), and the bound
//! below counts all of it.
//!
//! The check counts heap allocations with a counting global allocator, so
//! it lives in its own integration-test file (= its own process); keep it
//! to a single `#[test]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dacpara::{Engine, RewriteConfig, RewriteSession, RewriteStats};
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

/// Most heap allocations a pass may make per replacement.
const MAX_PER_REPLACEMENT: f64 = 6.0;

/// One 1-thread pass of `engine` on a fresh session; returns its stats and
/// the heap allocations it made.
fn counted_pass(engine: Engine) -> (RewriteStats, u64) {
    let aig = control::voter(101);
    let cfg = RewriteConfig::rewrite_op().with_threads(1);
    let mut session = RewriteSession::new(&aig, &cfg).unwrap();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let stats = session.run(engine).unwrap();
    (stats, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

#[test]
fn a_commit_allocates_nothing() {
    dacpara_obs::enable();
    for engine in [Engine::DacPara, Engine::Iccad18] {
        // Warm up on the same circuit: the lazily built tables, the cached
        // obs handles and this thread's scratch keep what they allocate
        // here.
        counted_pass(engine);
        let (stats, allocations) = counted_pass(engine);

        assert!(
            stats.replacements > 100,
            "{engine}: a vacuous pass: {stats}"
        );
        let per_replacement = allocations as f64 / stats.replacements as f64;
        assert!(
            per_replacement <= MAX_PER_REPLACEMENT,
            "{engine}: {allocations} allocations, {} replacements: \
             {per_replacement:.1} allocations per replacement",
            stats.replacements
        );
    }
    dacpara_obs::disable();
}
