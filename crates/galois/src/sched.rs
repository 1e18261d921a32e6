//! Work-stealing scheduler.
//!
//! A shared-cursor worklist that hands out fixed-size chunks serializes
//! its workers on the cursor and leaves the slowest chunk on one worker at
//! the end of a round. Every parallel loop in the workspace — each stage
//! of both Galois engines, and [`crate::parallel_for`] — schedules through
//! [`StealPool`] instead, with **one packed index range per worker**:
//! [`StealPool::begin`] seeds each worker's `[start, end)` word
//! (`start << 32 | end`) with one contiguous block of the worklist. The
//! owner claims `chunk_size` items from the front with one `fetch_add` on
//! the start half; an idle worker CASes a victim's range down to its front
//! half and takes the back half as its own range. A range word always
//! names exactly the unclaimed items its slot holds, so a CAS that
//! succeeds — against the current value, however the slot came to hold it
//! — splits items nobody else holds, and a CAS against an outdated value
//! fails.
//!
//! The scheduler knows nothing about conflicts: an operator that hits a
//! Galois lock conflict retries its item in place (the engines'
//! `speculate` loop), so every claimed item finishes inside the one call
//! that claimed it.
//!
//! Termination: [`StealPool::drive`] returns once its own range is empty
//! and one steal sweep finds every other range empty. That cannot strand
//! an item: an unclaimed item is always in some worker's range or in the
//! hands of a thief between its CAS and its store, and that thief runs it
//! before its own `drive` returns — a worker only ever stores into its own
//! range. Because `begin` seeds every block, a worker that never calls
//! [`StealPool::drive`] strands nothing either: its teammates steal its
//! block.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crate::CachePadded;

/// Packs the index range `start..end` into one word. Worklists are bounded
/// by the `u32` node-id space; [`StealPool::begin`] keeps them below `2^31`
/// so the start half has room for the owner's one overshooting claim.
fn pack(start: usize, end: usize) -> u64 {
    debug_assert!(start <= end && end <= MAX_ROUND);
    ((start as u64) << 32) | end as u64
}

/// The inverse of [`pack`]. A start at or past the end reads as empty.
fn unpack(range: u64) -> (usize, usize) {
    ((range >> 32) as usize, range as u32 as usize)
}

/// The longest round [`StealPool::begin`] accepts.
const MAX_ROUND: usize = 1 << 31;

/// The splitting quantum for a round of `len` items on `workers` workers:
/// small enough to balance, large enough to amortize the claim traffic.
///
/// # Panics
///
/// Panics (debug) if `len` or `workers` is zero — a zero-length round has
/// no meaningful quantum (callers must skip empty rounds), and zero workers
/// would divide by zero anyway.
fn chunk_size(len: usize, workers: usize) -> usize {
    debug_assert!(workers > 0, "chunk size for a zero-thread team");
    debug_assert!(len > 0, "chunk size of an empty worklist");
    (len / (workers.max(1) * 8)).clamp(1, 256)
}

/// A reusable work-stealing pool for one SPMD team.
///
/// Lifecycle per round: [`StealPool::begin`] runs in a barrier's step (see
/// [`crate::Worker::barrier`]) or before the team starts, then every worker
/// calls [`StealPool::drive`] with the same operator closure. `begin` re-arms the
/// pool, so one pool serves every stage of every worklist of a pass.
///
/// # Example
///
/// ```
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// use dacpara_galois::{run_spmd, StealPool};
///
/// let pool = StealPool::new(4);
/// let hits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
/// pool.begin(hits.len());
/// let (pool, hits) = (&pool, &hits);
/// run_spmd(4, |w| {
///     pool.drive(w.id, |i| {
///         hits[i].fetch_add(1, Ordering::Relaxed);
///     });
/// });
/// assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
/// ```
pub struct StealPool {
    /// Each worker's unclaimed items, packed by [`pack`]. The owner claims
    /// from the front, thieves CAS the back half away, and a successful
    /// steal stores the stolen half as the thief's own range. The words
    /// carry only indices — item data is published by the team's barriers
    /// — so their acquire/release orderings are conservative rather than
    /// load-bearing. Each word has its own cache line: the owner writes
    /// it for every chunk it claims.
    ranges: Box<[CachePadded<AtomicU64>]>,
    quantum: AtomicUsize,
    steals: AtomicU64,
}

impl StealPool {
    /// Creates a pool for a team of `workers` threads.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn new(workers: usize) -> StealPool {
        assert!(workers > 0, "need at least one worker");
        StealPool {
            ranges: (0..workers)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
            quantum: AtomicUsize::new(1),
            steals: AtomicU64::new(0),
        }
    }

    /// Ranges stolen from other workers, over every round so far.
    pub fn steals(&self) -> u64 {
        self.steals.load(Ordering::Relaxed)
    }

    /// Re-arms the pool for a round over `0..len` and seeds every worker's
    /// range with its contiguous block (`id*len/w .. (id+1)*len/w`).
    ///
    /// Must be called while no worker is driving — from a barrier's step,
    /// or before the team starts — so nothing else touches the ranges while
    /// they are stored; the barrier's release (or the spawn) publishes them
    /// to the team. Whatever a previous round left unclaimed (a round cut
    /// short by a panic) is discarded.
    ///
    /// # Panics
    ///
    /// Panics if `len` is `2^31` or more.
    pub fn begin(&self, len: usize) {
        assert!(len < MAX_ROUND, "a round of {len} items is too long");
        let workers = self.ranges.len();
        for (id, range) in self.ranges.iter().enumerate() {
            range.store(
                pack(id * len / workers, (id + 1) * len / workers),
                Ordering::Relaxed,
            );
        }
        let quantum = if len == 0 {
            1
        } else {
            chunk_size(len, workers)
        };
        self.quantum.store(quantum, Ordering::Relaxed);
    }

    /// Runs worker `id`'s share of the round: drains its own range and
    /// steals, calling `f(item)` once per item it claims, until its range
    /// and one steal sweep over every other range come up empty.
    pub fn drive<F>(&self, id: usize, mut f: F)
    where
        F: FnMut(usize),
    {
        let me = &self.ranges[id];
        let quantum = self.quantum.load(Ordering::Relaxed);
        let mut victim = id;
        loop {
            // A chunk from the front of the own range (in order: best
            // locality, and thieves take from the far end).
            if let Some((start, end)) = claim(me, quantum) {
                (start..end).for_each(&mut f);
                continue;
            }
            // Steal the back half of someone else's range; it becomes this
            // worker's range, claimed from the top of the loop.
            let Some(stolen) = self.try_steal(id, &mut victim) else {
                return;
            };
            self.steals.fetch_add(1, Ordering::Relaxed);
            me.store(stolen, Ordering::Release);
        }
    }

    /// One round-robin sweep over the other workers' ranges: CAS the first
    /// non-empty one down to its front half and return the back half.
    fn try_steal(&self, id: usize, victim: &mut usize) -> Option<u64> {
        let workers = self.ranges.len();
        for _ in 1..workers {
            *victim = (*victim + 1) % workers;
            if *victim == id {
                *victim = (*victim + 1) % workers;
            }
            let range = &self.ranges[*victim];
            let mut seen = range.load(Ordering::Acquire);
            loop {
                let (start, end) = unpack(seen);
                if start >= end {
                    break;
                }
                let mid = start + (end - start) / 2;
                match range.compare_exchange_weak(
                    seen,
                    pack(start, mid),
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => return Some(pack(mid, end)),
                    Err(now) => seen = now,
                }
            }
        }
        None
    }
}

/// Claims up to `quantum` items from the front of the owner's `range`.
///
/// Only the owner advances a start, and thieves only lower an end, so one
/// `fetch_add` on the start half suffices: if a thief emptied the range
/// between the load and the add, the add returns a start at or past the
/// end, which reads as empty. The load keeps an empty range from being
/// advanced again, so a start overshoots its end by at most one quantum.
fn claim(range: &AtomicU64, quantum: usize) -> Option<(usize, usize)> {
    let (start, end) = unpack(range.load(Ordering::Acquire));
    if start >= end {
        return None;
    }
    let (start, end) = unpack(range.fetch_add((quantum as u64) << 32, Ordering::AcqRel));
    (start < end).then(|| (start, end.min(start + quantum)))
}

impl std::fmt::Debug for StealPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StealPool")
            .field("workers", &self.ranges.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_spmd;
    use std::sync::atomic::AtomicU32;
    use std::sync::Mutex;

    #[test]
    fn single_worker_processes_in_order() {
        let pool = StealPool::new(1);
        pool.begin(100);
        let seen = Mutex::new(Vec::new());
        pool.drive(0, |i| seen.lock().unwrap().push(i));
        let seen = seen.into_inner().unwrap();
        assert_eq!(
            seen,
            (0..100).collect::<Vec<_>>(),
            "front claims run in order"
        );
        assert_eq!(pool.steals(), 0);
    }

    #[test]
    fn empty_round_is_a_noop() {
        let pool = StealPool::new(4);
        pool.begin(0);
        let pool = &pool;
        run_spmd(4, |w| pool.drive(w.id, |_| panic!("no items")));
    }

    #[test]
    fn every_item_runs_once_under_stealing() {
        let pool = StealPool::new(4);
        let hits: Vec<AtomicU32> = (0..50_000).map(|_| AtomicU32::new(0)).collect();
        pool.begin(hits.len());
        let (pool, hits) = (&pool, &hits);
        run_spmd(4, |w| {
            pool.drive(w.id, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn rounds_reuse_the_pool() {
        let pool = StealPool::new(3);
        for round in 1..=5usize {
            let len = round * 97;
            let hits: Vec<AtomicU32> = (0..len).map(|_| AtomicU32::new(0)).collect();
            pool.begin(len);
            let (pool, hits) = (&pool, &hits);
            run_spmd(3, |w| {
                pool.drive(w.id, |i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                });
            });
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 1, "round {round} item {i}");
            }
        }
    }

    #[test]
    fn worker_panic_propagates_and_the_pool_is_reusable() {
        let pool = StealPool::new(2);
        pool.begin(1000);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let pool = &pool;
            run_spmd(2, |w| {
                pool.drive(w.id, |i| assert_ne!(i, 500, "operator bug"));
            });
        }));
        assert!(caught.is_err(), "the operator panic must propagate");
        // The next `begin` discards the abandoned round and the pool works
        // again.
        let hits: Vec<AtomicU32> = (0..64).map(|_| AtomicU32::new(0)).collect();
        pool.begin(hits.len());
        let (pool, hits) = (&pool, &hits);
        run_spmd(2, |w| {
            pool.drive(w.id, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn chunk_size_is_sane() {
        assert!(chunk_size(1_000_000, 4) <= 256);
        assert!(chunk_size(100, 4) >= 1);
        assert_eq!(chunk_size(1, 64), 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "empty worklist")]
    fn chunk_size_rejects_empty_worklists_in_debug() {
        let _ = chunk_size(0, 4);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "zero-thread team")]
    fn chunk_size_rejects_zero_threads_in_debug() {
        let _ = chunk_size(100, 0);
    }
}
