//! Work-stealing scheduler with in-round conflict retry.
//!
//! A shared-cursor worklist that hands out fixed-size chunks lets a node
//! whose speculative commit keeps hitting lock conflicts pin its worker in
//! a spin-retry loop — the serialization-by-conflict waste that "Parallel
//! AIG Refactoring via Conflict Breaking" identifies as the dominant loss
//! in parallel AIG optimization. Every parallel loop in the workspace —
//! each stage of both Galois engines, and [`crate::parallel_for`] —
//! schedules through [`StealPool`] instead:
//!
//! * **One packed index range per worker.** [`StealPool::begin`] seeds
//!   each worker's `[start, end)` word (`start << 32 | end`) with one
//!   contiguous block of the worklist. The owner claims `chunk_size` items
//!   from the front with one `fetch_add` on the start half; an idle worker
//!   CASes a victim's range down to its front half and takes the back half
//!   as its own range. A range word always names exactly the unclaimed
//!   items its slot holds, so a CAS that succeeds — against the current
//!   value, however the slot came to hold it — splits items nobody else
//!   holds, and a CAS against an outdated value fails.
//! * **A per-worker conflict retry queue.** An item whose operator reports
//!   [`ItemOutcome::Retry`] (a Galois lock conflict) is re-enqueued on its
//!   worker's retry queue with exponential backoff — measured in locally
//!   processed items, not wall time — and retried *within the same round*
//!   once other useful work has had a chance to drain the contended
//!   region. The worker stays busy in the meantime.
//!
//! Termination: a round ends when every seeded item has reported
//! [`ItemOutcome::Done`]. Retried items stay pending, so a worker whose
//! range and steal attempts come up empty keeps servicing its retry queue
//! (forcing overdue entries rather than idling) until the global pending
//! count reaches zero. Because `begin` seeds every block, a worker that
//! never calls [`StealPool::drive`] strands nothing: its teammates steal
//! its block.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

/// What an operator did with a scheduled item.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ItemOutcome {
    /// The item is finished (committed, skipped, or abandoned) and must not
    /// be scheduled again.
    Done,
    /// The item hit a transient conflict; re-enqueue it on this worker's
    /// retry queue with backoff and try again later in the same round.
    Retry,
}

/// Retry ceiling: once an item has been rescheduled this many times the
/// caller should stop yielding and resolve it inline (e.g. by blocking
/// spin-retry, which is guaranteed to make progress).
pub const MAX_SCHED_RETRIES: u32 = 12;

struct ObsHandles {
    steals: Arc<dacpara_obs::ShardedCounter>,
    retries: Arc<dacpara_obs::ShardedCounter>,
    retry_commits: Arc<dacpara_obs::ShardedCounter>,
}

fn obs() -> &'static ObsHandles {
    static HANDLES: OnceLock<ObsHandles> = OnceLock::new();
    HANDLES.get_or_init(|| ObsHandles {
        steals: dacpara_obs::counter("sched.steals"),
        retries: dacpara_obs::counter("sched.retries"),
        retry_commits: dacpara_obs::counter("sched.retry_commits"),
    })
}

/// Counters describing one scheduler's activity. Like
/// [`crate::SpecStats`], the global observability counters (`sched.steals`,
/// `sched.retries`, `sched.retry_commits`) are fed only by the leaf-level
/// `record_*` calls, never by aggregation, so obs totals always equal the
/// sum of recordings.
#[derive(Debug, Default)]
pub struct SchedStats {
    steals: AtomicU64,
    retries: AtomicU64,
    retry_commits: AtomicU64,
}

impl SchedStats {
    /// Creates zeroed counters.
    pub fn new() -> SchedStats {
        SchedStats::default()
    }

    /// Records one successful steal of a range from another worker.
    pub fn record_steal(&self) {
        self.steals.fetch_add(1, Ordering::Relaxed);
        if dacpara_obs::is_enabled() {
            obs().steals.incr();
        }
    }

    /// Records one conflict re-enqueue onto a retry queue.
    pub fn record_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
        if dacpara_obs::is_enabled() {
            obs().retries.incr();
        }
    }

    /// Records an activity that committed on a retried item — work an
    /// inline spin-retry would have serialized its worker on.
    pub fn record_retry_commit(&self) {
        self.retry_commits.fetch_add(1, Ordering::Relaxed);
        if dacpara_obs::is_enabled() {
            obs().retry_commits.incr();
        }
    }

    /// Ranges stolen from other workers.
    pub fn steals(&self) -> u64 {
        self.steals.load(Ordering::Relaxed)
    }

    /// Conflict re-enqueues.
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Commits that landed on a retried item.
    pub fn retry_commits(&self) -> u64 {
        self.retry_commits.load(Ordering::Relaxed)
    }

    /// Plain-value snapshot for reporting.
    pub fn snapshot(&self) -> SchedSnapshot {
        SchedSnapshot {
            steals: self.steals(),
            retries: self.retries(),
            retry_commits: self.retry_commits(),
        }
    }
}

/// A point-in-time copy of [`SchedStats`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SchedSnapshot {
    /// Ranges stolen from other workers.
    pub steals: u64,
    /// Conflict re-enqueues onto retry queues.
    pub retries: u64,
    /// Commits that landed on a retried item.
    pub retry_commits: u64,
}

impl std::fmt::Display for SchedSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "steals={} retries={} retry-commits={}",
            self.steals, self.retries, self.retry_commits
        )
    }
}

/// One retry-queue entry: an item index, how many times it has conflicted,
/// and the owner-local logical time before which it should not run again.
#[derive(Copy, Clone, Debug)]
struct RetryEntry {
    item: usize,
    tries: u32,
    not_before: u64,
}

/// Per-worker scheduler state.
struct WorkerSlot {
    /// This worker's unclaimed items, packed by [`pack`]. The owner claims
    /// from the front, thieves CAS the back half away, and a successful
    /// steal stores the stolen half as the thief's own range. The word
    /// carries only indices — item data is published by the team's
    /// barriers and by `pending` — so its acquire/release orderings are
    /// conservative rather than load-bearing.
    range: AtomicU64,
    /// Conflict retry queue. Only the owning worker pushes and pops; the
    /// mutex (uncontended in that regime) keeps the slot `Sync` so the pool
    /// can be shared by reference across the SPMD team.
    retry: Mutex<Vec<RetryEntry>>,
    /// Owner-local logical clock: one tick per item execution. Backoff
    /// deadlines are expressed in these ticks.
    clock: AtomicU64,
}

impl WorkerSlot {
    fn new() -> WorkerSlot {
        WorkerSlot {
            range: AtomicU64::new(0),
            retry: Mutex::new(Vec::new()),
            clock: AtomicU64::new(0),
        }
    }
}

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
/// use dacpara_galois::{run_spmd, ItemOutcome, StealPool};
///
/// let pool = StealPool::new(4);
/// let hits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
/// pool.begin(hits.len());
/// let (pool, hits) = (&pool, &hits);
/// run_spmd(4, |w| {
///     pool.drive(w.id, |i, _tries| {
///         hits[i].fetch_add(1, Ordering::Relaxed);
///         ItemOutcome::Done
///     });
/// });
/// assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
/// ```
pub struct StealPool {
    slots: Box<[WorkerSlot]>,
    /// Items seeded this round that have not yet reported `Done`.
    pending: AtomicUsize,
    /// Set when an operator panicked mid-round. The panicking worker's
    /// in-flight and queued items will never report `Done`, so the other
    /// workers' `drive` loops bail out instead of spinning on `pending`
    /// forever; the panic itself propagates through the SPMD scope join.
    poisoned: AtomicBool,
    quantum: AtomicUsize,
    stats: SchedStats,
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
            slots: (0..workers).map(|_| WorkerSlot::new()).collect(),
            pending: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
            quantum: AtomicUsize::new(1),
            stats: SchedStats::default(),
        }
    }

    /// The scheduler counters accumulated across every round so far.
    pub fn stats(&self) -> &SchedStats {
        &self.stats
    }

    /// Re-arms the pool for a round over `0..len` and seeds every worker's
    /// range with its contiguous block (`id*len/w .. (id+1)*len/w`).
    ///
    /// Must be called while no worker is driving — from a barrier's step,
    /// or before the team starts — so nothing else touches the ranges while
    /// they are stored; the barrier's release (or the spawn) publishes them
    /// to the team.
    ///
    /// # Panics
    ///
    /// Panics if `len` is `2^31` or more. Panics (debug) if the previous
    /// round did not drain — pending items or forgotten retry-queue entries
    /// mean `begin` is about to silently discard scheduled work.
    pub fn begin(&self, len: usize) {
        assert!(len < MAX_ROUND, "a round of {len} items is too long");
        if self.poisoned.swap(false, Ordering::AcqRel) {
            // The previous round was abandoned by an operator panic; discard
            // its leftovers so the pool is reusable once the caller has
            // handled the panic. The ranges are reseeded below.
            for slot in self.slots.iter() {
                slot.retry.lock().clear();
            }
            self.pending.store(0, Ordering::Relaxed);
        }
        debug_assert_eq!(
            self.pending.load(Ordering::Relaxed),
            0,
            "StealPool::begin while {} items of the previous round are still pending",
            self.pending.load(Ordering::Relaxed),
        );
        debug_assert!(
            self.slots.iter().all(|s| s.retry.lock().is_empty()),
            "StealPool::begin with undrained retry queues"
        );
        let workers = self.slots.len();
        for (id, slot) in self.slots.iter().enumerate() {
            let block = pack(id * len / workers, (id + 1) * len / workers);
            slot.range.store(block, Ordering::Relaxed);
        }
        let quantum = if len == 0 {
            1
        } else {
            chunk_size(len, workers)
        };
        self.quantum.store(quantum, Ordering::Relaxed);
        self.pending.store(len, Ordering::Release);
    }

    /// Runs worker `id`'s share of the round: drains its own range, steals,
    /// and services the conflict retry queue until every item of the round
    /// is done.
    ///
    /// `f(item, tries)` executes one item; `tries` is how many times this
    /// item has already been re-enqueued (0 on first execution). Returning
    /// [`ItemOutcome::Retry`] re-enqueues with backoff; the operator must
    /// stop yielding by [`MAX_SCHED_RETRIES`] — the scheduler trusts the
    /// closure to eventually return [`ItemOutcome::Done`].
    pub fn drive<F>(&self, id: usize, mut f: F)
    where
        F: FnMut(usize, u32) -> ItemOutcome,
    {
        let me = &self.slots[id];
        let quantum = self.quantum.load(Ordering::Relaxed);
        let mut victim = id;
        let mut idle = 0u32;
        loop {
            // 1. A retry entry whose backoff has expired takes priority:
            // the contended region has had the most time to clear.
            if let Some(entry) = self.take_retry(me, false) {
                self.run_item(me, entry.item, entry.tries, &mut f);
                idle = 0;
                continue;
            }
            // 2. A chunk from the front of the own range (in order: best
            // locality, and thieves take from the far end).
            if let Some((start, end)) = claim(&me.range, quantum) {
                for item in start..end {
                    self.run_item(me, item, 0, &mut f);
                }
                idle = 0;
                continue;
            }
            // 3. Steal the back half of someone else's range; it becomes
            // this worker's range, claimed from the top of the loop.
            if let Some(stolen) = self.try_steal(id, &mut victim) {
                self.stats.record_steal();
                me.range.store(stolen, Ordering::Release);
                idle = 0;
                continue;
            }
            // A panicked teammate can never finish its share of the round;
            // bail out so the team unwinds instead of spinning on `pending`.
            if self.poisoned.load(Ordering::Acquire) {
                return;
            }
            // 4. Only unready retries left locally: give the backoff a few
            // polls to expire, then force the earliest entry rather than
            // idle (there is no other useful work to interleave anyway).
            if !me.retry.lock().is_empty() {
                idle += 1;
                if idle > 32 {
                    if let Some(entry) = self.take_retry(me, true) {
                        self.run_item(me, entry.item, entry.tries, &mut f);
                        idle = 0;
                        continue;
                    }
                }
                std::thread::yield_now();
                continue;
            }
            // 5. Nothing local: the round is over when every item is done;
            // until then other workers may still hold stealable ranges.
            if self.pending.load(Ordering::Acquire) == 0 {
                return;
            }
            idle += 1;
            if idle < 64 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }

    fn run_item<F>(&self, me: &WorkerSlot, item: usize, tries: u32, f: &mut F)
    where
        F: FnMut(usize, u32) -> ItemOutcome,
    {
        let now = me.clock.fetch_add(1, Ordering::Relaxed);
        // Mark the pool if `f` unwinds: the panicking worker abandons its
        // queued items, so without the flag every other worker would spin
        // on `pending` forever (and the panic would never surface).
        struct PoisonOnUnwind<'a>(&'a AtomicBool);
        impl Drop for PoisonOnUnwind<'_> {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    self.0.store(true, Ordering::Release);
                }
            }
        }
        let guard = PoisonOnUnwind(&self.poisoned);
        let outcome = f(item, tries);
        std::mem::forget(guard);
        match outcome {
            ItemOutcome::Done => {
                let prev = self.pending.fetch_sub(1, Ordering::AcqRel);
                debug_assert!(prev > 0, "more Done items than were seeded");
            }
            ItemOutcome::Retry => {
                self.stats.record_retry();
                let backoff = 1u64 << tries.min(8);
                me.retry.lock().push(RetryEntry {
                    item,
                    tries: tries + 1,
                    not_before: now + backoff,
                });
            }
        }
    }

    /// Pops one retry entry: the ready entry with the earliest deadline, or
    /// with `force` the earliest deadline regardless of readiness.
    fn take_retry(&self, me: &WorkerSlot, force: bool) -> Option<RetryEntry> {
        let now = me.clock.load(Ordering::Relaxed);
        let mut queue = me.retry.lock();
        let best = queue
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.not_before)
            .map(|(i, e)| (i, e.not_before))?;
        if !force && best.1 > now {
            return None;
        }
        Some(queue.swap_remove(best.0))
    }

    /// One round-robin sweep over the other workers' ranges: CAS the first
    /// non-empty one down to its front half and return the back half.
    fn try_steal(&self, id: usize, victim: &mut usize) -> Option<u64> {
        let workers = self.slots.len();
        for _ in 1..workers {
            *victim = (*victim + 1) % workers;
            if *victim == id {
                *victim = (*victim + 1) % workers;
            }
            let range = &self.slots[*victim].range;
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
            .field("workers", &self.slots.len())
            .field("pending", &self.pending.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_spmd;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn single_worker_processes_in_order() {
        let pool = StealPool::new(1);
        pool.begin(100);
        let seen = Mutex::new(Vec::new());
        pool.drive(0, |i, tries| {
            assert_eq!(tries, 0);
            seen.lock().push(i);
            ItemOutcome::Done
        });
        let seen = seen.into_inner();
        assert_eq!(
            seen,
            (0..100).collect::<Vec<_>>(),
            "front claims run in order"
        );
        assert_eq!(pool.stats().steals(), 0);
    }

    #[test]
    fn empty_round_is_a_noop() {
        let pool = StealPool::new(4);
        pool.begin(0);
        let pool = &pool;
        run_spmd(4, |w| pool.drive(w.id, |_, _| panic!("no items")));
    }

    #[test]
    fn every_item_runs_once_under_stealing() {
        let pool = StealPool::new(4);
        let hits: Vec<AtomicU32> = (0..50_000).map(|_| AtomicU32::new(0)).collect();
        pool.begin(hits.len());
        let (pool, hits) = (&pool, &hits);
        run_spmd(4, |w| {
            pool.drive(w.id, |i, _| {
                hits[i].fetch_add(1, Ordering::Relaxed);
                ItemOutcome::Done
            });
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn retries_rerun_the_item_with_backoff() {
        let pool = StealPool::new(2);
        let runs: Vec<AtomicU32> = (0..200).map(|_| AtomicU32::new(0)).collect();
        pool.begin(runs.len());
        let (pool, runs) = (&pool, &runs);
        run_spmd(2, |w| {
            pool.drive(w.id, |i, tries| {
                runs[i].fetch_add(1, Ordering::Relaxed);
                // Item i conflicts i % 3 times before completing.
                if (tries as usize) < i % 3 {
                    ItemOutcome::Retry
                } else {
                    ItemOutcome::Done
                }
            });
        });
        for (i, r) in runs.iter().enumerate() {
            assert_eq!(r.load(Ordering::Relaxed) as usize, 1 + i % 3, "item {i}");
        }
        let expected: u64 = (0..200).map(|i| (i % 3) as u64).sum();
        assert_eq!(pool.stats().retries(), expected);
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
                pool.drive(w.id, |i, tries| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                    if tries == 0 && i % 7 == 0 {
                        ItemOutcome::Retry
                    } else {
                        ItemOutcome::Done
                    }
                });
            });
            assert_eq!(
                hits.iter()
                    .enumerate()
                    .map(|(i, h)| {
                        let expect = if i % 7 == 0 { 2 } else { 1 };
                        assert_eq!(h.load(Ordering::Relaxed), expect, "item {i}");
                        1usize
                    })
                    .sum::<usize>(),
                len
            );
        }
    }

    #[test]
    fn worker_panic_poisons_the_round_instead_of_hanging() {
        let pool = StealPool::new(2);
        pool.begin(1000);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let pool = &pool;
            run_spmd(2, |w| {
                pool.drive(w.id, |i, _| {
                    assert_ne!(i, 500, "operator bug");
                    ItemOutcome::Done
                });
            });
        }));
        assert!(caught.is_err(), "the operator panic must propagate");
        // The next `begin` discards the abandoned round and the pool works
        // again.
        let hits: Vec<AtomicU32> = (0..64).map(|_| AtomicU32::new(0)).collect();
        pool.begin(hits.len());
        let (pool, hits) = (&pool, &hits);
        run_spmd(2, |w| {
            pool.drive(w.id, |i, _| {
                hits[i].fetch_add(1, Ordering::Relaxed);
                ItemOutcome::Done
            });
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "still pending")]
    fn begin_without_drain_panics_in_debug() {
        let pool = StealPool::new(1);
        pool.begin(4);
        pool.begin(4); // nothing was driven: 4 items silently discarded
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
