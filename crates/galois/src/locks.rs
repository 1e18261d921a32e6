//! Per-element exclusive try-locks with Galois abort semantics.
//!
//! Galois operators acquire exclusive locks on every graph element they will
//! touch; when a lock is already held by another activity the acquiring
//! activity *aborts* — releasing everything it held and retrying later —
//! rather than blocking (blocking could deadlock and would hide the wasted
//! work the paper's Fig. 2 is about). The table keeps no statistics of its
//! own: each acquisition records its conflict into the caller's
//! [`SpecStats`] ledger, so one pass has one conflict ledger.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, OnceLock};

use dacpara_obs::LogHistogram;

use crate::stats::SpecStats;

fn hold_time_histogram() -> &'static Arc<LogHistogram> {
    static H: OnceLock<Arc<LogHistogram>> = OnceLock::new();
    H.get_or_init(|| dacpara_obs::histogram("galois.lock_hold_ns"))
}

/// A table of exclusive try-locks, one per graph element.
///
/// Owners are identified by a non-zero `u32` (worker id + 1).
///
/// # Example
///
/// ```
/// use dacpara_galois::{LockTable, SpecStats};
///
/// let table = LockTable::new(16);
/// let spec = SpecStats::new();
/// let mut ids = [3, 7, 7, 5];
/// let set = table.try_acquire(1, &mut ids, &spec).expect("uncontended");
/// assert_eq!(set.ids(), [3, 5, 7]);
/// assert!(table.try_acquire(2, &mut [5], &spec).is_none()); // conflict
/// drop(set);
/// assert!(table.try_acquire(2, &mut [5], &spec).is_some());
/// assert_eq!(spec.conflicts(), 1);
/// ```
pub struct LockTable {
    slots: Box<[AtomicU32]>,
}

impl LockTable {
    /// Creates a table covering `n` elements, all unlocked.
    pub fn new(n: usize) -> LockTable {
        LockTable {
            slots: (0..n).map(|_| AtomicU32::new(0)).collect(),
        }
    }

    /// Number of elements covered.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the table covers zero elements.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Attempts to acquire every element in `ids` for `owner` (non-zero).
    ///
    /// The ids are sorted and deduplicated in place (sorted acquisition
    /// order prevents deadlock between concurrent all-or-nothing attempts),
    /// and the guard borrows them, so a caller that keeps its id buffer
    /// from one attempt to the next allocates nothing here.
    /// On any conflict every lock taken so far is released, the conflict is
    /// recorded in `spec`, and `None` is returned.
    ///
    /// Locks are not re-entrant: an element `owner` already holds counts as
    /// a conflict like any other, so a caller extending its lock set must
    /// leave out the ids its guard already holds ([`LockSet::ids`]).
    ///
    /// # Panics
    ///
    /// Panics if `owner` is zero or an id is out of range.
    pub fn try_acquire<'a>(
        &'a self,
        owner: u32,
        ids: &'a mut [u32],
        spec: &SpecStats,
    ) -> Option<LockSet<'a>> {
        assert_ne!(owner, 0, "owner ids are non-zero");
        if dacpara_fault::point(dacpara_fault::points::LOCK_ACQUIRE) {
            // An injected conflict is indistinguishable from a real one:
            // nothing was taken, the conflict is recorded, the caller
            // retries.
            spec.record_conflict();
            return None;
        }
        ids.sort_unstable();
        let ids = dedup_sorted(ids);
        for (i, &id) in ids.iter().enumerate() {
            let slot = &self.slots[id as usize];
            if slot
                .compare_exchange(0, owner, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
            {
                for &held in &ids[..i] {
                    self.slots[held as usize].store(0, Ordering::Release);
                }
                spec.record_conflict();
                return None;
            }
        }
        Some(LockSet {
            table: self,
            owner,
            ids,
            acquired_ns: dacpara_obs::is_enabled().then(|| dacpara_obs::global().now_ns()),
        })
    }

    /// Whether an element is currently locked (racy — diagnostics only).
    pub fn is_locked(&self, id: u32) -> bool {
        self.slots[id as usize].load(Ordering::Relaxed) != 0
    }

    fn release(&self, ids: &[u32], owner: u32) {
        for &id in ids {
            let prev = self.slots[id as usize].swap(0, Ordering::Release);
            debug_assert_eq!(prev, owner, "released a lock held by someone else");
        }
    }
}

impl std::fmt::Debug for LockTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LockTable")
            .field("len", &self.len())
            .finish()
    }
}

/// Moves the distinct values of the sorted `ids` to its front and returns
/// them.
fn dedup_sorted(ids: &mut [u32]) -> &[u32] {
    let mut len = 0;
    for i in 0..ids.len() {
        if len == 0 || ids[i] != ids[len - 1] {
            ids[len] = ids[i];
            len += 1;
        }
    }
    &ids[..len]
}

/// RAII guard over an acquired lock set; releases on drop.
#[must_use = "locks release immediately if the guard is dropped"]
pub struct LockSet<'a> {
    table: &'a LockTable,
    owner: u32,
    ids: &'a [u32],
    /// Acquisition timestamp, recorded only while observability is enabled;
    /// feeds the `galois.lock_hold_ns` histogram on release.
    acquired_ns: Option<u64>,
}

impl LockSet<'_> {
    /// The sorted, deduplicated ids held by this guard.
    pub fn ids(&self) -> &[u32] {
        self.ids
    }
}

impl Drop for LockSet<'_> {
    fn drop(&mut self) {
        self.table.release(self.ids, self.owner);
        if let Some(start) = self.acquired_ns {
            let held = dacpara_obs::global().now_ns().saturating_sub(start);
            hold_time_histogram().record(held);
        }
    }
}

impl std::fmt::Debug for LockSet<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LockSet").field("ids", &self.ids).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_or_nothing() {
        let t = LockTable::new(8);
        let spec = SpecStats::new();
        let mut held = [2, 4];
        let g1 = t.try_acquire(1, &mut held, &spec).unwrap();
        // Overlap on 4: the whole set {1, 4, 6} must fail and leave 1 and 6
        // free.
        assert!(t.try_acquire(2, &mut [1, 4, 6], &spec).is_none());
        assert!(!t.is_locked(1));
        assert!(!t.is_locked(6));
        drop(g1);
        assert!(t.try_acquire(2, &mut [1, 4, 6], &spec).is_some());
    }

    #[test]
    fn duplicate_ids_are_tolerated() {
        let t = LockTable::new(4);
        let spec = SpecStats::new();
        let mut ids = [1, 1, 1];
        let g = t.try_acquire(3, &mut ids, &spec).unwrap();
        assert_eq!(g.ids(), &[1]);
    }

    #[test]
    fn same_owner_reacquisition_conflicts_and_is_counted() {
        let t = LockTable::new(8);
        let spec = SpecStats::new();
        let mut held = [3];
        let _g = t.try_acquire(1, &mut held, &spec).unwrap();
        assert!(t.try_acquire(1, &mut [3], &spec).is_none());
        assert_eq!(spec.conflicts(), 1);
        assert!(t.is_locked(3), "the failed attempt keeps the held lock");
    }

    #[test]
    fn conflicts_are_counted() {
        let t = LockTable::new(4);
        let spec = SpecStats::new();
        let mut held = [0];
        let _g = t.try_acquire(1, &mut held, &spec).unwrap();
        assert!(t.try_acquire(2, &mut [0], &spec).is_none());
        assert!(t.try_acquire(2, &mut [0], &spec).is_none());
        assert_eq!(spec.conflicts(), 2);
    }

    #[test]
    fn injected_acquire_fault_is_a_recorded_conflict() {
        let t = LockTable::new(4);
        let spec = SpecStats::new();
        let plan = dacpara_fault::FaultPlan::parse("lock.acquire=@1", 0).unwrap();
        {
            let _inj = dacpara_fault::inject(&plan);
            assert!(t.try_acquire(1, &mut [0, 2], &spec).is_none());
            assert!(!t.is_locked(0));
            assert!(!t.is_locked(2));
        }
        assert_eq!(spec.conflicts(), 1);
        // The very next (uninjected) attempt succeeds.
        assert!(t.try_acquire(1, &mut [0, 2], &spec).is_some());
    }

    #[test]
    fn concurrent_hammering_is_exclusive() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let t = LockTable::new(1);
        let spec = SpecStats::new();
        let counter = AtomicU64::new(0);
        let iterations = 2_000;
        let (t, spec, counter) = (&t, &spec, &counter);
        std::thread::scope(|s| {
            for w in 0..4u32 {
                s.spawn(move || {
                    let owner = w + 1;
                    let mut done = 0;
                    while done < iterations {
                        if let Some(_g) = t.try_acquire(owner, &mut [0], spec) {
                            // Non-atomic-looking critical section.
                            let v = counter.load(Ordering::Relaxed);
                            counter.store(v + 1, Ordering::Relaxed);
                            done += 1;
                        } else {
                            std::hint::spin_loop();
                        }
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 4 * iterations);
    }
}
