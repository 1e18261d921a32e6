//! Sharded atomic counters: contention-free increments from worker teams.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Shards per sharded instrument (counters here, histograms in
/// `histogram.rs`).
pub(crate) const SHARDS: usize = 16;

/// One cache line per shard so concurrent increments from different
/// threads do not false-share.
#[repr(align(64))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

/// A monotonically increasing counter, sharded to keep concurrent
/// increments off each other's cache lines. Reads sum the shards (racy but
/// monotone — exact once writers quiesce, which is when exports run).
pub struct ShardedCounter {
    shards: [PaddedU64; SHARDS],
}

/// Each thread picks a home shard round-robin on first use.
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static HOME_SHARD: usize = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS;
}

/// The calling thread's shard index, `0..SHARDS`.
#[inline]
pub(crate) fn home_shard() -> usize {
    HOME_SHARD.with(|s| *s)
}

impl ShardedCounter {
    /// Creates a zeroed counter.
    pub fn new() -> ShardedCounter {
        ShardedCounter {
            shards: Default::default(),
        }
    }

    /// Adds `n` to the calling thread's home shard.
    #[inline]
    pub fn add(&self, n: u64) {
        self.shards[home_shard()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments by one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// The summed value across shards.
    pub fn value(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }

    /// Resets every shard to zero.
    pub fn reset(&self) {
        for s in &self.shards {
            s.0.store(0, Ordering::Relaxed);
        }
    }
}

impl Default for ShardedCounter {
    fn default() -> ShardedCounter {
        ShardedCounter::new()
    }
}

impl std::fmt::Debug for ShardedCounter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedCounter")
            .field("value", &self.value())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adds_accumulate() {
        let c = ShardedCounter::new();
        c.add(3);
        c.incr();
        assert_eq!(c.value(), 4);
        c.reset();
        assert_eq!(c.value(), 0);
    }

    #[test]
    fn concurrent_increments_sum_exactly() {
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 50_000;
        let c = ShardedCounter::new();
        let c = &c;
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(move || {
                    for _ in 0..PER_THREAD {
                        c.incr();
                    }
                });
            }
        });
        assert_eq!(c.value(), THREADS as u64 * PER_THREAD);
    }
}
