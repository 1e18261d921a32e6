//! Log2-bucketed histograms for latency / size distributions.
//!
//! Values land in bucket `floor(log2(v)) + 1` (bucket 0 holds zeros), so 65
//! buckets cover the whole `u64` domain with ≤ 2× relative error on any
//! percentile — plenty for "did conflict-abort latency double?" questions.
//! Like [`crate::ShardedCounter`], a histogram is sharded: a record touches
//! only the calling thread's shard (three relaxed read-modify-writes on its
//! own cache lines), and reads merge the shards.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::counter::{home_shard, SHARDS};

const BUCKETS: usize = 65;

/// One shard's buckets and aggregates, aligned so no two shards share a
/// cache line. The observation count is the sum of the buckets.
#[repr(align(64))]
struct Shard {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Shard {
    fn new() -> Shard {
        Shard {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// A concurrent histogram over `u64` values with power-of-two buckets,
/// sharded like [`crate::ShardedCounter`]. Reads merge the shards (racy
/// while writers run, exact once they quiesce, which is when exports run).
pub struct LogHistogram {
    shards: Box<[Shard]>,
}

fn bucket_of(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

/// Upper bound (inclusive) of values mapping to `bucket`.
fn bucket_upper(bucket: usize) -> u64 {
    if bucket == 0 {
        0
    } else if bucket >= 64 {
        u64::MAX
    } else {
        (1u64 << bucket) - 1
    }
}

impl LogHistogram {
    /// Creates an empty histogram.
    pub fn new() -> LogHistogram {
        LogHistogram {
            shards: (0..SHARDS).map(|_| Shard::new()).collect(),
        }
    }

    /// Records one observation into the calling thread's shard.
    #[inline]
    pub fn record(&self, value: u64) {
        let shard = &self.shards[home_shard()];
        shard.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        shard.sum.fetch_add(value, Ordering::Relaxed);
        shard.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Per-bucket counts, merged over the shards.
    fn buckets(&self) -> [u64; BUCKETS] {
        let mut out = [0u64; BUCKETS];
        for shard in self.shards.iter() {
            for (o, b) in out.iter_mut().zip(&shard.buckets) {
                *o += b.load(Ordering::Relaxed);
            }
        }
        out
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.buckets().iter().sum()
    }

    /// Sum of recorded observations.
    pub fn sum(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.sum.load(Ordering::Relaxed))
            .sum()
    }

    /// Largest recorded observation (`0` when empty).
    pub fn max(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.max.load(Ordering::Relaxed))
            .max()
            .unwrap_or(0)
    }

    /// Mean of recorded observations (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// An upper bound on the `q`-quantile (`0 ≤ q ≤ 1`): the inclusive
    /// upper edge of the first bucket whose cumulative count reaches
    /// `q · count`. Exact to within the 2× bucket width; `0` when empty.
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        quantile(&self.buckets(), self.max(), q)
    }

    /// Resets all buckets and aggregates to zero.
    pub fn reset(&self) {
        for shard in self.shards.iter() {
            for b in &shard.buckets {
                b.store(0, Ordering::Relaxed);
            }
            shard.sum.store(0, Ordering::Relaxed);
            shard.max.store(0, Ordering::Relaxed);
        }
    }

    /// A plain-value copy for reporting.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets = self.buckets();
        let count = buckets.iter().sum();
        let (sum, max) = (self.sum(), self.max());
        HistogramSnapshot {
            count,
            sum,
            max,
            mean: if count == 0 {
                0.0
            } else {
                sum as f64 / count as f64
            },
            p50: quantile(&buckets, max, 0.50),
            p90: quantile(&buckets, max, 0.90),
            p99: quantile(&buckets, max, 0.99),
            buckets: buckets.to_vec(),
        }
    }
}

/// The `q`-quantile bound of [`LogHistogram::value_at_quantile`] over
/// merged bucket counts.
fn quantile(buckets: &[u64; BUCKETS], max: u64, q: f64) -> u64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0;
    }
    let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
    let mut seen = 0u64;
    for (i, &b) in buckets.iter().enumerate() {
        seen += b;
        if seen >= rank {
            return bucket_upper(i).min(max);
        }
    }
    max
}

impl Default for LogHistogram {
    fn default() -> LogHistogram {
        LogHistogram::new()
    }
}

impl std::fmt::Debug for LogHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogHistogram")
            .field("count", &self.count())
            .field("mean", &self.mean())
            .field("p50", &self.value_at_quantile(0.5))
            .finish()
    }
}

/// A point-in-time copy of a [`LogHistogram`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HistogramSnapshot {
    /// Observation count.
    pub count: u64,
    /// Observation sum.
    pub sum: u64,
    /// Largest observation.
    pub max: u64,
    /// Mean observation.
    pub mean: f64,
    /// Median upper bound.
    pub p50: u64,
    /// 90th-percentile upper bound.
    pub p90: u64,
    /// 99th-percentile upper bound.
    pub p99: u64,
    /// Raw per-bucket counts (65 log2 buckets).
    pub buckets: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_mapping() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[test]
    fn quantiles_of_known_distribution() {
        let h = LogHistogram::new();
        // 100 observations: 50× value 8, 40× value 100, 10× value 10_000.
        for _ in 0..50 {
            h.record(8);
        }
        for _ in 0..40 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(10_000);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 50 * 8 + 40 * 100 + 10 * 10_000);
        assert_eq!(h.max(), 10_000);
        // p50 falls in the bucket of 8 → upper bound 15.
        assert_eq!(h.value_at_quantile(0.50), 15);
        // p90 falls in the bucket of 100 → [64, 127].
        assert_eq!(h.value_at_quantile(0.90), 127);
        // p99 falls in the bucket of 10_000 → [8192, 16383], capped at max.
        assert_eq!(h.value_at_quantile(0.99), 10_000);
        assert_eq!(h.value_at_quantile(1.0), 10_000);
    }

    #[test]
    fn empty_and_reset() {
        let h = LogHistogram::new();
        assert_eq!(h.value_at_quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
        h.record(7);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn zeros_have_their_own_bucket() {
        let h = LogHistogram::new();
        for _ in 0..10 {
            h.record(0);
        }
        h.record(1 << 30);
        assert_eq!(h.value_at_quantile(0.5), 0);
        assert_eq!(h.value_at_quantile(1.0), 1 << 30);
    }

    #[test]
    fn concurrent_records_merge_exactly() {
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 10_000;
        let h = LogHistogram::new();
        let h = &h;
        std::thread::scope(|s| {
            for t in 0..THREADS {
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        h.record(t * PER_THREAD + i);
                    }
                });
            }
        });
        let n = THREADS * PER_THREAD;
        assert_eq!(h.count(), n);
        assert_eq!(h.sum(), n * (n - 1) / 2);
        assert_eq!(h.max(), n - 1);
        assert_eq!(h.snapshot().buckets.iter().sum::<u64>(), n);
    }

    #[test]
    fn snapshot_is_consistent() {
        let h = LogHistogram::new();
        for v in [1u64, 2, 3, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 1006);
        assert_eq!(s.buckets.iter().sum::<u64>(), 4);
    }
}
