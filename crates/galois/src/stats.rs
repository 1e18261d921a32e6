//! Conflict and wasted-work accounting for speculative execution.
//!
//! The paper's Fig. 2 argument is quantitative: when enumeration,
//! evaluation and replacement run as *one* operator (ICCAD'18), a conflict
//! discards all three stages' work; DACPara's split operators only ever
//! discard the (cheap) replacement attempt. These counters make that
//! difference measurable.

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use dacpara_obs::{LogHistogram, ShardedCounter};

/// Cached handles to the global observability instruments, so the record
/// paths never take the registry lock. The `Arc`s survive
/// `dacpara_obs::reset()` (reset zeroes values in place).
struct ObsHandles {
    attempts: Arc<ShardedCounter>,
    conflicts: Arc<ShardedCounter>,
    commits: Arc<ShardedCounter>,
    aborts: Arc<ShardedCounter>,
    commit_latency_ns: Arc<LogHistogram>,
    abort_latency_ns: Arc<LogHistogram>,
}

fn obs() -> &'static ObsHandles {
    static HANDLES: OnceLock<ObsHandles> = OnceLock::new();
    HANDLES.get_or_init(|| ObsHandles {
        attempts: dacpara_obs::counter("galois.attempts"),
        conflicts: dacpara_obs::counter("galois.conflicts"),
        commits: dacpara_obs::counter("galois.commits"),
        aborts: dacpara_obs::counter("galois.aborts"),
        commit_latency_ns: dacpara_obs::histogram("galois.commit_latency_ns"),
        abort_latency_ns: dacpara_obs::histogram("galois.abort_latency_ns"),
    })
}

/// Atomic counters describing a speculative execution run. Each counter
/// is sharded by thread ([`ShardedCounter`]): every activity records an
/// attempt and a commit or abort, so unsharded words would be written by
/// every worker for every item.
#[derive(Debug, Default)]
pub struct SpecStats {
    attempts: ShardedCounter,
    conflicts: ShardedCounter,
    commits: ShardedCounter,
    aborts: ShardedCounter,
    wasted_ns: ShardedCounter,
    useful_ns: ShardedCounter,
}

impl SpecStats {
    /// Creates zeroed counters.
    pub fn new() -> SpecStats {
        SpecStats::default()
    }

    /// Records the start of one speculative operator attempt. Every attempt
    /// must end in exactly one [`SpecStats::record_commit`] or
    /// [`SpecStats::record_abort`], so `commits + aborts == attempts` is an
    /// invariant at every quiescent point (checked by the rewrite property
    /// tests).
    pub fn record_attempt(&self) {
        self.attempts.incr();
        if dacpara_obs::is_enabled() {
            obs().attempts.incr();
        }
    }

    /// Records a lock-acquisition conflict.
    ///
    /// The observability events below are emitted *only* here (and in the
    /// other `record_*` methods) — counters are never aggregated from other
    /// ledgers — so the global obs counters always equal the sum of
    /// leaf-level recordings; the drift test in
    /// `crates/core/tests/obs_spec_drift.rs` relies on this.
    pub fn record_conflict(&self) {
        self.conflicts.incr();
        if dacpara_obs::is_enabled() {
            obs().conflicts.incr();
            dacpara_obs::instant("spec.conflict", "spec");
        }
    }

    /// Records a committed activity and the time it took.
    pub fn record_commit(&self, took: Duration) {
        self.commits.incr();
        self.useful_ns.add(took.as_nanos() as u64);
        if dacpara_obs::is_enabled() {
            obs().commits.incr();
            obs().commit_latency_ns.record(took.as_nanos() as u64);
            dacpara_obs::instant("spec.commit", "spec");
        }
    }

    /// Records an aborted activity whose computation of `took` was lost.
    pub fn record_abort(&self, took: Duration) {
        self.aborts.incr();
        self.wasted_ns.add(took.as_nanos() as u64);
        if dacpara_obs::is_enabled() {
            obs().aborts.incr();
            obs().abort_latency_ns.record(took.as_nanos() as u64);
            dacpara_obs::instant("spec.abort", "spec");
        }
    }

    /// Number of operator attempts started.
    pub fn attempts(&self) -> u64 {
        self.attempts.value()
    }

    /// Number of lock conflicts observed.
    pub fn conflicts(&self) -> u64 {
        self.conflicts.value()
    }

    /// Number of committed activities.
    pub fn commits(&self) -> u64 {
        self.commits.value()
    }

    /// Number of aborted activities.
    pub fn aborts(&self) -> u64 {
        self.aborts.value()
    }

    /// Total nanoseconds of computation discarded by aborts.
    pub fn wasted_ns(&self) -> u64 {
        self.wasted_ns.value()
    }

    /// Total nanoseconds of committed computation.
    pub fn useful_ns(&self) -> u64 {
        self.useful_ns.value()
    }

    /// Plain-value snapshot for reporting.
    pub fn snapshot(&self) -> SpecSnapshot {
        SpecSnapshot {
            attempts: self.attempts(),
            conflicts: self.conflicts(),
            commits: self.commits(),
            aborts: self.aborts(),
            wasted_ns: self.wasted_ns(),
            useful_ns: self.useful_ns(),
        }
    }
}

/// A point-in-time copy of [`SpecStats`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SpecSnapshot {
    /// Operator attempts started (`commits + aborts` at quiescence).
    pub attempts: u64,
    /// Lock-acquisition conflicts.
    pub conflicts: u64,
    /// Committed activities.
    pub commits: u64,
    /// Aborted activities.
    pub aborts: u64,
    /// Nanoseconds discarded by aborts.
    pub wasted_ns: u64,
    /// Nanoseconds of committed work.
    pub useful_ns: u64,
}

impl SpecSnapshot {
    /// Fraction of all operator time that was discarded (`0.0` when no time
    /// has been recorded).
    pub fn wasted_fraction(&self) -> f64 {
        let total = (self.wasted_ns + self.useful_ns) as f64;
        if total == 0.0 {
            0.0
        } else {
            self.wasted_ns as f64 / total
        }
    }
}

impl std::fmt::Display for SpecSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "commits={} aborts={} conflicts={} wasted={:.1}%",
            self.commits,
            self.aborts,
            self.conflicts,
            self.wasted_fraction() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting_accumulates() {
        let s = SpecStats::new();
        s.record_attempt();
        s.record_commit(Duration::from_nanos(100));
        s.record_attempt();
        s.record_abort(Duration::from_nanos(300));
        s.record_conflict();
        assert_eq!(s.attempts(), 2);
        assert_eq!(s.commits(), 1);
        assert_eq!(s.aborts(), 1);
        assert_eq!(s.commits() + s.aborts(), s.attempts());
        assert_eq!(s.conflicts(), 1);
        assert!((s.snapshot().wasted_fraction() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_waste_nothing() {
        assert_eq!(SpecStats::new().snapshot().wasted_fraction(), 0.0);
    }
}
