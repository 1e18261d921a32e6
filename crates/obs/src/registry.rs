//! The global observability registry: the enabled flag every hot path
//! checks, named counters/histograms, and the per-thread span logs.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

use crate::counter::ShardedCounter;
use crate::histogram::LogHistogram;
use crate::span::ThreadLog;

/// Process-wide observability state. Obtain it via [`global`]; the free
/// functions ([`enable`], [`counter`], [`fn@crate::span`], …) all route here.
pub struct ObsRegistry {
    enabled: AtomicBool,
    epoch: Instant,
    /// Bumped by [`reset`]; thread-local span buffers re-register when they
    /// notice a stale generation, so resets cannot leak events into
    /// orphaned logs.
    generation: AtomicU64,
    next_tid: AtomicU32,
    counters: Mutex<HashMap<&'static str, Arc<ShardedCounter>>>,
    histograms: Mutex<HashMap<&'static str, Arc<LogHistogram>>>,
    logs: Mutex<Vec<Arc<ThreadLog>>>,
}

impl ObsRegistry {
    fn new() -> ObsRegistry {
        ObsRegistry {
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
            generation: AtomicU64::new(0),
            next_tid: AtomicU32::new(0),
            counters: Mutex::new(HashMap::new()),
            histograms: Mutex::new(HashMap::new()),
            logs: Mutex::new(Vec::new()),
        }
    }

    /// Whether recording is on (one relaxed load — the disabled fast path).
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on.
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Turns recording off (already-registered data is kept for export).
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Relaxed);
    }

    /// Nanoseconds since the registry was created (the trace time base).
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The current reset generation (see [`ObsRegistry::reset`]).
    pub(crate) fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// The named counter, created on first use.
    pub fn counter(&self, name: &'static str) -> Arc<ShardedCounter> {
        let mut map = self.counters.lock().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(map.entry(name).or_default())
    }

    /// The named histogram, created on first use.
    pub fn histogram(&self, name: &'static str) -> Arc<LogHistogram> {
        let mut map = self
            .histograms
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        Arc::clone(map.entry(name).or_default())
    }

    /// All counters as `(name, value)` pairs, sorted by name.
    pub fn counter_values(&self) -> Vec<(&'static str, u64)> {
        let map = self.counters.lock().unwrap_or_else(PoisonError::into_inner);
        let mut out: Vec<_> = map.iter().map(|(&n, c)| (n, c.value())).collect();
        out.sort_unstable_by_key(|&(n, _)| n);
        out
    }

    /// All histograms as `(name, snapshot)` pairs, sorted by name.
    pub fn histogram_snapshots(&self) -> Vec<(&'static str, crate::HistogramSnapshot)> {
        let map = self
            .histograms
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let mut out: Vec<_> = map.iter().map(|(&n, h)| (n, h.snapshot())).collect();
        out.sort_unstable_by_key(|&(n, _)| n);
        out
    }

    /// Registers a fresh per-thread span log and returns it with its lane
    /// id.
    pub(crate) fn register_thread_log(&self) -> Arc<ThreadLog> {
        let tid = self.next_tid.fetch_add(1, Ordering::Relaxed);
        let log = Arc::new(ThreadLog::new(tid));
        self.logs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Arc::clone(&log));
        log
    }

    /// The registered per-thread logs (completed threads' buffers are
    /// flushed into these when the thread exits).
    pub(crate) fn thread_logs(&self) -> Vec<Arc<ThreadLog>> {
        self.logs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Clears every counter, histogram and span buffer, and bumps the
    /// generation so live threads re-register their local buffers. Intended
    /// for tests and for the start of an instrumented run.
    pub fn reset(&self) {
        for (_, c) in self
            .counters
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
        {
            c.reset();
        }
        for (_, h) in self
            .histograms
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
        {
            h.reset();
        }
        self.logs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
        self.generation.fetch_add(1, Ordering::Release);
    }
}

impl std::fmt::Debug for ObsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsRegistry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

/// The process-wide registry.
pub fn global() -> &'static ObsRegistry {
    static GLOBAL: OnceLock<ObsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(ObsRegistry::new)
}

/// Turns recording on, process-wide.
pub fn enable() {
    global().enable();
}

/// Turns recording off, process-wide.
pub fn disable() {
    global().disable();
}

/// Whether recording is on (the single-relaxed-load fast path).
#[inline]
pub fn is_enabled() -> bool {
    global().is_enabled()
}

/// Clears all recorded data (counters, histograms, span buffers).
pub fn reset() {
    global().reset();
}

/// The named global counter, created on first use. Hot paths should hold
/// on to the returned `Arc` and gate increments on [`is_enabled`].
pub fn counter(name: &'static str) -> Arc<ShardedCounter> {
    global().counter(name)
}

/// The named global histogram, created on first use.
pub fn histogram(name: &'static str) -> Arc<LogHistogram> {
    global().histogram(name)
}
