#![warn(missing_docs)]
//! `dacpara-obs`: a zero-dependency tracing and metrics layer for the
//! DACPara rewriting engines.
//!
//! The paper's central claim (Fig. 2, §5.2) is *quantitative* — split
//! operators waste less speculative work than fused ones — so every engine
//! in this workspace is instrumented through this crate:
//!
//! * **Spans** ([`fn@span`], [`span!`]) — hierarchical activities recorded
//!   into per-thread buffers with nanosecond timestamps. The hot path is a
//!   single relaxed atomic load when observability is disabled; when
//!   enabled, recording is a thread-local vector push (flushed in batches).
//! * **Counters** ([`counter`]) — named, sharded atomic counters (16
//!   cache-padded shards) for high-frequency events such as cut-memo
//!   hits/misses.
//! * **Histograms** ([`histogram`]) — log2-bucketed distributions for
//!   conflict-abort latency, replacement gain, MFFC size, cut counts.
//! * **Exporters** — [`export_chrome_trace`] writes a Chrome trace-event
//!   JSON file (open in `chrome://tracing` or <https://ui.perfetto.dev>;
//!   one lane per worker thread showing enumeration / evaluation /
//!   replacement activity), and [`export_metrics_jsonl`] dumps every
//!   counter and histogram as one JSON object per line.
//!
//! Everything is `std`-only; the tiny JSON writer lives in [`json`] and is
//! reused by the bench harness for its `results/*.json` files.
//!
//! # Example
//!
//! ```
//! dacpara_obs::enable();
//! {
//!     let _s = dacpara_obs::span("evaluate");
//!     dacpara_obs::counter("demo.events").add(1);
//!     dacpara_obs::histogram("demo.latency_ns").record(1_250);
//! }
//! dacpara_obs::flush_thread();
//! assert!(dacpara_obs::counter("demo.events").value() >= 1);
//! dacpara_obs::disable();
//! ```

mod counter;
mod export;
mod histogram;
pub mod json;
mod registry;
mod span;

pub use counter::ShardedCounter;
pub use export::{
    chrome_trace_to_string, export_chrome_trace, export_metrics_jsonl, metrics_to_jsonl,
};
pub use histogram::{HistogramSnapshot, LogHistogram};
pub use registry::{counter, disable, enable, global, histogram, is_enabled, reset, ObsRegistry};
pub use span::{flush_thread, instant, span, span_cat, span_with_args, Span, SpanEvent};

/// Opens a span with optional `key = value` arguments.
///
/// With observability disabled this costs one relaxed atomic load; the
/// argument expressions are **not** evaluated.
///
/// ```
/// let node = 7;
/// let _s = dacpara_obs::span!("evaluate", node = node);
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        if $crate::is_enabled() {
            $crate::span_with_args(
                $name,
                vec![$((stringify!($key), format!("{:?}", $value))),+],
            )
        } else {
            $crate::Span::inert()
        }
    };
}
