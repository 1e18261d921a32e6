//! The DACPara pass reports its stage times through the obs layer: every
//! worker opens one `enumerate`, one `evaluate` and one `replace` span per
//! level worklist, and nothing else keeps per-stage timings.
//!
//! Lives in its own integration-test file (= its own process) because it
//! drives the process-global registry; keep it to a single `#[test]`.

use dacpara::{run_engine, Engine, RewriteConfig};
use dacpara_circuits::arith;

#[test]
fn every_worker_emits_one_span_per_stage_and_worklist() {
    dacpara_obs::reset();
    dacpara_obs::enable();

    let threads = 2;
    let mut aig = arith::multiplier(6);
    let cfg = RewriteConfig {
        num_classes: 222,
        threads,
        ..RewriteConfig::rewrite_op()
    };
    let stats = run_engine(&mut aig, Engine::DacPara, &cfg).unwrap();
    let trace = dacpara_obs::chrome_trace_to_string();
    dacpara_obs::disable();

    assert!(stats.worklists > 1, "a multiplier has many level lists");
    let count = |name: &str| trace.matches(&format!("\"name\":\"{name}\"")).count();
    for stage in ["enumerate", "evaluate", "replace"] {
        assert_eq!(
            count(stage),
            stats.worklists * threads,
            "`{stage}` spans: one per worker per worklist"
        );
    }
    assert_eq!(
        count("sweep"),
        stats.worklists + 1,
        "one `sweep` span per worklist, plus the pass's closing cleanup"
    );
    assert_eq!(count("rewrite_dacpara"), 1, "one pass span");
}
