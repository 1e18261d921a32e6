//! Run all five rewriting engines on the same circuit and compare.
//!
//! Run with: `cargo run --release --example compare_methods [gates]`

use dacpara::{run_engine, Engine};
use dacpara_aig::AigRead;
use dacpara_circuits::{mtm, MtmParams};
use dacpara_equiv::{check_equivalence, CecConfig, CecResult};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let gates: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(4_000);
    let golden = mtm(&MtmParams {
        inputs: 64,
        gates,
        outputs: 24,
        seed: 7,
    });
    println!(
        "benchmark: MtM-style, {} ANDs, depth {}\n",
        golden.num_ands(),
        golden.depth()
    );
    println!(
        "{:<14} {:>8} {:>9} {:>7} {:>8} {:>8} {:>8}  equiv",
        "engine", "time(s)", "area red", "delay", "repl", "aborts", "waste%"
    );

    // A quick simulation probe per engine; no SAT proof.
    let sim_only = CecConfig {
        sat_node_limit: 0,
        seed: 99,
        ..CecConfig::default()
    };
    for engine in Engine::ALL {
        let cfg = engine.paper_config().with_threads(2);
        let mut aig = golden.clone();
        let stats = run_engine(&mut aig, engine, &cfg)?;
        let equiv = match check_equivalence(&golden, &aig, &sim_only) {
            CecResult::Inequivalent(_) => "FAIL",
            CecResult::Equivalent | CecResult::Undecided => "pass",
        };
        println!(
            "{:<14} {:>8.3} {:>9} {:>7} {:>8} {:>8} {:>8.2}  {}",
            stats.engine,
            stats.time.as_secs_f64(),
            stats.area_reduction(),
            stats.delay_after,
            stats.replacements,
            stats.spec.aborts,
            stats.spec.wasted_fraction() * 100.0,
            equiv
        );
    }
    Ok(())
}
