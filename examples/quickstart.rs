//! Quickstart: build an AIG, run DACPara on it, inspect the results.
//!
//! This walks the workflow of the paper's Fig. 1: the graph is divided
//! into level worklists and rewritten in three parallel stages.
//!
//! Run with: `cargo run --example quickstart`

use dacpara::{run_engine, Engine, RewriteConfig};
use dacpara_aig::{Aig, AigRead};
use dacpara_equiv::{check_equivalence, CecConfig, CecResult};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Build a small circuit: a redundant 5-input majority-ish cone.
    let mut aig = Aig::new();
    let inputs: Vec<_> = (0..5).map(|_| aig.add_input()).collect();
    let mut acc = inputs[0];
    for w in inputs.windows(3) {
        // Deliberately wasteful: mux-based majorities leave room for the
        // rewriter (the optimal majority needs only 4 AND gates).
        let or = aig.add_or(w[1], w[2]);
        let and = aig.add_and(w[1], w[2]);
        let maj = aig.add_mux(w[0], or, and);
        acc = aig.add_xor(acc, maj);
    }
    aig.add_output(acc);
    aig.check()?;
    let golden = aig.clone();
    println!(
        "before: {} AND gates, depth {}",
        aig.num_ands(),
        aig.depth()
    );

    // 2. Rewrite with DACPara (2 threads, ABC-`rewrite`-style configuration).
    let cfg = RewriteConfig::rewrite_op().with_threads(2);
    let stats = run_engine(&mut aig, Engine::DacPara, &cfg)?;
    println!(
        "after:  {} AND gates, depth {} ({} replacements, {} level worklists)",
        stats.area_after, stats.delay_after, stats.replacements, stats.worklists
    );
    println!("stats:  {stats}");

    // 3. The rewritten circuit must be functionally identical.
    match check_equivalence(&golden, &aig, &CecConfig::default()) {
        CecResult::Equivalent => println!("equivalence check: PASS"),
        other => return Err(format!("equivalence check failed: {other:?}").into()),
    }
    Ok(())
}
