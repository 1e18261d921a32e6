//! A realistic synthesis mini-flow: generate an arithmetic datapath,
//! rewrite it serially and in parallel, verify both, export AIGER.
//!
//! Run with: `cargo run --release --example synthesis_flow`

use dacpara::{run_engine, Engine, RewriteConfig};
use dacpara_aig::{aiger, AigRead};
use dacpara_circuits::arith;
use dacpara_equiv::{check_equivalence, CecConfig, CecResult};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // An 10x10 array multiplier — the `mult` benchmark family of the paper.
    let golden = arith::multiplier(10);
    println!(
        "multiplier(10): {} inputs, {} outputs, {} AND gates, depth {}",
        golden.num_inputs(),
        golden.num_outputs(),
        golden.num_ands(),
        golden.depth()
    );

    // Serial baseline (ABC `rewrite`).
    let mut serial = golden.clone();
    let s = run_engine(
        &mut serial,
        Engine::AbcRewrite,
        &RewriteConfig::rewrite_op(),
    )?;
    println!("serial : {s}");

    // DACPara with two threads.
    let mut parallel = golden.clone();
    let cfg = RewriteConfig::rewrite_op().with_threads(2);
    let p = run_engine(&mut parallel, Engine::DacPara, &cfg)?;
    println!("dacpara: {p}");

    // Both must preserve the multiplier's function.
    for (name, aig) in [("serial", &serial), ("dacpara", &parallel)] {
        match check_equivalence(&golden, aig, &CecConfig::default()) {
            CecResult::Equivalent => println!("{name}: equivalence PASS"),
            CecResult::Undecided => println!("{name}: simulation PASS (SAT budget out)"),
            CecResult::Inequivalent(_) => {
                return Err(format!("{name} broke the multiplier!").into())
            }
        }
    }

    // Export the optimized netlist.
    let out = std::env::temp_dir().join("mult10_rewritten.aag");
    std::fs::write(&out, aiger::to_string(&parallel))?;
    println!("wrote optimized AIGER to {}", out.display());
    Ok(())
}
