//! Regenerates the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! tables [table1|table2|table3|fig2|fig3|ablations|all]
//!        [--scale test|small|medium] [--threads N] [--repeats N]
//!        [--out DIR] [--no-check]
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use dacpara_bench::{
    ablations, engines, fig2, fig3, speedup, table1, table2, table3, Exhibit, Harness,
};
use dacpara_circuits::Scale;

struct Args {
    which: Vec<String>,
    harness: Harness,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut which: Vec<String> = Vec::new();
    let mut harness = Harness::default();
    let mut out = PathBuf::from("results");
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "table1" | "table2" | "table3" | "fig2" | "fig3" | "ablations" | "speedup"
            | "engines" => {
                which.push(arg);
            }
            "all" => {
                which = [
                    "table1",
                    "table2",
                    "table3",
                    "fig2",
                    "fig3",
                    "speedup",
                    "engines",
                    "ablations",
                ]
                .map(String::from)
                .to_vec();
            }
            "--scale" => {
                harness.scale = match it.next().as_deref() {
                    Some("test") => Scale::Test,
                    Some("small") => Scale::Small,
                    Some("medium") => Scale::Medium,
                    other => return Err(format!("unknown scale {other:?}")),
                };
            }
            "--threads" => harness.threads = parse_count("--threads", it.next())?,
            "--repeats" => harness.repeats = parse_count("--repeats", it.next())?,
            "--out" => {
                out = PathBuf::from(it.next().ok_or("--out needs a directory")?);
            }
            "--no-check" => harness.check = false,
            other => return Err(format!("unknown argument `{other}` (try `all`)")),
        }
    }
    if which.is_empty() {
        which.push("table1".to_string());
    }
    Ok(Args {
        which,
        harness,
        out,
    })
}

/// Parses the value of a count flag; zero is rejected, since neither zero
/// threads nor zero timed repeats can produce a measurement.
fn parse_count(flag: &str, value: Option<String>) -> Result<usize, String> {
    match value.and_then(|s| s.parse().ok()) {
        Some(0) => Err(format!("{flag} must be at least 1")),
        Some(n) => Ok(n),
        None => Err(format!("{flag} needs a number")),
    }
}

fn run_exhibit(name: &str, harness: &Harness) -> Exhibit {
    match name {
        "table1" => table1(harness),
        "table2" => table2(harness),
        "table3" => table3(harness),
        "fig2" => fig2(harness),
        "fig3" => fig3(harness),
        "speedup" => speedup(harness),
        "engines" => engines(harness),
        "ablations" => ablations(harness),
        _ => unreachable!("validated in parse_args"),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: tables [table1|table2|table3|fig2|fig3|ablations|all] \
                 [--scale test|small|medium] [--threads N] [--repeats N] \
                 [--out DIR] [--no-check]"
            );
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "# scale={:?} threads={} repeats={} check={}",
        args.harness.scale, args.harness.threads, args.harness.repeats, args.harness.check
    );
    for name in &args.which {
        eprintln!("# running {name} ...");
        let exhibit = run_exhibit(name, &args.harness);
        println!("{}", exhibit.markdown);
        if let Err(e) = dacpara_bench::write_markdown(&args.out, name, &exhibit.markdown)
            .and_then(|()| dacpara_bench::write_json(&args.out, name, &exhibit))
        {
            eprintln!("warning: could not persist {name}: {e}");
        }
    }
    ExitCode::SUCCESS
}
