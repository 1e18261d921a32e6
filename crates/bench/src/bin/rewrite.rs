//! Command-line rewriting tool: read an AIGER netlist (or generate a named
//! benchmark), optimize it with a chosen engine, and write the result.
//!
//! ```text
//! rewrite [--engine NAME] [--threads N] [--passes N]
//!         [--runs N] [--zeros] [--classes 134|222] [--check]
//!         [--trace FILE.json] [--metrics FILE.jsonl]
//!         [--in FILE.{aag,aig,blif}|--bench NAME[:scale]]
//!         [--out FILE.{aag,aig,blif,v,dot}]
//! ```
//!
//! `--engine` accepts any [`Engine`] name (see `Engine::help_list()`) plus
//! the short aliases `abc`, `dac22`, `tcad23` and `partition`. `--passes N`
//! applies the engine up to `N` times via [`dacpara::optimize`]; for
//! `dacpara` and `iccad18` the passes share one `RewriteSession`, so later
//! passes revisit only the nodes earlier passes dirtied and a converged
//! pass returns immediately.
//!
//! Observability flags (see `docs/ARCHITECTURE.md`, "Observability"):
//!
//! * `--trace FILE.json` — record spans during the run and write a Chrome
//!   trace-event file (open in `chrome://tracing` or
//!   <https://ui.perfetto.dev>; one lane per worker thread showing
//!   enumeration / evaluation / replacement activity).
//! * `--metrics FILE.jsonl` — dump every counter and histogram (cut-memo
//!   hits/misses, conflict/abort latency, lock hold times, MFFC sizes,
//!   replacement gains) as one JSON object per line.
//!
//! Either flag enables recording for the whole run; without them the
//! instrumentation costs one relaxed atomic load per site. All diagnostics
//! go to stderr; stdout stays machine-parseable (reserved for `--out -`
//! style piping in the future).
//!
//! Fault tolerance (see `docs/ARCHITECTURE.md` §12):
//!
//! * The concurrent engines size their arena to the live graph plus a
//!   proven per-thread bound; it cannot run out, so there is no knob.
//! * In-pass recovery from contained worker panics has a fixed budget: a
//!   session recovers at most eight times; there is no way to turn it off.
//! * `DACPARA_FAULT_SPEC` / `DACPARA_FAULT_SEED` — arm the deterministic
//!   fault-injection harness (e.g. `operator.panic=1/64*2`); the armed plan is
//!   echoed to stderr. See the `dacpara-fault` crate docs for the grammar.

use std::path::PathBuf;
use std::process::ExitCode;

use dacpara::{optimize, run_engine, Engine, RewriteConfig};
use dacpara_aig::{aiger, Aig};
use dacpara_circuits::{full_suite, Scale};
use dacpara_equiv::{check_equivalence, CecConfig, CecResult};

struct Args {
    engine: Engine,
    cfg: RewriteConfig,
    passes: usize,
    input: Input,
    output: Option<PathBuf>,
    check: bool,
    trace: Option<PathBuf>,
    metrics: Option<PathBuf>,
}

enum Input {
    File(PathBuf),
    Bench(String, Scale),
}

/// Parses a required numeric flag value, naming the flag and echoing the
/// offending text on failure.
fn parse_num<T: std::str::FromStr>(flag: &str, value: Option<String>) -> Result<T, String> {
    let value = value.ok_or_else(|| format!("{flag} needs a number"))?;
    value
        .parse()
        .map_err(|_| format!("{flag} needs a number, got `{value}`"))
}

fn parse_args() -> Result<Args, String> {
    let mut engine = Engine::DacPara;
    let mut cfg = RewriteConfig::rewrite_op();
    let mut passes = 1;
    let mut input = None;
    let mut output = None;
    let mut check = false;
    let mut trace = None;
    let mut metrics = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--engine" => {
                let name = it.next().ok_or("--engine needs a name")?;
                engine = name.parse().map_err(|e| format!("{e}"))?;
            }
            "--threads" => {
                cfg.threads = parse_num("--threads", it.next())?;
            }
            "--runs" => {
                cfg.runs = parse_num("--runs", it.next())?;
            }
            "--passes" => {
                passes = parse_num("--passes", it.next())?;
                if passes == 0 {
                    return Err("--passes must be at least 1".into());
                }
            }
            "--classes" => {
                cfg.num_classes = parse_num("--classes", it.next())?;
            }
            "--zeros" => cfg.use_zeros = true,
            "--check" => check = true,
            "--in" => {
                input = Some(Input::File(PathBuf::from(
                    it.next().ok_or("--in needs a path")?,
                )));
            }
            "--bench" => {
                let spec = it.next().ok_or("--bench needs a name")?;
                let (name, scale) = match spec.split_once(':') {
                    Some((n, "test")) => (n.to_string(), Scale::Test),
                    Some((n, "small")) => (n.to_string(), Scale::Small),
                    Some((n, "medium")) => (n.to_string(), Scale::Medium),
                    Some((_, s)) => return Err(format!("unknown scale {s}")),
                    None => (spec, Scale::Small),
                };
                input = Some(Input::Bench(name, scale));
            }
            "--out" => {
                output = Some(PathBuf::from(it.next().ok_or("--out needs a path")?));
            }
            "--trace" => {
                trace = Some(PathBuf::from(it.next().ok_or("--trace needs a path")?));
            }
            "--metrics" => {
                metrics = Some(PathBuf::from(it.next().ok_or("--metrics needs a path")?));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let input = input.ok_or("one of --in FILE or --bench NAME is required")?;
    cfg.validate().map_err(|e| e.to_string())?;
    Ok(Args {
        engine,
        cfg,
        passes,
        input,
        output,
        check,
        trace,
        metrics,
    })
}

fn load(input: &Input) -> Result<Aig, String> {
    match input {
        Input::File(path) => {
            let bytes = std::fs::read(path).map_err(|e| e.to_string())?;
            match path.extension().and_then(|e| e.to_str()) {
                Some("aig") => {
                    dacpara_aig::aiger::read_binary(&bytes[..]).map_err(|e| e.to_string())
                }
                Some("blif") => {
                    let text = String::from_utf8(bytes).map_err(|e| e.to_string())?;
                    dacpara_aig::blif::parse(&text).map_err(|e| e.to_string())
                }
                _ => {
                    let text = String::from_utf8(bytes).map_err(|e| e.to_string())?;
                    aiger::parse(&text).map_err(|e| e.to_string())
                }
            }
        }
        Input::Bench(name, scale) => full_suite(*scale)
            .into_iter()
            .find(|b| b.name == *name || b.name.starts_with(&format!("{name}_")))
            .map(|b| b.aig)
            .ok_or_else(|| format!("unknown benchmark `{name}`")),
    }
}

fn save(aig: &Aig, path: &std::path::Path) -> Result<(), String> {
    match path.extension().and_then(|e| e.to_str()) {
        Some("aig") => {
            let mut buf = Vec::new();
            dacpara_aig::aiger::write_binary(aig, &mut buf).map_err(|e| e.to_string())?;
            std::fs::write(path, buf).map_err(|e| e.to_string())
        }
        Some("blif") => {
            let model = path
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("rewritten");
            std::fs::write(path, dacpara_aig::blif::to_string(aig, model))
                .map_err(|e| e.to_string())
        }
        Some("v") => {
            let module = path
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("rewritten");
            std::fs::write(path, dacpara_aig::export::verilog_to_string(aig, module))
                .map_err(|e| e.to_string())
        }
        Some("dot") => {
            std::fs::write(path, dacpara_aig::export::dot_to_string(aig)).map_err(|e| e.to_string())
        }
        _ => std::fs::write(path, aiger::to_string(aig)).map_err(|e| e.to_string()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: rewrite [--engine NAME] [--threads N] [--passes N] \
                 [--runs N] [--zeros] [--classes 134|222] [--check] \
                 [--trace FILE.json] [--metrics FILE.jsonl] \
                 (--in FILE.aag | --bench NAME[:test|small|medium]) [--out FILE.aag]"
            );
            eprintln!("engines: {}", Engine::help_list());
            return ExitCode::FAILURE;
        }
    };
    let mut aig = match load(&args.input) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let golden = if args.check { Some(aig.clone()) } else { None };
    // Arm the deterministic fault harness if the env knobs ask for it; a
    // malformed spec is a hard error, not a silently fault-free run. The
    // engines contain and recover injected panics, so they stay off stderr.
    match dacpara_fault::arm_from_env() {
        Ok(None) => {}
        Ok(Some(plan)) => {
            dacpara_fault::silence_injected_panics();
            eprintln!("faults: {plan}");
        }
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    let observing = args.trace.is_some() || args.metrics.is_some();
    if observing {
        dacpara_obs::reset();
        dacpara_obs::enable();
    }
    eprintln!("input:  {}", dacpara_aig::export::stats(&aig));
    if args.passes == 1 {
        match run_engine(&mut aig, args.engine, &args.cfg) {
            Ok(stats) => eprintln!("{}", stats.summary()),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        match optimize(&mut aig, args.engine, &args.cfg, args.passes) {
            Ok(passes) => {
                for (i, stats) in passes.iter().enumerate() {
                    eprintln!("pass {}: {}", i + 1, stats.summary());
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    eprintln!("output: {}", dacpara_aig::export::stats(&aig));
    if observing {
        dacpara_obs::disable();
        if let Some(path) = &args.trace {
            if let Err(e) = dacpara_obs::export_chrome_trace(path) {
                eprintln!("error writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            eprintln!("trace:  {}", path.display());
        }
        if let Some(path) = &args.metrics {
            if let Err(e) = dacpara_obs::export_metrics_jsonl(path) {
                eprintln!("error writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            eprintln!("metrics: {}", path.display());
        }
    }
    if let Some(golden) = golden {
        match check_equivalence(&golden, &aig, &CecConfig::default()) {
            CecResult::Equivalent => eprintln!("equivalence: proven"),
            CecResult::Undecided => eprintln!("equivalence: simulation passed (SAT budget out)"),
            CecResult::Inequivalent(_) => {
                eprintln!("equivalence: FAILED — refusing to write output");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(path) = args.output {
        if let Err(e) = save(&aig, &path) {
            eprintln!("error writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {}", path.display());
    }
    ExitCode::SUCCESS
}
