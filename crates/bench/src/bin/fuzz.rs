//! Differential fuzzing driver for the DACPara engines.
//!
//! ```text
//! fuzz run    [--iters N] [--seed N] [--small] [--inputs N] [--nodes N]
//!             [--outputs N] [--depth N] [--reconvergence X.Y] [--xor-mux X.Y]
//!             [--threads 1,2,4] [--mutate-every N] [--fault SPEC]
//!             [--fault-seed N] [--corpus DIR] [--no-shrink] [--repeats N]
//!             [--max-rounds N] [--trace FILE.json] [--metrics FILE.jsonl]
//! fuzz replay [--corpus DIR] [ENTRY.entry ...]
//! fuzz shrink --in ENTRY.entry [--out ENTRY.entry] [--repeats N]
//!             [--max-rounds N]
//! ```
//!
//! `run` generates seeded random circuits (see `dacpara_fuzz::gen`) and
//! sweeps each through the engine × thread matrix, cross-checked
//! with budgeted CEC and the structural invariant checker. On the first
//! failure it delta-debugs the circuit down to a minimal witness and writes
//! a replayable corpus entry (default `fuzz/corpus/`). Exit code 1 means a
//! failure was found (and its witness written); 0 means the whole campaign
//! came back clean.
//!
//! `replay` re-runs recorded corpus entries — explicit files, or every
//! `*.entry` under the corpus directory — and verifies each behaves as
//! recorded: regression pins must pass, shrunk witnesses must still fail
//! (under the fault plan they recorded, if any).
//!
//! `shrink` re-minimizes an existing failing entry, e.g. after the oracle
//! or the generator changed.
//!
//! `--fault SPEC` arms `dacpara-fault` injection (grammar per
//! [`dacpara_fault::FaultPlan::parse`]) around every oracle cell; engine
//! errors are then tolerated (the fault-tolerance contract) while
//! inequivalence and invariant violations still convict. `--trace` /
//! `--metrics` record the run through `dacpara-obs` exactly like the
//! `rewrite` binary.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use dacpara::testkit::engine_matrix;
use dacpara_aig::AigRead;
use dacpara_fault::FaultPlan;
use dacpara_fuzz::corpus::{replay, CorpusEntry, ReplayOutcome};
use dacpara_fuzz::gen::GenConfig;
use dacpara_fuzz::oracle::OracleConfig;
use dacpara_fuzz::shrink::ShrinkConfig;
use dacpara_fuzz::{fuzz_run, shrink_failing, summarize, FuzzConfig};

struct Common {
    trace: Option<PathBuf>,
    metrics: Option<PathBuf>,
}

struct RunArgs {
    iters: usize,
    seed: u64,
    gen: GenConfig,
    threads: Vec<usize>,
    mutate_every: usize,
    fault: Option<(String, u64)>,
    corpus: PathBuf,
    shrink: bool,
    repeats: usize,
    max_rounds: usize,
}

struct ShrinkArgs {
    input: PathBuf,
    output: Option<PathBuf>,
    repeats: usize,
    max_rounds: usize,
}

fn parse_num<T: std::str::FromStr>(flag: &str, value: Option<String>) -> Result<T, String> {
    let value = value.ok_or_else(|| format!("{flag} needs a value"))?;
    value
        .parse()
        .map_err(|_| format!("{flag} got unparseable `{value}`"))
}

fn usage() {
    eprintln!(
        "usage: fuzz run    [--iters N] [--seed N] [--small] [--inputs N] [--nodes N] \
         [--outputs N] [--depth N] [--reconvergence X.Y] [--xor-mux X.Y] \
         [--threads 1,2,4] [--mutate-every N] [--fault SPEC] [--fault-seed N] \
         [--corpus DIR] [--no-shrink] [--repeats N] [--max-rounds N] \
         [--trace FILE.json] [--metrics FILE.jsonl]\n       \
         fuzz replay [--corpus DIR] [ENTRY.entry ...]\n       \
         fuzz shrink --in ENTRY.entry [--out ENTRY.entry] [--repeats N] [--max-rounds N]"
    );
}

fn main() -> ExitCode {
    // `--fault` plans inject panics that the engines contain and recover;
    // keep them off stderr, where only real panics belong.
    dacpara_fault::silence_injected_panics();
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
        return ExitCode::FAILURE;
    }
    let sub = args.remove(0);
    let result = match sub.as_str() {
        "run" => cmd_run(args),
        "replay" => cmd_replay(args),
        "shrink" => cmd_shrink(args),
        "--help" | "-h" | "help" => {
            usage();
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown subcommand `{other}`")),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            usage();
            ExitCode::FAILURE
        }
    }
}

fn take_common(args: &mut Vec<String>) -> Result<Common, String> {
    let mut trace = None;
    let mut metrics = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--trace" | "--metrics" => {
                let flag = args.remove(i);
                if i >= args.len() {
                    return Err(format!("{flag} needs a path"));
                }
                let path = PathBuf::from(args.remove(i));
                if flag == "--trace" {
                    trace = Some(path);
                } else {
                    metrics = Some(path);
                }
            }
            _ => i += 1,
        }
    }
    Ok(Common { trace, metrics })
}

fn obs_begin(common: &Common) {
    if common.trace.is_some() || common.metrics.is_some() {
        dacpara_obs::reset();
        dacpara_obs::enable();
    }
}

fn obs_end(common: &Common) -> Result<(), String> {
    if common.trace.is_some() || common.metrics.is_some() {
        dacpara_obs::disable();
    }
    if let Some(path) = &common.trace {
        dacpara_obs::export_chrome_trace(path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("trace:   {}", path.display());
    }
    if let Some(path) = &common.metrics {
        dacpara_obs::export_metrics_jsonl(path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("metrics: {}", path.display());
    }
    Ok(())
}

fn parse_threads(value: Option<String>) -> Result<Vec<usize>, String> {
    let value = value.ok_or("--threads needs a comma-separated list")?;
    let threads: Vec<usize> = value
        .split(',')
        .map(|t| {
            t.trim()
                .parse()
                .map_err(|_| format!("thread count `{t}` is not a usize"))
        })
        .collect::<Result<_, _>>()?;
    if threads.is_empty() {
        return Err("--threads needs at least one count".into());
    }
    if threads.contains(&0) {
        return Err("thread counts must be >= 1".into());
    }
    Ok(threads)
}

fn parse_run(mut args: Vec<String>) -> Result<(RunArgs, Common), String> {
    let common = take_common(&mut args)?;
    let mut run = RunArgs {
        iters: 200,
        seed: 0xDACF_0070,
        gen: GenConfig::default(),
        threads: vec![1, 2, 4],
        mutate_every: 3,
        fault: None,
        corpus: PathBuf::from("fuzz/corpus"),
        shrink: true,
        repeats: 3,
        max_rounds: 12,
    };
    let mut fault_spec: Option<String> = None;
    let mut fault_seed = 0u64;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--iters" => run.iters = parse_num("--iters", it.next())?,
            "--seed" => run.seed = parse_num("--seed", it.next())?,
            "--small" => run.gen = GenConfig::small(),
            "--inputs" => run.gen.inputs = parse_num("--inputs", it.next())?,
            "--nodes" => run.gen.nodes = parse_num("--nodes", it.next())?,
            "--outputs" => run.gen.outputs = parse_num("--outputs", it.next())?,
            "--depth" => run.gen.max_depth = parse_num("--depth", it.next())?,
            "--reconvergence" => run.gen.reconvergence = parse_num("--reconvergence", it.next())?,
            "--xor-mux" => run.gen.xor_mux = parse_num("--xor-mux", it.next())?,
            "--threads" => run.threads = parse_threads(it.next())?,
            "--mutate-every" => run.mutate_every = parse_num("--mutate-every", it.next())?,
            "--fault" => fault_spec = Some(it.next().ok_or("--fault needs a spec")?),
            "--fault-seed" => fault_seed = parse_num("--fault-seed", it.next())?,
            "--corpus" => run.corpus = PathBuf::from(it.next().ok_or("--corpus needs a dir")?),
            "--no-shrink" => run.shrink = false,
            "--repeats" => run.repeats = parse_num("--repeats", it.next())?,
            "--max-rounds" => run.max_rounds = parse_num("--max-rounds", it.next())?,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(spec) = fault_spec {
        // Parse now so a typo is a startup error, not a silent no-fault run.
        FaultPlan::parse(&spec, fault_seed).map_err(|e| e.to_string())?;
        run.fault = Some((spec, fault_seed));
    }
    Ok((run, common))
}

fn cmd_run(args: Vec<String>) -> Result<ExitCode, String> {
    let (run, common) = parse_run(args)?;
    let fault_plan = match &run.fault {
        Some((spec, seed)) => Some(FaultPlan::parse(spec, *seed).map_err(|e| e.to_string())?),
        None => None,
    };
    let cfg = FuzzConfig {
        iters: run.iters,
        gen: run.gen,
        oracle: OracleConfig {
            points: engine_matrix(&run.threads),
            fault: fault_plan,
        },
        mutate_every: run.mutate_every,
    };
    eprintln!(
        "campaign: {} iters, seed {:#x}, {} matrix cells{}",
        cfg.iters,
        run.seed,
        cfg.oracle.points.len(),
        match &run.fault {
            Some((spec, seed)) => format!(", faults `{spec}` seed {seed}"),
            None => String::new(),
        }
    );
    obs_begin(&common);
    let report = fuzz_run(&cfg, run.seed);
    eprintln!("{}", summarize(&report));
    let code = match &report.failing {
        None => ExitCode::SUCCESS,
        Some(case) => {
            let witness = if run.shrink {
                let shrink_cfg = ShrinkConfig {
                    max_rounds: run.max_rounds,
                    repeats: run.repeats,
                };
                let small = shrink_failing(case, &cfg.oracle, &shrink_cfg);
                eprintln!(
                    "shrunk witness: {} -> {} AND nodes",
                    case.aig.num_ands(),
                    small.num_ands()
                );
                small
            } else {
                case.aig.clone()
            };
            let entry = CorpusEntry {
                seed: case.seed,
                threads: run.threads.clone(),
                fault: run.fault.clone(),
                expect_fail: true,
                note: format!(
                    "fuzz run --seed {:#x}: {}",
                    run.seed,
                    case.failures
                        .iter()
                        .map(|f| f.to_string())
                        .collect::<Vec<_>>()
                        .join("; ")
                ),
                aig: witness,
            };
            std::fs::create_dir_all(&run.corpus).map_err(|e| e.to_string())?;
            let path = run.corpus.join(format!("witness-{:016x}.entry", case.seed));
            entry.write_to(&path).map_err(|e| e.to_string())?;
            eprintln!("witness: {}", path.display());
            ExitCode::FAILURE
        }
    };
    obs_end(&common)?;
    Ok(code)
}

fn cmd_replay(mut args: Vec<String>) -> Result<ExitCode, String> {
    let common = take_common(&mut args)?;
    let mut corpus = PathBuf::from("fuzz/corpus");
    let mut files: Vec<PathBuf> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--corpus" => corpus = PathBuf::from(it.next().ok_or("--corpus needs a dir")?),
            flag if flag.starts_with("--") => return Err(format!("unknown argument `{flag}`")),
            file => files.push(PathBuf::from(file)),
        }
    }
    if files.is_empty() {
        let mut found: Vec<PathBuf> = std::fs::read_dir(&corpus)
            .map_err(|e| format!("{}: {e}", corpus.display()))?
            .filter_map(|d| d.ok())
            .map(|d| d.path())
            .filter(|p| p.extension().is_some_and(|e| e == "entry"))
            .collect();
        found.sort();
        files = found;
    }
    if files.is_empty() {
        eprintln!("corpus: no entries under {}", corpus.display());
        return Ok(ExitCode::SUCCESS);
    }
    obs_begin(&common);
    let mut mismatches = 0usize;
    for path in &files {
        let entry = CorpusEntry::read_from(path)?;
        match replay(&entry)? {
            ReplayOutcome::Green => eprintln!("green:   {}", path.display()),
            ReplayOutcome::Mismatch(failures) => {
                mismatches += 1;
                if failures.is_empty() {
                    eprintln!(
                        "MISMATCH: {} — recorded witness no longer fails",
                        path.display()
                    );
                } else {
                    eprintln!("MISMATCH: {} — {}", path.display(), failures.join("; "));
                }
            }
        }
    }
    obs_end(&common)?;
    eprintln!("replayed {} entries, {mismatches} mismatches", files.len());
    Ok(if mismatches == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_shrink(mut args: Vec<String>) -> Result<ExitCode, String> {
    let common = take_common(&mut args)?;
    let mut parsed = ShrinkArgs {
        input: PathBuf::new(),
        output: None,
        repeats: 3,
        max_rounds: 12,
    };
    let mut have_input = false;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--in" => {
                parsed.input = PathBuf::from(it.next().ok_or("--in needs a path")?);
                have_input = true;
            }
            "--out" => parsed.output = Some(PathBuf::from(it.next().ok_or("--out needs a path")?)),
            "--repeats" => parsed.repeats = parse_num("--repeats", it.next())?,
            "--max-rounds" => parsed.max_rounds = parse_num("--max-rounds", it.next())?,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !have_input {
        return Err("shrink needs --in ENTRY.entry".into());
    }
    let mut entry = CorpusEntry::read_from(&parsed.input)?;
    if !entry.expect_fail {
        return Err("entry is a regression pin (`expect: pass`); nothing to shrink".into());
    }
    let oracle = entry.oracle_config()?;
    let case = dacpara_fuzz::FailingCase {
        seed: entry.seed,
        aig: entry.aig.clone(),
        failures: Vec::new(),
    };
    let shrink_cfg = ShrinkConfig {
        max_rounds: parsed.max_rounds,
        repeats: parsed.repeats,
    };
    obs_begin(&common);
    let small = shrink_failing(&case, &oracle, &shrink_cfg);
    obs_end(&common)?;
    eprintln!(
        "shrunk: {} -> {} AND nodes",
        entry.aig.num_ands(),
        small.num_ands()
    );
    entry.aig = small;
    let out = parsed.output.unwrap_or(parsed.input);
    entry
        .write_to(Path::new(&out))
        .map_err(|e| format!("{}: {e}", out.display()))?;
    eprintln!("wrote {}", out.display());
    Ok(ExitCode::SUCCESS)
}
