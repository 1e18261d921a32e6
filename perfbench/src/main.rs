//! `dacpara-perfbench`: end-to-end and per-layer benchmark of the DACPara
//! rewriting engine.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload log2|voter|mtm --seed N --seconds S --trace 0|1
//! ```
//!
//! One run generates the workload's circuit from the seed, sets up (builds
//! the reference simulation and warms the engine's lazily built tables)
//! [`SETUP_REPEATS`] times, then rewrites the circuit with one DACPara pass
//! after another for `--seconds` seconds, checking every result. Each pass
//! is what a user of the session API pays: `RewriteSession::new`, one
//! `run`, and `finish`.
//!
//! * `--trace 0` runs the passes with observability off and reports the
//!   end-to-end metrics.
//! * `--trace 1` runs [`THREADS`]-thread passes with the obs layer on and
//!   reports where each pass spent its time, split by layer, plus the work
//!   counts of each layer.
//!
//! Diagnostics go to stderr. The last line of stdout is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

mod trace;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use dacpara::{Engine, RewriteConfig, RewriteSession, RewriteStats};
use dacpara_aig::{Aig, AigRead};
use dacpara_equiv::simulate_words;

use trace::PassLayers;
use workload::{SplitMix64, Workload};

/// Worker threads of the parallel passes.
const THREADS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// 64-pattern simulation words each rewritten circuit is checked on.
const SIM_WORDS: usize = 16;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{value}` (one of {})", names.join(", "))
                })?);
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// A workload circuit with the reference it is checked against.
struct Prepared {
    aig: Aig,
    patterns: Vec<Vec<u64>>,
    reference: Vec<Vec<u64>>,
}

/// One checked rewriting pass.
struct Pass {
    ms: f64,
    area_ratio: f64,
    depth_ratio: f64,
    stats: RewriteStats,
    out: Aig,
}

/// Generates the circuit and its reference simulation, then warms up with
/// one checked pass so lazily built tables (NPN library, canonical-form
/// cache) are filled before anything is timed.
fn set_up(workload: Workload, seed: u64) -> Result<Prepared, String> {
    let aig = workload.generate(seed);
    let mut rng = SplitMix64::new(!seed);
    let patterns: Vec<Vec<u64>> = (0..SIM_WORDS)
        .map(|_| (0..aig.num_inputs()).map(|_| rng.next_u64()).collect())
        .collect();
    let reference = patterns.iter().map(|p| simulate_words(&aig, p)).collect();
    let prepared = Prepared {
        aig,
        patterns,
        reference,
    };
    prepared.pass()?;
    Ok(prepared)
}

impl Prepared {
    fn pass(&self) -> Result<Pass, String> {
        let cfg = RewriteConfig::rewrite_op().with_threads(THREADS);
        let start = Instant::now();
        let mut session = {
            let _s = dacpara_obs::span(trace::SESSION_BUILD);
            RewriteSession::new(&self.aig, &cfg)
        }
        .map_err(|e| format!("session: {e}"))?;
        let stats = session
            .run(Engine::DacPara)
            .map_err(|e| format!("pass: {e}"))?;
        let out = {
            let _s = dacpara_obs::span(trace::FINISH);
            session.finish()
        };
        let ms = start.elapsed().as_secs_f64() * 1e3;
        self.verify(&out, &stats)?;
        Ok(Pass {
            ms,
            area_ratio: out.num_ands() as f64 / self.aig.num_ands() as f64,
            depth_ratio: f64::from(out.depth()) / f64::from(self.aig.depth()),
            stats,
            out,
        })
    }

    /// An interface and area check, and equal outputs on every reference
    /// pattern. The structural invariant check costs several passes, so
    /// [`Tally::check_structure`] runs it on the last result of a run
    /// only.
    fn verify(&self, out: &Aig, stats: &RewriteStats) -> Result<(), String> {
        if out.num_inputs() != self.aig.num_inputs() || out.num_outputs() != self.aig.num_outputs()
        {
            return Err("rewritten circuit changed its interface".into());
        }
        if out.num_ands() > self.aig.num_ands() || stats.area_after != out.num_ands() {
            return Err(format!(
                "area {} -> {} (stats report {})",
                self.aig.num_ands(),
                out.num_ands(),
                stats.area_after
            ));
        }
        for (p, r) in self.patterns.iter().zip(&self.reference) {
            if simulate_words(out, p) != *r {
                return Err("rewritten circuit differs from the input in simulation".into());
            }
        }
        Ok(())
    }
}

/// Named metric values of one run, in output order.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }
}

/// Counts of attempted and failed passes.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record<T>(&mut self, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        result
            .map_err(|e| {
                self.failed += 1;
                eprintln!("failed: {e}");
            })
            .ok()
    }

    /// Runs the structural invariant check on `out`, counting the pass that
    /// produced it as failed if the check does not hold.
    fn check_structure(&mut self, out: Option<Aig>) {
        if let Some(Err(e)) = out.map(|out| out.check()) {
            self.failed += 1;
            eprintln!("failed: invariant: {e}");
        }
    }
}

/// Timed passes until the deadline. The 90th percentile goes to stderr
/// only: on a shared host it tracks the neighbours' load more than the
/// program, and its quartile spread over ten runs exceeded a quarter of its
/// median.
fn end_to_end(p: &Prepared, deadline: Instant, tally: &mut Tally, m: &mut Metrics) {
    let (mut times, mut area, mut depth) = (vec![], vec![], vec![]);
    let mut last = None;
    loop {
        if let Some(pass) = tally.record(p.pass()) {
            times.push(pass.ms);
            area.push(pass.area_ratio);
            depth.push(pass.depth_ratio);
            last = Some(pass.out);
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    tally.check_structure(last);
    eprintln!(
        "passes: {}, 90th percentile {:.3} ms",
        times.len(),
        quantile(&mut times, 0.9)
    );
    m.put("rewrite_ms", median(&mut times), "ms");
    m.put("area_ratio", median(&mut area), "ratio");
    m.put("depth_ratio", median(&mut depth), "ratio");
}

/// Traced `THREADS`-thread passes until the deadline, each split into the
/// layers its spans and counters describe. Times are medians over passes,
/// counts are means per pass.
fn per_layer(p: &Prepared, deadline: Instant, tally: &mut Tally, m: &mut Metrics) {
    const TIMES: [&str; 8] = [
        "traced_rewrite_ms",
        "session_build_ms",
        "enumerate_ms",
        "evaluate_ms",
        "replace_ms",
        "barrier_sweep_ms",
        "serial_tail_ms",
        "finish_ms",
    ];
    const COUNTS: [(&str, &str); 7] = [
        ("evaluations", "rewrite.evaluations"),
        ("replacements", ""),
        ("commits", "galois.commits"),
        ("aborts", "galois.aborts"),
        ("steals", "sched.steals"),
        ("memo_hits", "cut.memo_hits"),
        ("memo_misses", "cut.memo_misses"),
    ];
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); TIMES.len()];
    let (mut accounted, mut eval_share) = (vec![], vec![]);
    let mut sums = [0.0f64; COUNTS.len()];
    let mut passes = 0usize;
    let mut last = None;
    dacpara_obs::enable();
    loop {
        dacpara_obs::reset();
        let result = p.pass().and_then(|pass| Ok((PassLayers::collect()?, pass)));
        if let Some((l, pass)) = tally.record(result) {
            let stages = l.ms("enumerate") + l.ms("evaluate") + l.ms("replace");
            let workers = l.ms("worker");
            let tail = l.ms("rewrite_dacpara") - l.team_ms;
            let row = [
                pass.ms,
                l.ms(trace::SESSION_BUILD),
                l.ms("enumerate"),
                l.ms("evaluate"),
                l.ms("replace"),
                workers - stages,
                tail,
                l.ms(trace::FINISH),
            ];
            for (series, v) in times.iter_mut().zip(row) {
                series.push(v);
            }
            let spanned =
                l.ms(trace::SESSION_BUILD) + tail + workers / THREADS as f64 + l.ms(trace::FINISH);
            accounted.push(100.0 * spanned / pass.ms);
            eval_share.push(100.0 * l.ms("evaluate") / stages);
            for (sum, (_, counter)) in sums.iter_mut().zip(COUNTS) {
                *sum += match counter {
                    "" => pass.stats.replacements as f64,
                    name => l.count(name),
                };
            }
            passes += 1;
            last = Some(pass.out);
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    dacpara_obs::disable();
    tally.check_structure(last);
    eprintln!("traced passes: {passes}");
    for (name, series) in TIMES.iter().zip(&mut times) {
        m.put(name, median(series), "ms");
    }
    m.put("accounted_pct", median(&mut accounted), "%");
    m.put("evaluate_share_pct", median(&mut eval_share), "%");
    for ((name, _), sum) in COUNTS.iter().zip(sums) {
        m.put(name, sum / passes.max(1) as f64, "count");
    }
    let [_, _, commits, aborts, _, hits, misses] = sums;
    m.put("commit_pct", 100.0 * commits / (commits + aborts), "%");
    m.put("memo_hit_pct", 100.0 * hits / (hits + misses), "%");
}

/// The median (mean of the middle pair for even lengths); 0 when empty.
fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// The nearest-rank `q`-quantile; 0 when empty.
fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let rank = (q * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: dacpara-perfbench --workload log2|voter|mtm [--seed N] \
                 [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut prepared = None;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        match set_up(args.workload, args.seed) {
            Ok(p) => prepared = Some(p),
            Err(e) => {
                eprintln!("error: set-up failed: {e}");
                return ExitCode::FAILURE;
            }
        }
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let p = prepared.expect("at least one set-up ran");
    eprintln!(
        "workload {} seed {}: {} ANDs, depth {}, {} inputs",
        args.workload.name(),
        args.seed,
        p.aig.num_ands(),
        p.aig.depth(),
        p.aig.num_inputs()
    );

    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();
    if args.trace {
        per_layer(&p, deadline, &mut tally, &mut metrics);
    } else {
        end_to_end(&p, deadline, &mut tally, &mut metrics);
        metrics.put("setup_s", median(&mut setup_s), "s");
    }

    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            eprintln!("{name:>20} = {value:.4} {unit}");
            format!(r#""{name}": {{"value": {value}, "unit": "{unit}"}}"#)
        })
        .collect();
    println!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
