//! dacpara-fault: seeded, deterministic fault injection for recovery paths.
//!
//! Robust recovery code is only trustworthy if every path through it can be
//! exercised on demand. This crate provides named *fault points* — call sites
//! like the replacement operators or the speculative lock table ask
//! [`point`] whether an injected fault should fire here, and otherwise run
//! normally. The crate is std-only and dependency-free, mirroring
//! `dacpara-obs`: when no plan is armed the entire check is one relaxed
//! atomic load, so the points can live on lock-acquire- and commit-hot
//! paths permanently.
//!
//! # Determinism
//!
//! Each point keeps a per-point atomic hit counter; every evaluation gets a
//! unique, monotonically assigned hit index. Whether a given index fires is a
//! pure function of `(seed, point name, index)` — it does not depend on
//! thread interleaving, so a plan produces the same *set* of firing indices
//! on every run. (Which thread observes a firing index can still vary; the
//! recovery machinery under test must tolerate that by construction.)
//!
//! # Plan grammar
//!
//! A plan is a comma-separated list of `point=expr` entries:
//!
//! * `name=1/N` — fires on roughly one in `N` hits, pseudo-randomly selected
//!   from the seed (`N = 1` fires on every hit);
//! * `name=@K` — fires on exactly the `K`-th hit (1-based);
//! * either form may append `*L` to cap the total number of firings at `L`.
//!
//! Example: `operator.panic=@200,lock.acquire=1/32*10`. Every name must be
//! one of [`points::ALL`], so a typo is a parse error rather than a plan
//! that silently never fires.
//!
//! # Wiring
//!
//! The binary arms a plan from the environment ([`arm_from_env`]; knobs
//! `DACPARA_FAULT_SPEC` and `DACPARA_FAULT_SEED`). Tests use [`inject`],
//! which holds a global exclusivity lock so concurrently running tests that
//! inject faults serialize instead of trampling each other's plans, and
//! disarms on drop.

#![warn(missing_docs)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, RwLock};

/// Canonical fault-point names used by the workspace, so call sites and
/// specs cannot drift apart silently.
pub mod points {
    /// Speculative lock acquisition (`LockTable::try_acquire`); an injected
    /// fault reports a conflict (all-or-nothing acquisition fails).
    pub const LOCK_ACQUIRE: &str = "lock.acquire";
    /// Replacement operator entry, and again inside a commit between
    /// building the new structure and rewiring; an injected fault panics
    /// the worker.
    pub const OPERATOR_PANIC: &str = "operator.panic";
    /// A committed replacement in the Galois engines; an injected fault
    /// installs the complemented root — a planted miscompile that the
    /// fuzzer self-test must convict.
    pub const REPLACE_CORRUPT: &str = "replace.corrupt";
    /// Every point above: the names a plan may use.
    pub const ALL: [&str; 3] = [LOCK_ACQUIRE, OPERATOR_PANIC, REPLACE_CORRUPT];
}

/// Fast-path switch: `false` means no plan is armed and [`point`] returns
/// immediately after one relaxed load.
static ARMED: AtomicBool = AtomicBool::new(false);

fn plan_cell() -> &'static RwLock<Option<ActivePlan>> {
    static CELL: OnceLock<RwLock<Option<ActivePlan>>> = OnceLock::new();
    CELL.get_or_init(|| RwLock::new(None))
}

/// Global exclusivity lock taken by [`inject`]: at most one test-owned
/// injection is live at a time, and concurrent tests queue behind it.
fn exclusive() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

/// How a single point decides whether a hit fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Fire when `mix(seed, name, index) % n == 0`.
    Rate(u64),
    /// Fire on exactly the given 1-based hit index.
    At(u64),
}

#[derive(Debug)]
struct PointState {
    name: String,
    mode: Mode,
    /// Maximum number of firings; `u64::MAX` when unlimited.
    limit: u64,
    hits: AtomicU64,
    fired: AtomicU64,
}

#[derive(Debug)]
struct ActivePlan {
    seed: u64,
    points: Vec<PointState>,
}

/// A parsed fault plan, ready to arm.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    specs: Vec<(String, Mode, u64)>,
}

/// A malformed fault-spec string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpecError(String);

impl std::fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid fault spec: {}", self.0)
    }
}

impl std::error::Error for FaultSpecError {}

impl FaultPlan {
    /// Parses a comma-separated spec string (see the crate docs for the
    /// grammar) with the given seed.
    ///
    /// # Errors
    ///
    /// Returns [`FaultSpecError`] on empty entries, missing `=`, names not in
    /// [`points::ALL`], malformed numbers, zero rates, or zero `@` indices.
    pub fn parse(spec: &str, seed: u64) -> Result<FaultPlan, FaultSpecError> {
        let mut specs = Vec::new();
        for entry in spec.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (name, expr) = entry
                .split_once('=')
                .ok_or_else(|| FaultSpecError(format!("`{entry}` is missing `=`")))?;
            let name = name.trim();
            if name.is_empty() {
                return Err(FaultSpecError(format!("`{entry}` has an empty point name")));
            }
            if !points::ALL.contains(&name) {
                return Err(FaultSpecError(format!(
                    "`{name}` is not a fault point (known: {})",
                    points::ALL.join(", ")
                )));
            }
            let expr = expr.trim();
            let (expr, limit) = match expr.split_once('*') {
                Some((head, cap)) => {
                    let cap: u64 = cap
                        .trim()
                        .parse()
                        .map_err(|_| FaultSpecError(format!("bad firing cap in `{entry}`")))?;
                    (head.trim(), cap)
                }
                None => (expr, u64::MAX),
            };
            let mode = if let Some(k) = expr.strip_prefix('@') {
                let k: u64 = k
                    .trim()
                    .parse()
                    .map_err(|_| FaultSpecError(format!("bad hit index in `{entry}`")))?;
                if k == 0 {
                    return Err(FaultSpecError(format!(
                        "hit indices are 1-based, got `@0` in `{entry}`"
                    )));
                }
                Mode::At(k)
            } else if let Some(n) = expr.strip_prefix("1/") {
                let n: u64 = n
                    .trim()
                    .parse()
                    .map_err(|_| FaultSpecError(format!("bad rate in `{entry}`")))?;
                if n == 0 {
                    return Err(FaultSpecError(format!("rate `1/0` in `{entry}`")));
                }
                Mode::Rate(n)
            } else {
                return Err(FaultSpecError(format!(
                    "`{entry}`: expected `1/N` or `@K` (optionally `*L`)"
                )));
            };
            specs.push((name.to_string(), mode, limit));
        }
        if specs.is_empty() {
            return Err(FaultSpecError("no fault points in spec".to_string()));
        }
        Ok(FaultPlan { seed, specs })
    }

    /// The seed the plan was parsed with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The plan's spec string in the grammar [`FaultPlan::parse`] accepts —
    /// unlike the [`Display`](std::fmt::Display) rendering it carries no
    /// seed suffix, so `FaultPlan::parse(&plan.spec_string(), plan.seed())`
    /// reproduces the plan exactly. Corpus entries persist plans this way.
    pub fn spec_string(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (i, (name, mode, limit)) in self.specs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match mode {
                Mode::Rate(n) => write!(out, "{name}=1/{n}").unwrap(),
                Mode::At(k) => write!(out, "{name}=@{k}").unwrap(),
            }
            if *limit != u64::MAX {
                write!(out, "*{limit}").unwrap();
            }
        }
        out
    }

    fn activate(&self) -> ActivePlan {
        ActivePlan {
            seed: self.seed,
            points: self
                .specs
                .iter()
                .map(|(name, mode, limit)| PointState {
                    name: name.clone(),
                    mode: *mode,
                    limit: *limit,
                    hits: AtomicU64::new(0),
                    fired: AtomicU64::new(0),
                })
                .collect(),
        }
    }
}

impl std::fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} (seed {})", self.spec_string(), self.seed)
    }
}

/// FNV-1a over the point name: stable across runs and platforms.
fn hash_name(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64 finalizer: decorrelates `(seed, name, index)` into a uniform
/// 64-bit value.
fn mix(seed: u64, name_hash: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(name_hash.rotate_left(17))
        .wrapping_add(index.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn read_plan() -> std::sync::RwLockReadGuard<'static, Option<ActivePlan>> {
    plan_cell().read().unwrap_or_else(|e| e.into_inner())
}

/// Should an injected fault fire at this point, now?
///
/// Call sites name the point with a static string (see [`points`]) and act
/// on `true` by failing the way that site can fail for real. When no plan
/// is armed this is a single relaxed atomic load.
#[inline]
pub fn point(name: &'static str) -> bool {
    if !ARMED.load(Ordering::Relaxed) {
        return false;
    }
    point_slow(name)
}

#[cold]
fn point_slow(name: &str) -> bool {
    let guard = read_plan();
    let Some(plan) = guard.as_ref() else {
        return false;
    };
    let Some(p) = plan.points.iter().find(|p| p.name == name) else {
        return false;
    };
    // 1-based hit index: unique per evaluation regardless of interleaving.
    let index = p.hits.fetch_add(1, Ordering::Relaxed) + 1;
    let fire = match p.mode {
        Mode::At(k) => index == k,
        Mode::Rate(n) => mix(plan.seed, hash_name(name), index).is_multiple_of(n),
    };
    if !fire {
        return false;
    }
    p.fired
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |f| {
            (f < p.limit).then(|| f + 1)
        })
        .is_ok()
}

/// Arms `plan` process-wide, replacing any previous plan. Prefer [`inject`]
/// in tests; this entry point is for binaries wiring up env-driven injection
/// at startup.
pub fn arm(plan: &FaultPlan) {
    let mut guard = plan_cell().write().unwrap_or_else(|e| e.into_inner());
    *guard = Some(plan.activate());
    ARMED.store(true, Ordering::Release);
}

/// Disarms fault injection process-wide and drops the active plan.
pub fn disarm() {
    ARMED.store(false, Ordering::Release);
    let mut guard = plan_cell().write().unwrap_or_else(|e| e.into_inner());
    *guard = None;
}

/// Total evaluations of `name` under the current plan (0 when disarmed or
/// the point is not in the plan).
pub fn hits(name: &str) -> u64 {
    let guard = read_plan();
    guard
        .as_ref()
        .and_then(|p| p.points.iter().find(|p| p.name == name))
        .map_or(0, |p| p.hits.load(Ordering::Relaxed))
}

/// Total injected firings of `name` under the current plan.
pub fn fired(name: &str) -> u64 {
    let guard = read_plan();
    guard
        .as_ref()
        .and_then(|p| p.points.iter().find(|p| p.name == name))
        .map_or(0, |p| p.fired.load(Ordering::Relaxed))
}

/// RAII handle for a test-owned injection: holds the global exclusivity
/// lock and disarms on drop.
#[derive(Debug)]
pub struct Injection {
    _lock: MutexGuard<'static, ()>,
}

impl Injection {
    /// Total injected firings of `name` so far.
    pub fn fired(&self, name: &str) -> u64 {
        fired(name)
    }

    /// Total evaluations of `name` so far.
    pub fn hits(&self, name: &str) -> u64 {
        hits(name)
    }
}

impl Drop for Injection {
    fn drop(&mut self) {
        disarm();
    }
}

/// Arms `plan` for the duration of the returned guard. Blocks until any
/// other live [`Injection`] is dropped, so fault-injecting tests running in
/// parallel serialize instead of mixing plans.
pub fn inject(plan: &FaultPlan) -> Injection {
    let lock = exclusive().lock().unwrap_or_else(|e| e.into_inner());
    arm(plan);
    Injection { _lock: lock }
}

/// Prefix of the message of every panic a fault point injects
/// (`panic!("injected fault: operator.panic")`).
pub const INJECTED_PANIC_PREFIX: &str = "injected fault:";

/// Installs, once per process, a panic hook that swallows the panics fault
/// points inject — payloads starting with [`INJECTED_PANIC_PREFIX`] — and
/// hands every other panic to the hook installed before it.
///
/// The engines contain an injected panic and recover from it, so the
/// default hook's "thread panicked at" report (and backtrace) would make a
/// successful run look like a crash. The `rewrite` and `fuzz` binaries and
/// the fault-injecting test suites install it.
pub fn silence_injected_panics() {
    static ONCE: OnceLock<()> = OnceLock::new();
    ONCE.get_or_init(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let message = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
            if !message.is_some_and(|m| m.starts_with(INJECTED_PANIC_PREFIX)) {
                prev(info);
            }
        }));
    });
}

/// Environment knob holding the fault spec (see the crate docs for the
/// grammar).
pub const ENV_SPEC: &str = "DACPARA_FAULT_SPEC";
/// Environment knob holding the decimal seed (defaults to 0 when unset).
pub const ENV_SEED: &str = "DACPARA_FAULT_SEED";

/// Arms a plan from `DACPARA_FAULT_SPEC` / `DACPARA_FAULT_SEED` if set.
/// Returns the armed plan, `Ok(None)` when the spec variable is unset or
/// empty, and an error string (suitable for CLI diagnostics) when either
/// variable is malformed.
pub fn arm_from_env() -> Result<Option<FaultPlan>, String> {
    let spec = match std::env::var(ENV_SPEC) {
        Ok(s) if !s.trim().is_empty() => s,
        _ => return Ok(None),
    };
    let seed = match std::env::var(ENV_SEED) {
        Ok(s) => s
            .trim()
            .parse::<u64>()
            .map_err(|_| format!("{ENV_SEED}: `{s}` is not a u64"))?,
        Err(_) => 0,
    };
    let plan = FaultPlan::parse(&spec, seed).map_err(|e| format!("{ENV_SPEC}: {e}"))?;
    arm(&plan);
    Ok(Some(plan))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The point the plan-semantics tests drive by hand.
    const P: &str = points::LOCK_ACQUIRE;

    #[test]
    fn disarmed_points_never_fire() {
        // Hold `inject`'s lock so no sibling test's plan is armed meanwhile.
        let _quiet = exclusive().lock().unwrap_or_else(|e| e.into_inner());
        assert!(!point(P));
        assert_eq!(hits(P), 0);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("", 0).is_err());
        assert!(FaultPlan::parse("lock.acquire", 0).is_err());
        assert!(FaultPlan::parse("lock.acquire=2/3", 0).is_err());
        assert!(FaultPlan::parse("lock.acquire=1/0", 0).is_err());
        assert!(FaultPlan::parse("lock.acquire=@0", 0).is_err());
        assert!(FaultPlan::parse("=1/4", 0).is_err());
        assert!(FaultPlan::parse("lock.acquire=1/4*x", 0).is_err());
        // Names outside `points::ALL`: a typo, and a placeholder.
        for unknown in ["lock.aquire=1/4", "a=@1"] {
            let err = FaultPlan::parse(unknown, 0).unwrap_err();
            assert!(err.to_string().contains("not a fault point"), "{err}");
        }
        for name in points::ALL {
            assert!(FaultPlan::parse(&format!("{name}=@1"), 0).is_ok());
        }
    }

    #[test]
    fn parse_roundtrips_through_display() {
        let plan = FaultPlan::parse(
            "lock.acquire=1/64*3, operator.panic=@200, replace.corrupt=1/1",
            7,
        )
        .unwrap();
        assert_eq!(
            format!("{plan}"),
            "lock.acquire=1/64*3,operator.panic=@200,replace.corrupt=1/1 (seed 7)"
        );
    }

    #[test]
    fn spec_string_round_trips_through_parse() {
        let plan = FaultPlan::parse(
            "lock.acquire=1/64*3, operator.panic=@200,replace.corrupt=1/1",
            7,
        )
        .unwrap();
        assert_eq!(plan.seed(), 7);
        let reparsed = FaultPlan::parse(&plan.spec_string(), plan.seed()).unwrap();
        assert_eq!(reparsed, plan);
    }

    #[test]
    fn at_mode_fires_exactly_once_at_the_index() {
        let plan = FaultPlan::parse("lock.acquire=@3", 0).unwrap();
        let inj = inject(&plan);
        let fires: Vec<bool> = (0..6).map(|_| point(P)).collect();
        assert_eq!(fires, [false, false, true, false, false, false]);
        assert_eq!(inj.fired(P), 1);
        assert_eq!(inj.hits(P), 6);
    }

    #[test]
    fn rate_mode_is_deterministic_in_the_seed() {
        let plan = FaultPlan::parse("lock.acquire=1/4", 42).unwrap();
        let first: Vec<bool> = {
            let _inj = inject(&plan);
            (0..256).map(|_| point(P)).collect()
        };
        let second: Vec<bool> = {
            let _inj = inject(&plan);
            (0..256).map(|_| point(P)).collect()
        };
        assert_eq!(first, second);
        let n = first.iter().filter(|f| **f).count();
        // 1/4 rate over 256 hits: expect ~64, accept a generous band.
        assert!((16..=144).contains(&n), "fired {n}/256");
    }

    #[test]
    fn different_seeds_fire_different_indices() {
        let a: Vec<bool> = {
            let _inj = inject(&FaultPlan::parse("lock.acquire=1/8", 1).unwrap());
            (0..512).map(|_| point(P)).collect()
        };
        let b: Vec<bool> = {
            let _inj = inject(&FaultPlan::parse("lock.acquire=1/8", 2).unwrap());
            (0..512).map(|_| point(P)).collect()
        };
        assert_ne!(a, b);
    }

    #[test]
    fn limit_caps_total_firings() {
        let plan = FaultPlan::parse("lock.acquire=1/1*2", 0).unwrap();
        let inj = inject(&plan);
        let n = (0..10).filter(|_| point(P)).count();
        assert_eq!(n, 2);
        assert_eq!(inj.fired(P), 2);
    }

    #[test]
    fn unknown_points_do_not_fire_and_injection_disarms_on_drop() {
        {
            let _inj = inject(&FaultPlan::parse("lock.acquire=1/1", 0).unwrap());
            assert!(!point(points::OPERATOR_PANIC));
            assert!(point(P));
        }
        assert!(!point(P));
    }

    #[test]
    fn firing_set_is_independent_of_interleaving() {
        // Hammer one point from 4 threads, collect the total fired count,
        // and compare with a serial replay of the same number of hits.
        let plan = FaultPlan::parse("lock.acquire=1/16", 9).unwrap();
        let total_hits = 4 * 1000u64;
        let parallel_fired = {
            let inj = inject(&plan);
            std::thread::scope(|s| {
                for _ in 0..4 {
                    s.spawn(|| {
                        for _ in 0..1000 {
                            point(P);
                        }
                    });
                }
            });
            inj.fired(P)
        };
        let serial_fired = {
            let inj = inject(&plan);
            for _ in 0..total_hits {
                point(P);
            }
            inj.fired(P)
        };
        assert_eq!(parallel_fired, serial_fired);
    }
}
