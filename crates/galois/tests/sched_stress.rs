//! Seeded randomized-interleaving stress for the work-stealing scheduler.
//!
//! The unit tests in `sched.rs` pin the deterministic contracts; this suite
//! hammers the concurrent ones: across many seeds, worker counts, round
//! lengths and injected scheduling jitter, no item may be lost or
//! duplicated, retry counts must be exact, and one pool must survive
//! reset-reuse across rounds. Two cases aim at the range CAS paths: a
//! skewed round whose slow block must be stolen piecemeal, and a worker
//! that never drives, whose whole block its teammates must steal.
//!
//! Everything is derived from explicit seeds (the shim `StdRng` plus a
//! splitmix hash), so a failure reproduces from its printed seed.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::mpsc;
use std::time::Duration;

use dacpara_galois::{run_spmd, ItemOutcome, StealPool};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic per-(seed, item) hash, so every thread agrees on an item's
/// scripted behavior without sharing state.
fn mix(seed: u64, item: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(item)
        .wrapping_add(0x1234_5678_9ABC_DEF1);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// How many times item `i` is scripted to conflict before completing.
fn scripted_retries(seed: u64, i: usize) -> u32 {
    (mix(seed, i as u64) % 5) as u32
}

#[test]
fn randomized_rounds_never_lose_or_duplicate_items() {
    for seed in 0..10u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let workers = rng.gen_range(1..5usize);
        let pool = StealPool::new(workers);
        let mut expected_retries = 0u64;
        for round in 0..4u64 {
            let len = rng.gen_range(0..2500usize);
            let round_seed = mix(seed, round);
            let runs: Vec<AtomicU32> = (0..len).map(|_| AtomicU32::new(0)).collect();
            let done: Vec<AtomicU32> = (0..len).map(|_| AtomicU32::new(0)).collect();
            pool.begin(len);
            let (pool, runs, done) = (&pool, &runs, &done);
            run_spmd(workers, |w| {
                // Per-worker jitter stream: occasional yields perturb the
                // interleaving differently on every (seed, round, worker).
                let mut jitter = StdRng::seed_from_u64(mix(round_seed, w.id as u64));
                pool.drive(w.id, |i, tries| {
                    runs[i].fetch_add(1, Ordering::Relaxed);
                    if jitter.gen_bool(0.05) {
                        std::thread::yield_now();
                    }
                    if tries < scripted_retries(round_seed, i) {
                        ItemOutcome::Retry
                    } else {
                        done[i].fetch_add(1, Ordering::Relaxed);
                        ItemOutcome::Done
                    }
                });
            });
            for i in 0..len {
                let want = 1 + scripted_retries(round_seed, i);
                assert_eq!(
                    runs[i].load(Ordering::Relaxed),
                    want,
                    "seed {seed} round {round} item {i}: wrong run count"
                );
                assert_eq!(
                    done[i].load(Ordering::Relaxed),
                    1,
                    "seed {seed} round {round} item {i}: completed != once"
                );
                expected_retries += u64::from(want - 1);
            }
        }
        // Retry accounting is exact across all reused rounds of the pool.
        assert_eq!(
            pool.stats().retries(),
            expected_retries,
            "seed {seed}: retry counter drifted"
        );
    }
}

/// Runs `f` on its own thread and fails the test if it has not returned
/// within a minute — a hung round is a test failure, not a CI timeout.
fn with_watchdog<T: Send + 'static>(label: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(Duration::from_secs(60)) {
        Ok(out) => {
            handle
                .join()
                .expect("the round's thread exited after reporting");
            out
        }
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("{label}: round hung"),
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(handle.join().expect_err("no result"))
        }
    }
}

#[test]
fn skewed_rounds_steal_the_slow_block_and_run_every_item_once() {
    // Worker 0's block is slow: its first item (the front of its range, so
    // worker 0 runs it) waits until a teammate has run another item of the
    // block, which only a steal can hand it. The teammates drain their own
    // blocks and then split worker 0's range by CAS until it is gone.
    const WORKERS: usize = 3;
    const LEN: usize = 600;
    const SLOW: usize = LEN / WORKERS;
    for seed in 0..4u64 {
        let (runs, done, steals) = with_watchdog("skewed round", move || {
            let pool = StealPool::new(WORKERS);
            let runs: Vec<AtomicU32> = (0..LEN).map(|_| AtomicU32::new(0)).collect();
            let done: Vec<AtomicU32> = (0..LEN).map(|_| AtomicU32::new(0)).collect();
            let stolen = AtomicBool::new(false);
            pool.begin(LEN);
            let (pool_ref, runs_ref, done_ref, stolen) = (&pool, &runs, &done, &stolen);
            run_spmd(WORKERS, |w| {
                pool_ref.drive(w.id, |i, tries| {
                    runs_ref[i].fetch_add(1, Ordering::Relaxed);
                    if i < SLOW {
                        if w.id != 0 {
                            stolen.store(true, Ordering::Release);
                        }
                        while i == 0 && tries == 0 && !stolen.load(Ordering::Acquire) {
                            std::thread::yield_now();
                        }
                        std::thread::sleep(Duration::from_micros(20));
                    }
                    if tries < scripted_retries(seed, i) {
                        ItemOutcome::Retry
                    } else {
                        done_ref[i].fetch_add(1, Ordering::Relaxed);
                        ItemOutcome::Done
                    }
                });
            });
            let steals = pool.stats().steals();
            (runs, done, steals)
        });
        for i in 0..LEN {
            assert_eq!(
                runs[i].load(Ordering::Relaxed),
                1 + scripted_retries(seed, i),
                "seed {seed} item {i}: wrong run count"
            );
            assert_eq!(done[i].load(Ordering::Relaxed), 1, "seed {seed} item {i}");
        }
        assert!(steals > 0, "seed {seed}: no steal was recorded");
    }
}

#[test]
fn a_worker_that_never_drives_strands_nothing() {
    // `begin` seeds every block, so worker 2's share is stolen by the two
    // workers that do drive and the round still ends.
    let (hits, steals) = with_watchdog("idle worker", || {
        let pool = StealPool::new(3);
        let hits: Vec<AtomicU32> = (0..900).map(|_| AtomicU32::new(0)).collect();
        pool.begin(hits.len());
        let (pool_ref, hits_ref) = (&pool, &hits);
        run_spmd(3, |w| {
            if w.id == 2 {
                return;
            }
            pool_ref.drive(w.id, |i, _| {
                hits_ref[i].fetch_add(1, Ordering::Relaxed);
                ItemOutcome::Done
            });
        });
        let steals = pool.stats().steals();
        (hits, steals)
    });
    for (i, h) in hits.iter().enumerate() {
        assert_eq!(h.load(Ordering::Relaxed), 1, "item {i}");
    }
    assert!(steals > 0, "worker 2's block was never stolen");
}

#[test]
fn pool_reset_reuse_interleaves_empty_and_skewed_rounds() {
    // Alternating empty, tiny, and heavily skewed rounds on one pool: the
    // begin/drain lifecycle must hold regardless of the previous round's
    // shape, and retry queues must come back empty every time.
    let pool = StealPool::new(3);
    let lens = [0usize, 1, 777, 0, 2, 1500, 3, 0, 64];
    for (round, &len) in lens.iter().enumerate() {
        let hits: Vec<AtomicU32> = (0..len).map(|_| AtomicU32::new(0)).collect();
        pool.begin(len);
        let (pool, hits) = (&pool, &hits);
        run_spmd(3, |w| {
            pool.drive(w.id, |i, tries| {
                hits[i].fetch_add(1, Ordering::Relaxed);
                // Skew: the first eighth of each round conflicts twice.
                if i < len / 8 && tries < 2 {
                    ItemOutcome::Retry
                } else {
                    ItemOutcome::Done
                }
            });
        });
        for (i, h) in hits.iter().enumerate() {
            let want = if i < len / 8 { 3 } else { 1 };
            assert_eq!(h.load(Ordering::Relaxed), want, "round {round} item {i}");
        }
    }
}

#[test]
fn retry_storm_with_blocking_fallback_terminates() {
    // Every item conflicts until the engine-style ceiling, at which point
    // the operator resolves it inline — the pattern the rewriting engines
    // use. The round must terminate with exact completion counts.
    use dacpara_galois::MAX_SCHED_RETRIES;
    let pool = StealPool::new(4);
    let len = 400usize;
    let completed: Vec<AtomicU32> = (0..len).map(|_| AtomicU32::new(0)).collect();
    pool.begin(len);
    let (pool, completed) = (&pool, &completed);
    run_spmd(4, |w| {
        pool.drive(w.id, |i, tries| {
            if tries < MAX_SCHED_RETRIES {
                ItemOutcome::Retry
            } else {
                completed[i].fetch_add(1, Ordering::Relaxed);
                ItemOutcome::Done
            }
        });
    });
    for (i, c) in completed.iter().enumerate() {
        assert_eq!(c.load(Ordering::Relaxed), 1, "item {i}");
    }
    assert_eq!(
        pool.stats().retries(),
        u64::from(MAX_SCHED_RETRIES) * len as u64
    );
}
