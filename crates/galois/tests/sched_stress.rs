//! Seeded randomized-interleaving stress for the work-stealing scheduler.
//!
//! The unit tests in `sched.rs` pin the deterministic contracts; this suite
//! hammers the concurrent ones: across many seeds, worker counts, round
//! lengths and injected scheduling jitter, no item may be lost or
//! duplicated, and one pool must survive reuse across rounds. Two cases
//! aim at the range CAS paths: a skewed round whose slow block must be
//! stolen piecemeal, and a worker that never drives, whose whole block its
//! teammates must steal.
//!
//! Everything is derived from explicit seeds (the shim `StdRng` plus a
//! splitmix hash), so a failure reproduces from its printed seed.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::mpsc;
use std::time::Duration;

use dacpara_galois::{run_spmd, StealPool};
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

#[test]
fn randomized_rounds_never_lose_or_duplicate_items() {
    for seed in 0..10u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let workers = rng.gen_range(1..5usize);
        let pool = StealPool::new(workers);
        for round in 0..4u64 {
            let len = rng.gen_range(0..2500usize);
            let round_seed = mix(seed, round);
            let runs: Vec<AtomicU32> = (0..len).map(|_| AtomicU32::new(0)).collect();
            pool.begin(len);
            let (pool, runs) = (&pool, &runs);
            run_spmd(workers, |w| {
                // Per-worker jitter stream: occasional yields perturb the
                // interleaving differently on every (seed, round, worker).
                let mut jitter = StdRng::seed_from_u64(mix(round_seed, w.id as u64));
                pool.drive(w.id, |i| {
                    runs[i].fetch_add(1, Ordering::Relaxed);
                    if jitter.gen_bool(0.05) {
                        std::thread::yield_now();
                    }
                });
            });
            for (i, r) in runs.iter().enumerate() {
                assert_eq!(
                    r.load(Ordering::Relaxed),
                    1,
                    "seed {seed} round {round} item {i}: ran != once"
                );
            }
        }
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
        let (runs, steals) = with_watchdog("skewed round", move || {
            let pool = StealPool::new(WORKERS);
            let runs: Vec<AtomicU32> = (0..LEN).map(|_| AtomicU32::new(0)).collect();
            let stolen = AtomicBool::new(false);
            pool.begin(LEN);
            let (pool_ref, runs_ref, stolen) = (&pool, &runs, &stolen);
            run_spmd(WORKERS, |w| {
                let mut jitter = StdRng::seed_from_u64(mix(seed, w.id as u64));
                pool_ref.drive(w.id, |i| {
                    runs_ref[i].fetch_add(1, Ordering::Relaxed);
                    if i < SLOW {
                        if w.id != 0 {
                            stolen.store(true, Ordering::Release);
                        }
                        while i == 0 && !stolen.load(Ordering::Acquire) {
                            std::thread::yield_now();
                        }
                        std::thread::sleep(Duration::from_micros(jitter.gen_range(10..40)));
                    }
                });
            });
            let steals = pool.steals();
            (runs, steals)
        });
        for (i, r) in runs.iter().enumerate() {
            assert_eq!(r.load(Ordering::Relaxed), 1, "seed {seed} item {i}");
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
            pool_ref.drive(w.id, |i| {
                hits_ref[i].fetch_add(1, Ordering::Relaxed);
            });
        });
        let steals = pool.steals();
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
    // begin/drive lifecycle must hold regardless of the previous round's
    // shape.
    let pool = StealPool::new(3);
    let lens = [0usize, 1, 777, 0, 2, 1500, 3, 0, 64];
    for (round, &len) in lens.iter().enumerate() {
        let hits: Vec<AtomicU32> = (0..len).map(|_| AtomicU32::new(0)).collect();
        pool.begin(len);
        let (pool, hits) = (&pool, &hits);
        run_spmd(3, |w| {
            pool.drive(w.id, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
                // Skew: the first eighth of each round is slow.
                if i < len / 8 {
                    std::thread::yield_now();
                }
            });
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "round {round} item {i}");
        }
    }
}
