//! SPMD execution: a fixed team of workers marching through barriers.
//!
//! The parallel engines run one team of threads per rewriting pass. Each
//! worker executes the same closure; level worklists and the three operator
//! stages are separated by barriers inside the closure. This avoids both
//! per-stage thread-spawn overhead and any `unsafe` lifetime laundering — a
//! `std::thread::scope` fits naturally because the team lives exactly as
//! long as the pass.
//!
//! A worker that unwinds breaks the team barrier on its way out, so its
//! teammates panic out of [`Worker::barrier`] instead of waiting for it
//! forever, and the scope join re-raises the panic.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::sched::StealPool;

/// Handle given to each SPMD worker.
pub struct Worker<'a> {
    /// This worker's index, `0..num_threads`.
    pub id: usize,
    /// Team size.
    pub num_threads: usize,
    barrier: &'a TeamBarrier,
}

impl Worker<'_> {
    /// Blocks until every worker in the team reaches this point. The last
    /// worker to arrive runs `step`, the point's serial work, once, before
    /// it releases the team; the other workers' steps are dropped unrun.
    ///
    /// # Panics
    ///
    /// Panics if a teammate panicked, before or while this worker waits:
    /// the team can never meet again. A panic in `step` breaks the team.
    pub fn barrier(&self, step: impl FnOnce()) {
        self.barrier.wait(step);
    }
}

/// How long a waiter polls the barrier before it parks. A worker that
/// leaves [`crate::StealPool::drive`] early usually waits only for its
/// teammates' last items; parking for that costs a futex round trip and,
/// on a virtual machine, an idle vCPU's wake-up, whose latency swings with
/// the host's load. Longer waits still park.
const SPIN_FOR: Duration = Duration::from_micros(100);

/// A reusable team barrier that a panicking worker can break.
struct TeamBarrier {
    state: Mutex<BarrierState>,
    wake: Condvar,
    /// Bumped (under the lock) on every release and break: what a spinning
    /// waiter polls instead of the locked state.
    changes: AtomicU64,
    team: usize,
}

struct BarrierState {
    /// Workers waiting in the current generation.
    arrived: usize,
    /// Bumped each time the whole team has arrived.
    generation: u64,
    /// Set when a worker unwound; no generation can complete after that.
    broken: bool,
}

impl TeamBarrier {
    fn new(team: usize) -> TeamBarrier {
        TeamBarrier {
            state: Mutex::new(BarrierState {
                arrived: 0,
                generation: 0,
                broken: false,
            }),
            wake: Condvar::new(),
            changes: AtomicU64::new(0),
            team,
        }
    }

    /// The barrier state. A panicking step poisons the lock, but it is
    /// still sound to reuse: every update is a single field store.
    fn state(&self) -> MutexGuard<'_, BarrierState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Waits for the whole team; the last arrival runs `step`, then wakes the
    /// team. A waiter polls for [`SPIN_FOR`] before it parks.
    fn wait(&self, step: impl FnOnce()) {
        let mut state = self.state();
        let generation = state.generation;
        if !state.broken {
            state.arrived += 1;
            if state.arrived == self.team {
                step();
                state.arrived = 0;
                state.generation += 1;
                self.changes.fetch_add(1, Ordering::Release);
                self.wake.notify_all();
                return;
            }
            let seen = self.changes.load(Ordering::Relaxed);
            drop(state);
            self.spin_while_unchanged(seen);
            state = self.state();
            while state.generation == generation && !state.broken {
                state = self
                    .wake
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
        let passed = state.generation != generation;
        drop(state);
        assert!(passed, "an SPMD teammate panicked");
    }

    /// Polls `changes` until it moves past `seen` or [`SPIN_FOR`] runs out:
    /// a few bare spins, then yields so an oversubscribed teammate can run.
    fn spin_while_unchanged(&self, seen: u64) {
        let start = Instant::now();
        for spins in 0u32.. {
            if self.changes.load(Ordering::Acquire) != seen {
                return;
            }
            if spins < 64 {
                std::hint::spin_loop();
            } else if start.elapsed() < SPIN_FOR {
                std::thread::yield_now();
            } else {
                return;
            }
        }
    }

    /// Marks the barrier broken and wakes every waiter.
    fn break_team(&self) {
        let mut state = self.state();
        state.broken = true;
        self.changes.fetch_add(1, Ordering::Release);
        drop(state);
        self.wake.notify_all();
    }
}

/// Breaks the team barrier if the worker holding it unwinds.
struct BreakOnUnwind<'a>(&'a TeamBarrier);

impl Drop for BreakOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.break_team();
        }
    }
}

impl std::fmt::Debug for Worker<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Worker({}/{})", self.id, self.num_threads)
    }
}

/// Runs `f` on `num_threads` workers and waits for all of them.
///
/// # Example
///
/// ```
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// use dacpara_galois::run_spmd;
///
/// let sum = AtomicUsize::new(0);
/// run_spmd(4, |w| {
///     sum.fetch_add(w.id, Ordering::Relaxed);
///     w.barrier(|| assert_eq!(sum.load(Ordering::Relaxed), 6));
/// });
/// assert_eq!(sum.load(Ordering::Relaxed), 0 + 1 + 2 + 3);
/// ```
///
/// # Panics
///
/// Panics if `num_threads` is zero, or propagates a worker panic. A worker
/// panic also breaks the team barrier, so teammates blocked in (or later
/// reaching) [`Worker::barrier`] panic instead of hanging.
pub fn run_spmd<F>(num_threads: usize, f: F)
where
    F: Fn(&Worker<'_>) + Sync,
{
    assert!(num_threads > 0, "need at least one worker");
    let barrier = TeamBarrier::new(num_threads);
    if num_threads == 1 {
        // Fast path, also keeps single-threaded debugging simple.
        let _obs = dacpara_obs::span_cat("worker", "runtime");
        f(&Worker {
            id: 0,
            num_threads: 1,
            barrier: &barrier,
        });
        return;
    }
    std::thread::scope(|s| {
        for id in 0..num_threads {
            let barrier = &barrier;
            let f = &f;
            s.spawn(move || {
                let _break = BreakOnUnwind(barrier);
                {
                    // One lifetime span per worker: each thread gets its
                    // own lane in the exported trace.
                    let _obs = dacpara_obs::span!("worker", id = id);
                    f(&Worker {
                        id,
                        num_threads,
                        barrier,
                    });
                }
                // Flush before the closure returns: `scope` unblocks as
                // soon as the closure's result lands, which can be before
                // the thread's TLS destructors (the backstop flush) run —
                // an exporter called right after `run_spmd` would miss
                // this worker's lane.
                dacpara_obs::flush_thread();
            });
        }
    });
}

/// Convenience: applies `f` to every item of `items` on a team of
/// `num_threads` workers, scheduled by a [`StealPool`].
///
/// # Example
///
/// ```
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// use dacpara_galois::parallel_for;
///
/// let data: Vec<usize> = (0..1000).collect();
/// let sum = AtomicUsize::new(0);
/// parallel_for(4, &data, |_, &x| {
///     sum.fetch_add(x, Ordering::Relaxed);
/// });
/// assert_eq!(sum.load(Ordering::Relaxed), 499_500);
/// ```
pub fn parallel_for<T, F>(num_threads: usize, items: &[T], f: F)
where
    T: Sync,
    F: Fn(&Worker<'_>, &T) + Sync,
{
    if items.is_empty() {
        return;
    }
    let threads = num_threads.max(1);
    let pool = StealPool::new(threads);
    pool.begin(items.len());
    let (pool, f) = (&pool, &f);
    run_spmd(threads, |w| {
        pool.drive(w.id, |i| f(w, &items[i]));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn barrier_step_runs_once_and_every_worker_reads_its_write() {
        const THREADS: usize = 4;
        const ROUNDS: usize = 50;
        let steps = AtomicUsize::new(0);
        let published = AtomicUsize::new(0);
        let (steps, published) = (&steps, &published);
        run_spmd(THREADS, |w| {
            for round in 1..=ROUNDS {
                w.barrier(|| {
                    steps.fetch_add(1, Ordering::Relaxed);
                    published.store(round, Ordering::Relaxed);
                });
                // Relaxed on purpose: the barrier itself must order the
                // step's write before every worker's read.
                assert_eq!(published.load(Ordering::Relaxed), round);
            }
        });
        assert_eq!(steps.load(Ordering::Relaxed), ROUNDS);
    }

    #[test]
    fn waiters_that_outlast_the_spin_park_and_are_still_released() {
        // Even rounds' steps outlast `SPIN_FOR`, so the other workers stop
        // polling and park on the condvar; odd rounds' steps release them
        // while they still poll.
        let steps = AtomicUsize::new(0);
        let steps = &steps;
        run_spmd(3, |w| {
            for round in 0..6 {
                w.barrier(|| {
                    if round % 2 == 0 {
                        std::thread::sleep(SPIN_FOR * 5);
                    }
                    steps.fetch_add(1, Ordering::Relaxed);
                });
                assert_eq!(steps.load(Ordering::Relaxed), round + 1);
            }
        });
    }

    #[test]
    fn single_thread_fast_path() {
        let flag = AtomicUsize::new(0);
        run_spmd(1, |w| {
            assert_eq!(w.id, 0);
            w.barrier(|| flag.store(1, Ordering::Relaxed));
            assert_eq!(
                flag.load(Ordering::Relaxed),
                1,
                "the lone worker runs the step"
            );
        });
    }

    #[test]
    fn parallel_for_visits_everything_once() {
        let data: Vec<usize> = (0..5_000).collect();
        let hits: Vec<AtomicU64> = (0..5_000).map(|_| AtomicU64::new(0)).collect();
        let hits_ref = &hits;
        parallel_for(3, &data, |_, &x| {
            hits_ref[x].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_for_on_empty_slice_is_fine() {
        let data: Vec<u32> = Vec::new();
        parallel_for(4, &data, |_, _| panic!("must not be called"));
    }

    #[test]
    fn a_panic_in_drive_breaks_the_barrier_instead_of_hanging() {
        // Item 0 is the front of worker 0's block, so worker 0 panics inside
        // `drive`; worker 1 steals what is left of worker 0's block, reaches
        // the barrier, and must see it break rather than wait for worker 0
        // forever.
        let (tx, rx) = mpsc::channel();
        let handle = std::thread::spawn(move || {
            let pool = StealPool::new(2);
            pool.begin(100);
            let pool = &pool;
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_spmd(2, |w| {
                    pool.drive(w.id, |i| assert_ne!(i, 0, "operator bug"));
                    w.barrier(|| {});
                });
            }));
            let _ = tx.send(outcome.is_err());
        });
        match rx.recv_timeout(Duration::from_secs(30)) {
            Ok(panicked) => {
                handle
                    .join()
                    .expect("the team's thread exited after reporting");
                assert!(panicked, "the worker panic must propagate");
            }
            Err(_) => panic!("run_spmd hung at the barrier after a worker panic"),
        }
    }

    #[test]
    fn a_panic_in_the_step_breaks_the_barrier_instead_of_hanging() {
        // The step runs under the barrier lock, so its panic poisons that
        // lock; the two workers waiting on it must still wake and panic.
        let (tx, rx) = mpsc::channel();
        let handle = std::thread::spawn(move || {
            let outcome = std::panic::catch_unwind(|| {
                run_spmd(3, |w| {
                    w.barrier(|| panic!("step bug"));
                    w.barrier(|| {});
                });
            });
            let _ = tx.send(outcome.is_err());
        });
        match rx.recv_timeout(Duration::from_secs(30)) {
            Ok(panicked) => {
                handle
                    .join()
                    .expect("the team's thread exited after reporting");
                assert!(panicked, "the step panic must propagate");
            }
            Err(_) => panic!("run_spmd hung at the barrier after a step panic"),
        }
    }
}
