#![warn(missing_docs)]
//! A miniature Galois-style runtime for amorphous data parallelism.
//!
//! The paper implements both ICCAD'18's single-operator rewriting and
//! DACPara on the Galois system, whose relevant ingredients are:
//!
//! * **speculative parallelism with per-element exclusive locks** — an
//!   activity acquires every element it will touch; a conflict *aborts* the
//!   activity, discarding all of its computation ([`LockTable`]),
//! * **conflict accounting** — the cost model behind the paper's Fig. 2 is
//!   exactly "how much computation do aborts discard" ([`SpecStats`]). The
//!   ledger holds the counts; its owner publishes them to the obs counters
//!   once its run is over, and only the per-event trace instants and the
//!   latency histograms are recorded at the leaf,
//! * **worklist execution** — a team of workers draining shared worklists
//!   ([`run_spmd`], [`parallel_for`]),
//! * **work stealing** — one packed index range per worker, claimed from
//!   the front and split by CAS when a teammate steals, so a slow block
//!   spreads over the team instead of holding one worker at the end of a
//!   round ([`StealPool`], which counts its steals). A conflicted activity
//!   retries in place; the scheduler never sees it.
//!
//! # Example
//!
//! ```
//! use dacpara_galois::{parallel_for, LockTable, SpecStats};
//! use std::sync::atomic::{AtomicU32, Ordering};
//!
//! // Increment 100 shared cells, each protected by a Galois lock; the
//! // conflicts land in one ledger.
//! let cells: Vec<AtomicU32> = (0..100).map(|_| AtomicU32::new(0)).collect();
//! let locks = LockTable::new(100);
//! let spec = SpecStats::new();
//! let items: Vec<u32> = (0..100).collect();
//! parallel_for(4, &items, |w, &i| loop {
//!     if let Some(_guard) = locks.try_acquire(w.id as u32 + 1, &mut [i], &spec) {
//!         cells[i as usize].fetch_add(1, Ordering::Relaxed);
//!         break;
//!     }
//!     std::hint::spin_loop();
//! });
//! assert!(cells.iter().all(|c| c.load(Ordering::Relaxed) == 1));
//! ```

mod locks;
mod padded;
mod sched;
mod spmd;
mod stats;

pub use locks::{LockSet, LockTable};
pub use padded::CachePadded;
pub use sched::StealPool;
pub use spmd::{parallel_for, run_spmd, Worker};
pub use stats::{SpecSnapshot, SpecStats};
