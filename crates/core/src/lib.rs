#![warn(missing_docs)]
//! DACPara: divide-and-conquer parallel logic rewriting, with baselines.
//!
//! This crate reproduces the paper's rewriting engines, one [`Engine`]
//! each:
//!
//! * [`Engine::AbcRewrite`] — ABC's `rewrite` (the DAC'06 DAG-aware
//!   algorithm),
//! * [`Engine::Iccad18`] — the ICCAD'18 fine-grained parallel scheme: one
//!   Galois operator per node holding exclusive locks across enumeration,
//!   evaluation *and* replacement,
//! * [`Engine::Dac22`] and [`Engine::Tcad23`] — CPU re-implementations of
//!   the two GPU methods (DAC'22 "NovelRewrite", TCAD'23): parallel
//!   enumeration+evaluation on *static* global information followed by
//!   serial replacement,
//! * [`Engine::DacPara`] — the paper's contribution: level-partitioned
//!   worklists processed in three separate parallel stages, a lock-free
//!   evaluation stage, and a replacement stage that validates stored cuts
//!   and re-evaluates gains on the latest graph (dynamic global
//!   information),
//! * [`Engine::Partition`] — partition-based coarse-grain parallelism
//!   (FPGA'17, the paper's reference \[15\]).
//!
//! [`run_engine`] runs one pass of any engine; [`optimize`] repeats passes
//! until the area stops improving; a [`RewriteSession`] keeps the two
//! resident engines' state across passes. Every pass, whichever entry
//! point starts it, runs [`RewriteConfig::runs`] runs of its engine and
//! reports one [`RewriteStats`].
//!
//! # Example
//!
//! ```
//! use dacpara::{run_engine, Engine, RewriteConfig};
//! use dacpara_circuits::arith;
//!
//! let mut aig = arith::multiplier(6);
//! let before = dacpara_aig::AigRead::num_ands(&aig);
//! let cfg = RewriteConfig::rewrite_op().with_threads(2);
//! let stats = run_engine(&mut aig, Engine::DacPara, &cfg)?;
//! assert!(stats.area_after <= before);
//! # Ok::<(), dacpara_aig::AigError>(())
//! ```

mod config;
mod dacpara_engine;
mod eval;
mod lockstep;
mod partition;
mod pass;
mod recovery;
mod serial;
mod session;
mod speculate;
mod static_info;
mod stats;
pub mod testkit;
pub mod validity;

pub use config::{ConfigError, RewriteConfig};
pub use eval::{
    build_replacement, evaluate_cut, evaluate_node, reevaluate_structure, AndBuilder, Candidate,
    EvalContext, Reevaluation,
};
pub use pass::{optimize, run_engine, Engine, ParseEngineError};
pub use session::RewriteSession;
pub use stats::RewriteStats;
