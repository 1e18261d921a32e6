#![warn(missing_docs)]
//! DACPara: divide-and-conquer parallel logic rewriting, with baselines.
//!
//! This crate reproduces the paper's rewriting engines:
//!
//! * [`rewrite_serial`] — ABC's `rewrite` (the DAC'06 DAG-aware algorithm),
//! * [`rewrite_lockstep`] — the ICCAD'18 fine-grained parallel scheme: one
//!   Galois operator per node holding exclusive locks across enumeration,
//!   evaluation *and* replacement,
//! * [`rewrite_static`] — CPU re-implementations of the two GPU methods
//!   (DAC'22 "NovelRewrite", TCAD'23): parallel enumeration+evaluation on
//!   *static* global information followed by serial replacement,
//! * [`rewrite_dacpara`] — the paper's contribution: level-partitioned
//!   worklists processed in three separate parallel stages, a lock-free
//!   evaluation stage, and a replacement stage that validates stored cuts
//!   and re-evaluates gains on the latest graph (dynamic global
//!   information).
//!
//! # Example
//!
//! ```
//! use dacpara::{rewrite_dacpara, RewriteConfig};
//! use dacpara_circuits::arith;
//!
//! let mut aig = arith::multiplier(6);
//! let before = dacpara_aig::AigRead::num_ands(&aig);
//! let stats = rewrite_dacpara(&mut aig, &RewriteConfig::rewrite_op().with_threads(2))?;
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
pub use dacpara_engine::rewrite_dacpara;
pub use eval::{
    build_replacement, evaluate_cut, evaluate_node, reevaluate_structure, AndBuilder, Candidate,
    EvalContext, Reevaluation,
};
pub use lockstep::rewrite_lockstep;
pub use partition::rewrite_partition;
pub use pass::{optimize, run_engine, Engine, ParseEngineError};
pub use serial::rewrite_serial;
pub use session::RewriteSession;
pub use static_info::{rewrite_static, StaticMode};
pub use stats::RewriteStats;
