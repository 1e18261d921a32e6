#![warn(missing_docs)]
//! And-Inverter Graph (AIG) infrastructure for the DACPara reproduction.
//!
//! An AIG is a directed acyclic graph whose internal nodes are two-input AND
//! gates and whose edges carry an optional complement (inverter) attribute.
//! This crate provides:
//!
//! * [`Lit`] / [`NodeId`] — complement-carrying edge literals and node handles,
//! * [`Aig`] — a single-threaded AIG with structural hashing, fanout lists,
//!   reference counts, node-slot recycling with generation counters, DAG-aware
//!   node replacement ([`Aig::replace`]), level tracking and an invariant
//!   checker ([`Aig::check`]),
//! * [`concurrent::ConcurrentAig`] — a fixed-capacity variant whose node
//!   fields are readable without locks (atomics) and whose mutations follow
//!   the Galois-style lock discipline used by the parallel rewriting engines,
//! * [`AigRead`] — the read-only view trait shared by both representations so
//!   that cut enumeration and rewriting evaluation are written once,
//! * MFFC computation on a thread-local scratch ([`mffc`]),
//! * AIGER reading and writing, ASCII and binary (see the [`aiger`]
//!   module), plus a structural BLIF writer/reader (the [`blif`] module).
//!
//! # Example
//!
//! ```
//! use dacpara_aig::{Aig, AigRead};
//!
//! let mut aig = Aig::new();
//! let a = aig.add_input();
//! let b = aig.add_input();
//! let ab = aig.add_and(a, b);
//! aig.add_output(!ab); // a NAND b
//! assert_eq!(aig.num_ands(), 1);
//! aig.check().expect("structurally sound");
//! ```

mod aig;
pub mod aiger;
pub mod blif;
mod check;
pub mod concurrent;
mod error;
pub mod export;
mod lit;
pub mod mffc;
mod node;
mod rebuild;
mod topo;
mod view;

pub use aig::Aig;
pub use check::same_interface;
pub use error::AigError;
pub use lit::{Lit, NodeId};
pub use node::NodeKind;
pub use rebuild::RebuildPlan;
pub use topo::{topo_ands, transitive_fanin, transitive_fanout_ids};
pub use view::AigRead;
