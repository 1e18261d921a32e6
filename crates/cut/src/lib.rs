#![warn(missing_docs)]
//! 4-feasible cut enumeration for AIGs.
//!
//! A *cut* of node `n` is a set of nodes (*leaves*) such that every path
//! from the primary inputs to `n` passes through a leaf; the *cut function*
//! is `n`'s logic expressed over the leaves. DAG-aware rewriting enumerates
//! the 4-input cuts of every node and evaluates replacement candidates per
//! cut.
//!
//! The enumeration is the classic bottom-up merge: `cuts(n)` is the trivial
//! cut `{n}` plus every feasible union of a fanin-`a` cut with a fanin-`b`
//! cut, filtered for dominance. Truth tables are carried along so no
//! separate simulation pass is needed.
//!
//! [`CutStore`] adds the concurrent memoization and the recursive
//! transitive-fanout invalidation that DACPara's replacement stage relies
//! on. Its sets live in per-thread arena chunks, written once and then
//! only read: a lookup borrows a set as `&[Cut]` for as long as the store
//! is borrowed, with no lock and no reference count, and the store frees
//! memory only through `&mut self` ([`CutStore::compact`], or drop).
//!
//! # Example
//!
//! ```
//! use dacpara_aig::Aig;
//! use dacpara_cut::{CutConfig, CutStore};
//! use dacpara_npn::Tt4;
//!
//! let mut aig = Aig::new();
//! let a = aig.add_input();
//! let b = aig.add_input();
//! let c = aig.add_input();
//! let ab = aig.add_and(a, b);
//! let abc = aig.add_and(ab, c);
//! aig.add_output(abc);
//!
//! let store = CutStore::new(aig.slot_count(), CutConfig::unlimited());
//! let cuts = store.cuts(&aig, abc.node());
//! // {ab, c} and {a, b, c} are both cuts of `abc`.
//! assert!(cuts.iter().any(|cut| cut.len() == 3
//!     && cut.tt() == (Tt4::var(0) & Tt4::var(1) & Tt4::var(2))));
//! ```

mod cut;
mod enumerate;
mod store;

pub use cut::{Cut, MAX_LEAVES};
pub use enumerate::{and_cuts, leaf_cuts, CutConfig};
pub use store::{CutStore, MemoBytes};
