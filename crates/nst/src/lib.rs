#![warn(missing_docs)]
//! NPN structure library ("NST") for DAG-aware AIG rewriting.
//!
//! The rewriting algorithm of Mishchenko et al. replaces a 4-input cut by a
//! precomputed, logically equivalent subgraph drawn from a library indexed
//! by NPN class. ABC ships this library as an opaque precomputed blob; this
//! crate *generates* an equivalent one at startup:
//!
//! * a hash-consed [`Forest`] of AND gates over the four cut variables,
//! * synthesis strategies ([`shannon`]-style decomposition with XOR
//!   detection, plus [`isop`]-based two-level factoring) producing several
//!   alternative implementations per class,
//! * [`NpnLibrary`] — the resulting 222-class library, every structure
//!   validated by simulation against its class representative.
//!
//! # Example
//!
//! ```
//! use dacpara_npn::{ClassRegistry, Tt4};
//! use dacpara_nst::NpnLibrary;
//!
//! let lib = NpnLibrary::global();
//! assert_eq!(lib.num_classes(), 222);
//! let reg = ClassRegistry::global();
//! let maj = Tt4::from_raw(0xE8E8);
//! for s in lib.structures(reg.class_of(maj)) {
//!     assert_eq!(s.function(), reg.representative(reg.class_of(maj)));
//! }
//! ```

mod factor;
mod forest;
mod isop;
mod library;
mod shannon;

pub use factor::factor_build;
pub use forest::{FLit, Forest};
pub use isop::{isop, Cube};
pub use library::{NpnLibrary, StructIn, Structure, MAX_STRUCTURE_GATES};
pub use shannon::{isop_build, shannon, shannon_split, synthesize_candidates, BuildMemo};
