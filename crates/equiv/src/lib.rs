#![warn(missing_docs)]
//! Combinational equivalence checking for AIGs.
//!
//! Every rewriting engine in this workspace must preserve functional
//! equivalence; the paper reports that "the rewritten circuits all passed
//! the equivalence check". This crate provides the full stack needed to
//! replicate that check without external tools:
//!
//! * [`simulate_words`] / [`simulate_bools`] — 64-way bit-parallel
//!   simulation,
//! * [`Solver`] — a CDCL SAT solver (two-watched literals, first-UIP
//!   learning, VSIDS activities, phase saving, Luby restarts),
//! * [`CnfMap`] — Tseitin encoding of an AIG,
//! * [`miter`] / [`check_equivalence`] — the classic CEC flow: random
//!   simulation (fast refutation), then a SAT proof that the miter is
//!   unsatisfiable.
//!
//! [`check_equivalence`] is the only checker, and one [`CecConfig`] value
//! decides everything about a check: the simulation rounds and seed,
//! whether SAT runs at all ([`CecConfig::sat_node_limit`]: only pairs with
//! fewer ANDs in total get a proof, `0` means simulation only) and the
//! conflict budget. The verdict is [`CecResult::Equivalent`] (proven),
//! [`CecResult::Inequivalent`] with a counterexample, or
//! [`CecResult::Undecided`] when simulation passed but no proof was made;
//! how to read `Undecided` is the caller's policy. The default config never
//! skips SAT.
//!
//! # Example
//!
//! ```
//! use dacpara_aig::Aig;
//! use dacpara_equiv::{check_equivalence, CecConfig, CecResult};
//!
//! let mut a = Aig::new();
//! let x = a.add_input();
//! let y = a.add_input();
//! let v = a.add_xor(x, y);
//! a.add_output(v);
//!
//! let mut b = Aig::new();
//! let x2 = b.add_input();
//! let y2 = b.add_input();
//! let w = b.add_xor(y2, x2);
//! b.add_output(w);
//!
//! assert_eq!(check_equivalence(&a, &b, &CecConfig::default()), CecResult::Equivalent);
//! ```

mod cec;
mod cnf;
mod sim;
mod solver;

pub use cec::{check_equivalence, miter, CecConfig, CecResult};
pub use cnf::{assert_lit, model_inputs, CnfMap};
pub use sim::{simulate_bools, simulate_words};
pub use solver::{CLit, SatResult, Solver};
