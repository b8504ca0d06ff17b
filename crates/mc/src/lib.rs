//! Exhaustive model checking of the message protocols (Notify reversal,
//! marker exchange, one-pass balance) over the discrete-event simulator.
//!
//! The seeded-jitter fault model in `forestbal-sim` samples **one**
//! delivery schedule per `(seed, jitter_ns)` pair; a lucky draw can hide
//! an ordering bug forever. This crate instead drives
//! [`SimCluster::run_with_strategy`](forestbal_sim::SimCluster) through
//! **every** message delivery ordering (and, behind a budget flag,
//! duplicate/drop faults) for small P, in the style of compact stateless
//! model checkers for message-passing systems (dslab-mp, Stateright):
//!
//! - each *execution* replays the simulator from the initial state along
//!   a recorded prefix of branch decisions (exploration is deterministic,
//!   so replay is exact),
//! - at every point where more than one action is enabled the checker
//!   records a choice point with a canonical **state hash** (per-rank
//!   delivery histories + fault budgets — the abstract state that fully
//!   determines future behavior), and prunes branches whose state was
//!   already expanded (a sound partial-order reduction: delivery order
//!   *between* ranks never enters any per-rank history),
//! - [`Invariant`]s are checked after every execution: termination
//!   (no simulated deadlock), no orphan messages at quiescence, per-pair
//!   FIFO when configured, plus scenario oracles (bit-identical balanced
//!   forest vs. the serial oracle, exact sender lists vs. the pattern
//!   transpose),
//! - on violation the counterexample is minimized (shortest decision
//!   prefix that still fails) and serialized to a JSON [`Trace`] that
//!   [`replay`]s deterministically for debugging.
//!
//! The [`scenarios`] module wires the checker over the three protocol
//! surfaces, including a mutation test — an intentionally broken Notify
//! variant ([`scenarios::reverse_notify_wildcard_bug`]) — proving the
//! checker catches real reordering defects.
//!
//! # Example
//!
//! ```
//! use forestbal_mc::{scenarios, McConfig};
//!
//! // Every delivery ordering of Notify at P = 2 satisfies the oracle.
//! let report = scenarios::check_notify(
//!     vec![vec![0, 1], vec![0]],
//!     McConfig::default(),
//! );
//! assert!(report.violation.is_none());
//! assert!(report.states_visited > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checker;
mod explore;
pub mod invariant;
pub mod scenarios;
pub mod trace;

pub use checker::{replay, Checker, McConfig, McReport, Violation};
pub use invariant::Invariant;
pub use trace::Trace;
