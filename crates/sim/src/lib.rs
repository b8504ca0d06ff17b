//! A deterministic discrete-event cluster simulator.
//!
//! The threaded `forestbal_comm::Cluster` runs one OS thread per rank
//! with real parallelism, which caps experiments at a few hundred ranks
//! and makes interleavings nondeterministic. This crate provides
//! [`SimCluster`]: the *same* [`Comm`](forestbal_comm::Comm) interface,
//! but ranks execute one at a time under a discrete-event scheduler and
//! all communication advances a *virtual* clock:
//!
//! - every point-to-point message and collective is priced by a
//!   pluggable [`NetworkModel`]: the default [`NetworkSpec::Flat`]
//!   charges `α + β·bytes` per message and `⌈log₂P⌉·α + β·(total
//!   payload)` per collective (the classic tree/recursive-doubling
//!   model); [`NetworkSpec::FatTree`] distinguishes node-local from
//!   remote traffic and adds per-link shared-bandwidth contention,
//! - ties are resolved deterministically by `(virtual time, rank id,
//!   sequence number)`, so a seeded run is bit-identical every time,
//! - seeded per-message delay jitter ([`SimConfig::jitter_ns`]) injects
//!   message reordering faults without giving up reproducibility,
//! - a [`DeliveryStrategy`] hook replaces time-ordered delivery with an
//!   externally chosen order — the executor interface behind the
//!   `forestbal-mc` exhaustive model checker,
//! - rank coroutines are hosted by userspace fibers on x86_64 Linux,
//!   which make paper-scale virtual runs at P = 112,128 ranks feasible
//!   in one process, and by one OS thread per rank on every other
//!   platform — chosen by the platform, with bit-identical results; the
//!   two hosts share one rank body, one mailbox and one shutdown path.
//!
//! Because the paper's algorithms are written against the `Comm` trait,
//! they run unmodified here at P = 4096–65536 on one machine — which is
//! what lets the benches reproduce the Notify-vs-Naive-vs-Ranges scaling
//! behavior of §V and the balance scaling of §VI at Jaguar-like rank
//! counts. Phase timings taken through [`Comm::now_ns`]
//! (forestbal-forest's `BalanceTimings`) automatically report virtual
//! cluster time under this runtime.
//!
//! # Example
//!
//! ```
//! use forestbal_comm::{reverse_notify, Comm};
//! use forestbal_sim::{SimCluster, SimConfig};
//!
//! let out = SimCluster::run(64, SimConfig::default(), |ctx| {
//!     let receivers = vec![(ctx.rank() + 1) % ctx.size()];
//!     reverse_notify(ctx, &receivers)
//! });
//! assert_eq!(out.results[1], vec![0]);
//! assert!(out.makespan_ns() > 0); // virtual, not wall-clock, time
//! ```
//!
//! [`Comm::now_ns`]: forestbal_comm::Comm::now_ns

#![warn(missing_docs)]
// Each site opts in with `#[allow(unsafe_code)]` beside its `// Safety:`
// argument: the fiber host module, the rank context's mailbox access, the
// rank-body lifetime erasure and the thread host's `Send` wrapper.
#![deny(unsafe_code)]

mod config;
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod fiber;
mod host;
pub mod net;
mod runtime;
pub mod strategy;

pub use config::{SimConfig, SimConfigBuilder};
pub use net::{
    FatTree, FatTreeParams, FlatAlphaBeta, NetModel, NetStats, NetworkModel, NetworkSpec,
};
pub use runtime::{SimCluster, SimCtx, SimRunOutput};
pub use strategy::{Candidate, Choice, Delivered, DeliveryStrategy, MsgMeta, Op};
