//! A simulated distributed-memory runtime.
//!
//! The paper's parallel algorithms are formulated against MPI. Rust MPI
//! bindings are immature, so this crate reproduces the *semantics* the
//! algorithms rely on — asymmetric point-to-point messages, `Allgather`/
//! `Allgatherv` collectives, barriers — behind the runtime-independent
//! [`Comm`] trait. The threaded [`Cluster`] runtime here runs ranks as OS
//! threads with messages as channel sends; the `forestbal-sim` crate
//! implements the same trait with a deterministic discrete-event
//! scheduler under virtual time, so every algorithm written against
//! [`Comm`] runs unmodified on either. Every rank records message and
//! byte counters so benchmarks can compare communication volumes exactly
//! as the paper does.
//!
//! [`reversal`] implements the three schemes of §V for reversing an
//! asymmetric communication pattern (determining one's senders from one's
//! receivers): the `Allgatherv`-based naive scheme (Figure 12), the
//! `Ranges` encoding, and the divide-and-conquer `Notify` algorithm
//! (Figure 13) including its non-power-of-two redirection rule.
//!
//! # Example
//!
//! ```
//! use forestbal_comm::{reverse_notify, Cluster, Comm};
//!
//! // Five ranks; each addresses its successor, plus rank 0 -> rank 3.
//! let out = Cluster::run(5, |ctx| {
//!     let mut receivers = vec![(ctx.rank() + 1) % 5];
//!     if ctx.rank() == 0 {
//!         receivers.push(3);
//!     }
//!     // Learn who will send to me using only point-to-point messages.
//!     reverse_notify(ctx, &receivers)
//! });
//! assert_eq!(out.results[1], vec![0]);
//! assert_eq!(out.results[3], vec![0, 2]);
//! assert!(out.total_stats().messages_sent > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod comm;
pub mod reversal;
pub mod share;

pub use cluster::{Cluster, RankCtx};
pub use comm::{
    install_quiet_panic_hook, Comm, CommStats, RunOutput, ShutdownSignal, TagStats, TAG_SLOTS,
};
pub use reversal::{
    is_notify_tag, ranges_expansion, reverse_naive, reverse_notify, reverse_ranges,
};
pub use share::shared_decode;
