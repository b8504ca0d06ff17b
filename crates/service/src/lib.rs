//! A request-driven AMR runtime on top of [`forestbal_forest`].
//!
//! Mesh consumers (solvers, visualization, steering frontends) do not
//! adapt a forest one octant at a time — they stream *requests*:
//! "refine here", "coarsen there", "which leaf holds this point",
//! "who is my neighbor". [`ForestService`] owns a [`Forest`] and turns
//! that stream into **epochs**: queries are answered immediately
//! against the immutable snapshot (packed-key binary search, the prior
//! epoch's ghost layer), adaptations are batched, and
//! [`ForestService::commit`] applies the whole batch at once and
//! re-establishes 2:1 balance — *incrementally*, touching only the
//! dirty insulation regions, unless the batch is so large that a full
//! balance is cheaper (the fallback threshold of [`ServiceConfig`]).
//!
//! The paper always balances the whole forest; this crate is an
//! extension of it: balance cost proportional to the size of the
//! change, not the mesh, with the ghost layer and the balance scratch
//! reused across epochs. While a [`forestbal_trace::Tracer`] is armed,
//! every request class records its latency into a `service.*_ns` trace
//! histogram (read by the `local` experiment in `forestbal-bench`);
//! without one, the service reads no clock of its own.
//!
//! The epoch loop is runtime-agnostic: it runs unchanged on the
//! threaded [`forestbal_comm::Cluster`] and the deterministic
//! simulator (`forestbal_sim`), which is what the differential tests
//! and the model-checker scenario exercise.
//!
//! [`Forest`]: forestbal_forest::Forest

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod service;
pub mod workload;

pub use service::{EpochReport, ForestService, Request, Response, ServiceConfig};
pub use workload::{clustered_batch, MovingFront};
