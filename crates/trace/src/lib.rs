//! First-party tracing and metrics for the forestbal runtimes.
//!
//! The paper's evaluation is per-phase: Figures 15–16 break the one-pass
//! balance into local balance, pattern reversal, query/response and
//! rebalance, with per-phase message volumes. This crate is the
//! observability layer that produces those breakdowns from *either*
//! runtime: spans are stamped through a caller-supplied clock closure
//! (always `Comm::now_ns`), so the same instrumented code records wall
//! time on the threaded `Cluster` and deterministic virtual time under
//! `forestbal-sim`.
//!
//! Design constraints, in order:
//!
//! 1. **Zero external dependencies** — consistent with the offline-build
//!    policy of `shims/`: no `tracing`, no `serde`; the chrome-trace
//!    exporter hand-writes its JSON.
//! 2. **Zero cost when compiled out** — the `record` cargo feature gates
//!    every body; without it all entry points are empty `#[inline]`
//!    functions. With the feature on but no [`Tracer`] installed, each
//!    call is one thread-local lookup and a branch.
//! 3. **No API plumbing** — a thread-local recorder *is* per-rank state,
//!    so the algorithms in `forest`/`comm` need no extra parameters. The
//!    threaded `Cluster` runs each rank on its own OS thread; the
//!    simulator's fiber host (x86_64 Linux) runs every rank on one thread
//!    and swaps the recorder at each switch (`swap_active`).
//!
//! A rank opts in by constructing a [`Tracer`] at the top of its closure
//! and calling [`Tracer::finish`] at the end to harvest its [`RankTrace`].
//! The per-rank traces combine into a [`ClusterTrace`], which exports
//! chrome://tracing JSON ([`ClusterTrace::chrome_trace_json`]), per-phase
//! min/median/max aggregates ([`ClusterTrace::phase_aggregates`]) and
//! merged counters/histograms for the bench `BENCH {...}` lines.
//!
//! Determinism: span trees, counters and histograms depend only on the
//! algorithm (not on message arrival order or the clock), so a threaded
//! and a simulated run of the same deterministic workload produce
//! identical [`RankTrace::structure`]s — a property the differential
//! tests in `forestbal-sim` assert.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod export;
mod tracer;

pub use export::{json_escape, validate_json, ClusterTrace, PhaseAggregate};
pub use tracer::{
    bucket_bounds, bucket_of, counter_add, enabled, hist, instant, span, span_begin, span_end,
    swap_active, Histogram, RankTrace, SavedTrace, Span, TraceEvent, TraceStructure, Tracer,
    HIST_BUCKETS,
};
