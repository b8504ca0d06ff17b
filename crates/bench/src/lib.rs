//! Benchmark harnesses reproducing the IPDPS'12 evaluation.
//!
//! [`experiments`] holds one driver per paper table/figure, each
//! returning [`report::BenchRecord`] rows; the `timings` binary (named
//! after p4est's `timings` example, which produced the paper's numbers)
//! prints them as `BENCH` lines and as tables projected from the same
//! rows.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod report;
