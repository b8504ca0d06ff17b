//! A distributed forest of linear octrees with parallel 2:1 balance.
//!
//! This crate hosts the parallel side of the paper: a forest of octrees
//! connected through a brick [`connectivity`], stored as per-tree sorted
//! leaf arrays partitioned across the ranks of a simulated cluster
//! ([`forestbal_comm`]), with refinement, coarsening, space-filling-curve
//! [`partition`]ing, and the one-pass parallel 2:1 [`balance`] algorithm
//! of §II-B in both the *old* (raw response octants, full-partition
//! rebalance with auxiliary octants) and *new* (seed octants, per-query
//! reconstruction) variants.
//!
//! [`serial`] provides a single-address-space forest balance used as the
//! ground truth in tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod balance;
pub mod codec;
pub mod connectivity;
pub mod export;
pub mod forest;
pub mod ghost;
pub mod incremental;
pub mod neighbors;
pub mod nodes;
pub mod partition;
mod reach;
pub mod ripple;
pub mod search;
pub mod serial;
pub mod store;

pub use balance::{BalanceReport, BalanceTimings, BalanceVariant, ReversalScheme};
pub use connectivity::{BrickConnectivity, TreeId};
pub use forest::{Forest, GlobalPos};
pub use ghost::GhostLayer;
pub use incremental::{AdaptBatch, DirtySet, IncrementalReport};
pub use neighbors::FaceNeighbor;
pub use nodes::Nodes;
pub use ripple::RippleStats;
pub use serial::serial_forest_balance;
pub use store::{LeafSlice, LeafStore};
