//! # forestbal — forest-of-octrees AMR with low-cost parallel 2:1 balance
//!
//! A Rust reproduction of *Isaac, Burstedde, Ghattas: "Low-Cost Parallel
//! Algorithms for 2:1 Octree Balance", IPDPS 2012* — the p4est balance
//! paper. The workspace implements the full stack the paper describes:
//! octant arithmetic and linear octrees ([`octant`]), the balance
//! algorithms themselves ([`core`]: preclusion/`Reduce`, old and new
//! subtree balance, the λ functions of Table II, seed octants), a
//! simulated message-passing runtime with the `Notify` pattern-reversal
//! collective ([`comm`]), a distributed forest with refinement,
//! partitioning and the one-pass parallel balance ([`forest`]), and the
//! paper's evaluation workloads ([`mesh`]).
//!
//! ## Quickstart
//!
//! Serial use — balance an adapted quadtree:
//!
//! ```
//! use forestbal::core::{balance_subtree_new, Condition};
//! use forestbal::octant::Octant;
//!
//! // A single deep leaf in the corner of a quadtree...
//! let root = Octant::<2>::root();
//! let leaf = root.child(0).child(0).child(0).child(0);
//!
//! // ...balanced under the full (corner) condition.
//! let mesh = balance_subtree_new(&root, &[leaf], Condition::full(2));
//! assert!(mesh.contains(&leaf));
//! assert!(forestbal::octant::is_complete(&mesh, &root));
//! // 2:1 everywhere: sizes grow gradually away from the fine corner.
//! ```
//!
//! Parallel use — a forest across simulated ranks:
//!
//! ```
//! use forestbal::comm::Cluster;
//! use forestbal::core::Condition;
//! use forestbal::forest::{BalanceVariant, BrickConnectivity, Forest, ReversalScheme};
//! use std::sync::Arc;
//!
//! let conn = Arc::new(BrickConnectivity::<2>::new([2, 1], [false, false]));
//! let out = Cluster::run(3, |ctx| {
//!     let mut f = Forest::new_uniform(Arc::clone(&conn), ctx, 2);
//!     // Refine toward the shared tree boundary...
//!     f.refine(true, 5, |t, o| t == 0 && o.coords[0] + o.len() == 1 << 24);
//!     // ...then restore the 2:1 condition across ranks and trees.
//!     f.balance(
//!         ctx,
//!         Condition::full(2),
//!         BalanceVariant::New,
//!         ReversalScheme::Notify,
//!     );
//!     f.num_global(ctx)
//! });
//! // Every rank agrees on the balanced mesh size.
//! assert!(out.results.windows(2).all(|w| w[0] == w[1]));
//! ```
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`octant`] | `forestbal-octant` | octant relations (Table I), Morton order, linearize/complete |
//! | [`core`] | `forestbal-core` | §III preclusion + subtree balance, §IV λ + seeds, ripple oracle |
//! | [`comm`] | `forestbal-comm` | threaded MPI-style runtime, `Comm` trait, §V Naive/Ranges/Notify reversal |
//! | [`forest`] | `forestbal-forest` | brick connectivity, distributed forest, one-pass parallel balance |
//! | [`mesh`] | `forestbal-mesh` | fractal (Fig. 14/15) and ice-sheet (Fig. 16/17) workloads |
//! | [`sim`] | `forestbal-sim` | deterministic discrete-event simulator: same `Comm` API, virtual time, pluggable `NetworkModel`, P up to 112,128 |
//! | [`service`] | `forestbal-service` | request-driven epoch runtime: snapshot queries, batched edits, incremental rebalance |
//! | [`trace`] | `forestbal-trace` | per-rank spans/counters/histograms, chrome-trace (Perfetto) export |
//!
//! The parallel algorithms are generic over [`comm::Comm`], so the same
//! closure runs on the threaded [`comm::Cluster`] (real parallelism,
//! wall-clock time, up to a few hundred ranks) or on [`sim::SimCluster`]
//! (single-threaded discrete-event execution, virtual time, up to the
//! paper's full-machine P = 112,128 ranks, bit-identical across runs).
//! The simulator prices communication through a pluggable
//! [`sim::NetworkModel`] — flat α-β by default, or a contended fat-tree
//! topology (see `DESIGN.md` §12 for the trait contract).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use forestbal_comm as comm;
pub use forestbal_core as core;
pub use forestbal_forest as forest;
pub use forestbal_mesh as mesh;
pub use forestbal_octant as octant;
pub use forestbal_service as service;
pub use forestbal_sim as sim;
pub use forestbal_trace as trace;

/// Everything most applications need, in one import.
pub mod prelude {
    pub use forestbal_comm::{Cluster, Comm, RankCtx};
    pub use forestbal_core::{
        balance_subtree_new, balance_subtree_old, find_seeds, is_balanced_pair,
        reconstruct_from_seeds, Condition,
    };
    pub use forestbal_forest::{BalanceVariant, BrickConnectivity, Forest, ReversalScheme, TreeId};
    pub use forestbal_octant::{Octant, MAX_LEVEL, ROOT_LEN};
    pub use forestbal_service::{ForestService, Request, Response, ServiceConfig};
    pub use forestbal_sim::{
        FatTree, FatTreeParams, FlatAlphaBeta, NetStats, NetworkModel, NetworkSpec, SimCluster,
        SimConfig, SimConfigBuilder,
    };
}
