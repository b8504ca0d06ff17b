//! The paper's primary contribution: low-cost algorithms for 2:1 octree
//! balance (Isaac, Burstedde, Ghattas, IPDPS 2012).
//!
//! The crate provides, per the paper's sections:
//!
//! * §II  — [`condition`]: the `k`-balance conditions; [`neighborhood`]:
//!   coarse neighborhoods `N(o)` and insulation layers `I(o)`.
//! * §III — [`preclude`]: octant preclusion, `Reduce`, and completion of
//!   reduced octrees; [`subtree`]: the *old* (Figure 6) and *new*
//!   (Figure 7) subtree balance algorithms. All of §III runs on packed
//!   Morton keys (`forestbal_octant::PackedOctant`); the struct-typed
//!   entry points are pack/unpack wrappers.
//! * §IV  — [`lambda`]: the closed-form λ(δ̄) balance-distance functions of
//!   Table II (with `Carry3`), giving O(1) balance decisions between
//!   arbitrary octants; [`seeds`]: seed-octant construction and
//!   reconstruction for balancing remote octants. §IV has keys at its
//!   boundary ([`find_seeds_keys`], what the parallel balance calls) and
//!   coordinate arithmetic inside, as Table II states it; [`find_seeds`]
//!   is the struct view of the same construction.
//! * [`oracle`]: an independent ripple-based reference implementation used
//!   to validate everything above (and as the "ripple algorithm" baseline
//!   discussed in §II-B).
//!
//! # Example
//!
//! ```
//! use forestbal_core::{
//!     balance_subtree_new, find_seeds, is_balanced_pair, reconstruct_from_seeds,
//!     Condition,
//! };
//! use forestbal_octant::Octant;
//!
//! let root = Octant::<2>::root();
//! let cond = Condition::full(2); // corner balance
//!
//! // A deep leaf hugging the domain center...
//! let o = root.child(0).child(3).child(3).child(3);
//! // ...is unbalanced with the coarse diagonal quadrant (O(1) decision):
//! let r = root.child(3);
//! assert!(!is_balanced_pair(&o, &r, cond));
//!
//! // Seed octants let a remote process reconstruct T_k(o) ∩ r without
//! // bridging the distance:
//! let seeds = find_seeds(&o, &r, cond).expect("unbalanced pair has seeds");
//! assert!(seeds.len() <= 3); // ≤ 3^{d-1}
//! let overlap = reconstruct_from_seeds(&r, &seeds, cond);
//! assert!(overlap.len() > 1, "r must split");
//!
//! // Serial subtree balance: the coarsest balanced octree containing o.
//! let mesh = balance_subtree_new(&root, &[o], cond);
//! assert!(mesh.binary_search(&o).is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod condition;
pub mod lambda;
pub mod neighborhood;
pub mod oracle;
pub mod preclude;
pub mod scratch;
pub mod seeds;
pub mod subtree;

pub use condition::Condition;
pub use lambda::{balanced_size_log2_at, carry3, closest_balanced_octant, is_balanced_pair};
pub use neighborhood::{coarse_neighborhood, insulation_layer};
pub use preclude::{complete_reduced, merged_reverse_seeds, precludes, reduce, remove_precluded};
pub use scratch::{BalanceScratch, ScratchStats};
pub use seeds::{find_seeds, find_seeds_keys, reconstruct_from_seeds};
pub use subtree::{
    balance_subtree_new, balance_subtree_new_keys, balance_subtree_new_with_stats_scratch,
    balance_subtree_old, balance_subtree_old_ext_scratch, balance_subtree_old_keys, BalanceStats,
};
