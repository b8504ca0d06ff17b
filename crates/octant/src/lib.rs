//! Octant arithmetic and linear-octree array operations.
//!
//! This crate is the substrate underneath the 2:1 balance algorithms, for
//! `D ∈ {1, 2, 3}` dimensions (the only ones the λ functions of the
//! paper's Table II cover; the codecs check it at compile time): the
//! [`Octant`] value type (a `D`-dimensional cube with integer corner
//! coordinates and a power-of-two side length), the Morton
//! (space-filling-curve) total order on octants, neighborhood enumeration,
//! and the classic sorted-array algorithms on *linear octrees* (octrees
//! stored as sorted arrays of leaves): `linearize`, `complete`, and friends.
//!
//! Conventions
//! -----------
//! * The root octant has `level == 0` and side length [`ROOT_LEN`] `== 2^MAX_LEVEL`.
//!   An octant of `level == l` has side length `2^(MAX_LEVEL - l)`.
//!   The paper indexes octants the other way around (an "`l`-octant" has side
//!   `2^l`); [`Octant::size_log2`] returns that paper-convention size.
//! * Coordinates are `i32` and may leave `[0, ROOT_LEN)` transiently: balance
//!   algorithms construct neighbors across tree boundaries exactly like
//!   p4est does. Octants with out-of-root coordinates support all relations
//!   except those that require an in-root Morton index.
//! * The Morton order sorts an ancestor *before* its descendants (preorder).
//! * The algorithms run on packed keys ([`PackedOctant`], [`key`]);
//!   [`Octant`] is the view at API edges and the representation of the
//!   independent oracles.
//!
//! # Example
//!
//! ```
//! use forestbal_octant::{complete_subtree, is_complete, linearize, Octant};
//!
//! // Build octants by walking child ids from the root.
//! let root = Octant::<3>::root();
//! let deep = root.child(5).child(0).child(7);
//! assert_eq!(deep.level, 3);
//! assert!(root.is_ancestor_of(&deep));
//! assert_eq!(deep.ancestor(1), root.child(5));
//!
//! // Morton order: ancestors first, then curve order.
//! assert!(root.child(5) < deep);
//! assert!(deep < root.child(6));
//!
//! // Complete the coarsest linear octree pinning `deep` as a leaf.
//! let mesh = complete_subtree(&root, &[deep]);
//! assert!(is_complete(&mesh, &root));
//! assert!(mesh.binary_search(&deep).is_ok());
//!
//! // Linearize resolves overlaps toward the finest octants.
//! let mut v = vec![root.child(5), deep];
//! linearize(&mut v);
//! assert_eq!(v, vec![deep]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod coords;
mod dilate;
pub mod direction;
pub mod key;
pub mod linear;
pub mod morton;
pub mod octant;
pub mod packed;
pub mod sort;
pub mod table;

pub use coords::{Coord, MAX_LEVEL, ROOT_LEN};
pub use direction::{codim, direction_digits, directions, Direction};
pub use key::packable;
pub use linear::{
    complete_region_keys, complete_subtree, complete_subtree_keys, is_complete, is_linear,
    is_linear_keys, linearize, linearize_keys_with, merge_sorted,
};
pub use morton::MortonIndex;
pub use octant::Octant;
pub use packed::{pack_batch, simd_active, unpack_batch, PackedOctant};
pub use sort::{sort_keys_with, sort_octants_with, SortScratch, PAR_MIN_LEN, RADIX_MIN_LEN};
pub use table::OctantTable;
