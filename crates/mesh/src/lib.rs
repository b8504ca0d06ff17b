//! Workload generators for the evaluation meshes of §VI.
//!
//! * [`fractal`] — the weak-scaling workload (Figures 14/15): recursive
//!   refinement of a six-octree brick where children with ids {0, 3, 5, 6}
//!   split further, producing a fractal mesh with bounded level spread.
//! * [`ice_sheet`] — a synthetic stand-in for the Antarctic ice-sheet
//!   mesh of the strong-scaling study (Figures 16/17): a thin multi-tree
//!   slab refined wherever an octant column intersects a procedurally
//!   generated *grounding line* on the bottom surface, yielding the same
//!   highly graded, interface-concentrated refinement profile. The real
//!   mesh comes from a finite-element simulation we do not have; the
//!   balance cost depends only on the grading geometry, which this
//!   reproduces.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fractal;
pub mod ice_sheet;
pub mod sphere;

pub use fractal::{fractal_forest, fractal_forest_2d, FRACTAL_CHILDREN};
pub use ice_sheet::{ice_sheet_forest, GroundingLine, IceSheetParams};
pub use sphere::{sphere_forest, SphereParams};

use forestbal_octant::MAX_LEVEL;

/// Histogram of leaf counts per level for a local forest view.
pub fn level_histogram<const D: usize>(
    forest: &forestbal_forest::Forest<D>,
) -> [u64; MAX_LEVEL as usize + 1] {
    let mut h = [0u64; MAX_LEVEL as usize + 1];
    for (_, v) in forest.trees() {
        for o in v {
            h[o.level as usize] += 1;
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use forestbal_comm::Cluster;
    use forestbal_forest::BrickConnectivity;
    use std::sync::Arc;

    #[test]
    fn level_histogram_counts_leaves() {
        let conn = Arc::new(BrickConnectivity::<2>::unit());
        Cluster::run(1, |ctx| {
            let mut f = forestbal_forest::Forest::new_uniform(Arc::clone(&conn), ctx, 2);
            f.refine(false, 3, |_, o| o.coords == [0, 0]);
            let h = level_histogram(&f);
            assert_eq!(h[2], 15);
            assert_eq!(h[3], 4);
            assert_eq!(h.iter().sum::<u64>(), 19);
        });
    }
}
