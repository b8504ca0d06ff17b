//! Face-neighbor queries on a balanced forest.
//!
//! After 2:1 (face) balance, the leaf across any face of a leaf is either
//! the same size, one level coarser, or a set of `2^(D-1)` half-size
//! leaves — the invariant numerical discretizations rely on (Figure 1:
//! "balance across faces ensures that T-intersections only occur once per
//! face"). This module classifies each face, resolving neighbors across
//! tree boundaries and, via the ghost layer, across partition boundaries.

use crate::connectivity::TreeId;
use crate::forest::Forest;
use crate::ghost::GhostLayer;
use forestbal_octant::{key, Octant, PackedOctant};

/// What lies across one face of a leaf.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaceNeighbor<const D: usize> {
    /// The face is on the forest boundary.
    Boundary,
    /// One leaf of equal size.
    Same(TreeId, Octant<D>),
    /// One leaf twice the size — this leaf's face is half of the
    /// neighbor's (a hanging face from the neighbor's perspective).
    Coarse(TreeId, Octant<D>),
    /// `2^(D-1)` leaves of half the size, in Morton order.
    Fine(TreeId, Vec<Octant<D>>),
}

impl<const D: usize> Forest<D> {
    /// Classify the neighbor across the face of `o` (a local leaf of
    /// `tree`) selected by `axis` and `sign`.
    ///
    /// Requires a face-balanced forest and the current ghost layer;
    /// panics (debug) or returns garbage otherwise. Neighbors are
    /// returned in their home tree's frame.
    pub fn face_neighbor(
        &self,
        ghosts: &GhostLayer<D>,
        tree: TreeId,
        o: &Octant<D>,
        axis: usize,
        sign: i8,
    ) -> FaceNeighbor<D> {
        debug_assert!(axis < D && (sign == 1 || sign == -1));
        let mut dir = [0i8; D];
        dir[axis] = sign;
        let Some((t2, n2)) = self.neighbor(tree, PackedOctant::new(o), &dir) else {
            return FaceNeighbor::Boundary;
        };

        // One lookup decides both the same-size and the coarser case: the
        // leaf containing the same-size region is that region itself or
        // its parent.
        match self.containing_leaf(Some(ghosts), t2, n2.0) {
            Some(c) if c == n2.0 => return FaceNeighbor::Same(t2, n2.octant()),
            Some(c) if PackedOctant::<D>(c).level() + 1 == n2.level() => {
                return FaceNeighbor::Coarse(t2, key::unpack(c))
            }
            _ => {}
        }
        // Otherwise 2:1 face balance guarantees the 2^(D-1) children of
        // the region adjacent to the shared face are leaves. They face
        // back toward `o`: their child bit along `axis` opposes `sign`.
        let n2o = n2.octant();
        let mut fine = Vec::with_capacity(1 << (D - 1));
        for i in 0..Octant::<D>::NUM_CHILDREN {
            if ((i >> axis) & 1) == usize::from(sign < 0) {
                let c = n2.child(i);
                debug_assert!(
                    self.containing_leaf(Some(ghosts), t2, c.0) == Some(c.0),
                    "face not 2:1 balanced at {c:?}"
                );
                fine.push(n2o.child(i));
            }
        }
        FaceNeighbor::Fine(t2, fine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::{BalanceVariant, ReversalScheme};
    use crate::connectivity::BrickConnectivity;
    use forestbal_comm::{Cluster, Comm};
    use forestbal_core::Condition;
    use std::sync::Arc;

    #[test]
    fn uniform_forest_neighbors_are_same_or_boundary() {
        let conn = Arc::new(BrickConnectivity::<2>::unit());
        Cluster::run(2, |ctx| {
            let mut f = Forest::new_uniform(Arc::clone(&conn), ctx, 2);
            let ghosts = f.ghost_layer(ctx);
            let leaves: Vec<_> = f
                .trees()
                .flat_map(|(t, v)| v.iter().map(move |o| (t, o)))
                .collect();
            for (t, o) in leaves {
                for axis in 0..2 {
                    for sign in [-1i8, 1] {
                        match f.face_neighbor(&ghosts, t, &o, axis, sign) {
                            FaceNeighbor::Same(_, n) => assert_eq!(n.level, o.level),
                            FaceNeighbor::Boundary => {
                                let c = o.coords[axis];
                                assert!(
                                    (sign < 0 && c == 0)
                                        || (sign > 0 && c + o.len() == forestbal_octant::ROOT_LEN)
                                );
                            }
                            other => panic!("unexpected {other:?}"),
                        }
                    }
                }
            }
        });
    }

    #[test]
    fn adapted_forest_classification_is_consistent() {
        let conn = Arc::new(BrickConnectivity::<2>::new([2, 1], [false, false]));
        Cluster::run(3, |ctx| {
            let mut f = Forest::new_uniform(Arc::clone(&conn), ctx, 2);
            f.refine(true, 4, |t, o| t == 0 && o.coords[0] + o.len() == (1 << 24));
            f.balance(
                ctx,
                Condition::FACE,
                BalanceVariant::New,
                ReversalScheme::Notify,
            );
            let ghosts = f.ghost_layer(ctx);
            let leaves: Vec<_> = f
                .trees()
                .flat_map(|(t, v)| v.iter().map(move |o| (t, o)))
                .collect();
            let mut fine_faces = 0;
            let mut coarse_faces = 0;
            for (t, o) in leaves {
                for axis in 0..2 {
                    for sign in [-1i8, 1] {
                        match f.face_neighbor(&ghosts, t, &o, axis, sign) {
                            FaceNeighbor::Same(_, n) => {
                                assert_eq!(n.level, o.level);
                            }
                            FaceNeighbor::Coarse(_, n) => {
                                assert_eq!(n.level + 1, o.level, "2:1 face");
                                coarse_faces += 1;
                            }
                            FaceNeighbor::Fine(_, ns) => {
                                assert_eq!(ns.len(), 2, "2^(D-1) half faces");
                                for n in &ns {
                                    assert_eq!(n.level, o.level + 1, "2:1 face");
                                }
                                fine_faces += 1;
                            }
                            FaceNeighbor::Boundary => {}
                        }
                    }
                }
            }
            // Globally, every Fine face on one side pairs with Coarse
            // faces on the other (2 Coarse half-faces per Fine face).
            let fine_total = ctx.allreduce_sum(fine_faces);
            let coarse_total = ctx.allreduce_sum(coarse_faces);
            assert_eq!(coarse_total, 2 * fine_total, "hanging-face pairing");
            assert!(fine_total > 0, "the refinement must create T-intersections");
        });
    }

    #[test]
    fn neighbors_across_tree_boundary() {
        let conn = Arc::new(BrickConnectivity::<2>::new([2, 1], [false, false]));
        Cluster::run(1, |ctx| {
            let f = Forest::new_uniform(Arc::clone(&conn), ctx, 1);
            let ghosts = GhostLayer::default();
            // Right edge of tree 0 sees tree 1.
            let o = Octant::<2>::root().child(1);
            match f.face_neighbor(&ghosts, 0, &o, 0, 1) {
                FaceNeighbor::Same(t, n) => {
                    assert_eq!(t, 1);
                    assert_eq!(n, Octant::<2>::root().child(0));
                }
                other => panic!("unexpected {other:?}"),
            }
            // Left edge of tree 0 is the forest boundary.
            let l = Octant::<2>::root().child(0);
            assert_eq!(
                f.face_neighbor(&ghosts, 0, &l, 0, -1),
                FaceNeighbor::Boundary
            );
        });
    }

    #[test]
    fn three_dimensional_fine_faces_have_four_members() {
        let conn = Arc::new(BrickConnectivity::<3>::unit());
        Cluster::run(1, |ctx| {
            let mut f = Forest::new_uniform(Arc::clone(&conn), ctx, 1);
            f.refine(true, 2, |_, o| o.coords == [0, 0, 0]);
            f.balance(
                ctx,
                Condition::FACE,
                BalanceVariant::New,
                ReversalScheme::Notify,
            );
            let ghosts = f.ghost_layer(ctx);
            // The level-1 leaf right of the refined corner leaf sees 4
            // half-size faces.
            let o = Octant::<3>::root().child(1);
            match f.face_neighbor(&ghosts, 0, &o, 0, -1) {
                FaceNeighbor::Fine(_, ns) => assert_eq!(ns.len(), 4),
                other => panic!("unexpected {other:?}"),
            }
        });
    }
}
