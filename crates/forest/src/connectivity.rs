//! Brick connectivity: a Cartesian grid of octrees with axis-aligned
//! (identity) inter-tree transforms and optional per-axis periodicity.
//!
//! The paper's forests come from general mesh generators (the Antarctica
//! mesh connects >28,000 octrees). The balance algorithms only require a
//! way to remap an out-of-root octant into the neighboring tree's frame;
//! a brick exercises every such code path (cross-tree neighborhoods,
//! insulation layers spanning trees, forest-wide SFC order) while keeping
//! the transform a pure translation — the orientation bookkeeping of
//! general connectivities is orthogonal to balance. The paper's own weak
//! scaling forest (Figure 14, six octrees) is a `3x2x1` brick.

use forestbal_octant::{Coord, Octant, PackedOctant, ROOT_LEN};

/// Identifies one octree of the forest.
pub type TreeId = u32;

/// An `n_0 x ... x n_{D-1}` grid of octrees, optionally *masked* to an
/// irregular active subset (the Antarctica macro mesh is, at heart, an
/// irregular subset of a grid covering the continent). Tree ids stay
/// contiguous `0..num_trees` in row-major order over the active cells.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BrickConnectivity<const D: usize> {
    dims: [usize; D],
    periodic: [bool; D],
    /// For masked bricks: grid cell (row-major) -> tree id, or
    /// `INACTIVE`; and tree id -> grid cell. `None` = full brick.
    mask: Option<MaskTables>,
}

#[derive(Clone, Debug, PartialEq, Eq)]
struct MaskTables {
    grid_to_tree: Vec<TreeId>,
    tree_to_grid: Vec<usize>,
}

const INACTIVE: TreeId = TreeId::MAX;

impl<const D: usize> BrickConnectivity<D> {
    /// A brick of `dims` trees with per-axis periodicity flags.
    pub fn new(dims: [usize; D], periodic: [bool; D]) -> Self {
        assert!(
            dims.iter().all(|&d| d >= 1),
            "brick dimensions must be positive"
        );
        BrickConnectivity {
            dims,
            periodic,
            mask: None,
        }
    }

    /// A masked brick: only grid cells for which `keep` returns true
    /// become trees. At least one cell must survive. Trees are numbered
    /// contiguously in row-major grid order.
    pub fn masked(
        dims: [usize; D],
        periodic: [bool; D],
        mut keep: impl FnMut([usize; D]) -> bool,
    ) -> Self {
        let total: usize = dims.iter().product();
        let mut grid_to_tree = vec![INACTIVE; total];
        let mut tree_to_grid = Vec::new();
        for (g, slot) in grid_to_tree.iter_mut().enumerate() {
            let mut rem = g;
            let coords: [usize; D] = std::array::from_fn(|i| {
                let c = rem % dims[i];
                rem /= dims[i];
                c
            });
            if keep(coords) {
                *slot = tree_to_grid.len() as TreeId;
                tree_to_grid.push(g);
            }
        }
        assert!(!tree_to_grid.is_empty(), "mask removed every tree");
        if tree_to_grid.len() == total {
            return BrickConnectivity {
                dims,
                periodic,
                mask: None,
            };
        }
        BrickConnectivity {
            dims,
            periodic,
            mask: Some(MaskTables {
                grid_to_tree,
                tree_to_grid,
            }),
        }
    }

    /// A single octree (the unit cube).
    pub fn unit() -> Self {
        BrickConnectivity {
            dims: [1; D],
            periodic: [false; D],
            mask: None,
        }
    }

    /// Number of trees in the forest.
    pub fn num_trees(&self) -> usize {
        match &self.mask {
            Some(m) => m.tree_to_grid.len(),
            None => self.dims.iter().product(),
        }
    }

    /// Grid dimensions.
    pub fn dims(&self) -> [usize; D] {
        self.dims
    }

    /// Per-axis periodicity flags.
    pub fn periodic(&self) -> [bool; D] {
        self.periodic
    }

    /// Grid coordinates of tree `t` (row-major, axis 0 fastest).
    pub fn tree_coords(&self, t: TreeId) -> [usize; D] {
        let mut rem = match &self.mask {
            Some(m) => m.tree_to_grid[t as usize],
            None => t as usize,
        };
        std::array::from_fn(|i| {
            let c = rem % self.dims[i];
            rem /= self.dims[i];
            c
        })
    }

    /// Tree id at grid coordinates, if that cell is active.
    pub fn try_tree_id(&self, coords: [usize; D]) -> Option<TreeId> {
        let mut g = 0usize;
        for i in (0..D).rev() {
            debug_assert!(coords[i] < self.dims[i]);
            g = g * self.dims[i] + coords[i];
        }
        match &self.mask {
            Some(m) => (m.grid_to_tree[g] != INACTIVE).then(|| m.grid_to_tree[g]),
            None => Some(g as TreeId),
        }
    }

    /// Remap an octant with out-of-root coordinates in tree `t` into the
    /// frame of the tree that actually contains it. Returns `None` when
    /// the octant leaves the forest (beyond a non-periodic boundary).
    /// In-root octants are returned unchanged.
    ///
    /// The octant must lie within one root length of the root cube (true
    /// for every neighbor/insulation construction) so that it maps to at
    /// most one neighboring tree per axis. This is the coordinate
    /// reference of [`BrickConnectivity::transform_key`], which the forest
    /// routes with.
    pub fn transform(&self, t: TreeId, o: &Octant<D>) -> Option<(TreeId, Octant<D>)> {
        let mut coords = o.coords;
        let mut steps = [0i8; D];
        for i in 0..D {
            debug_assert!(
                coords[i] >= -ROOT_LEN && coords[i] + o.len() <= 2 * ROOT_LEN,
                "octant strays more than one tree away"
            );
            steps[i] = coords[i].div_euclid(ROOT_LEN) as i8;
            coords[i] -= steps[i] as Coord * ROOT_LEN;
        }
        let t2 = self.step(t, steps)?;
        Some((
            t2,
            Octant {
                coords,
                level: o.level,
            },
        ))
    }

    /// [`BrickConnectivity::transform`] on a packed key: the tree steps are
    /// the key's top bit-planes ([`PackedOctant::tree_steps`]), and the
    /// frame change rewrites only those planes ([`PackedOctant::translate`]).
    #[inline]
    pub fn transform_key(
        &self,
        t: TreeId,
        k: PackedOctant<D>,
    ) -> Option<(TreeId, PackedOctant<D>)> {
        if k.is_inside_root() {
            return Some((t, k));
        }
        let steps = k.tree_steps();
        Some((self.step(t, steps)?, k.translate(steps.map(|s| -s))))
    }

    /// The tree `steps` (each in `{-1, 0, 1}`) away from tree `t` on the
    /// grid, wrapping periodic axes; `None` beyond a non-periodic face or
    /// in a masked-out cell.
    fn step(&self, t: TreeId, steps: [i8; D]) -> Option<TreeId> {
        let mut tc = self.tree_coords(t);
        for i in 0..D {
            let n = self.dims[i] as i64;
            let mut nt = tc[i] as i64 + steps[i] as i64;
            if nt < 0 || nt >= n {
                if !self.periodic[i] {
                    return None;
                }
                nt = nt.rem_euclid(n);
            }
            tc[i] = nt as usize;
        }
        self.try_tree_id(tc) // masked-out neighbor = boundary
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_indexing_roundtrip() {
        let b = BrickConnectivity::<3>::new([3, 2, 1], [false; 3]);
        assert_eq!(b.num_trees(), 6);
        for t in 0..6 {
            assert_eq!(b.try_tree_id(b.tree_coords(t)).unwrap(), t);
        }
        assert_eq!(b.tree_coords(0), [0, 0, 0]);
        assert_eq!(b.tree_coords(1), [1, 0, 0]);
        assert_eq!(b.tree_coords(3), [0, 1, 0]);
    }

    #[test]
    fn transform_interior_is_identity() {
        let b = BrickConnectivity::<2>::new([2, 2], [false; 2]);
        let o = Octant::<2>::root().child(1);
        assert_eq!(b.transform(0, &o), Some((0, o)));
    }

    #[test]
    fn transform_across_face() {
        let b = BrickConnectivity::<2>::new([2, 1], [false; 2]);
        // Right neighbor of the rightmost quadrant of tree 0 is in tree 1.
        let o = Octant::<2>::root().child(1);
        let n = o.neighbor(&[1, 0]);
        assert!(!n.is_inside_root());
        let (t, m) = b.transform(0, &n).unwrap();
        assert_eq!(t, 1);
        assert_eq!(m, Octant::<2>::root().child(0));
    }

    #[test]
    fn transform_across_corner() {
        let b = BrickConnectivity::<2>::new([2, 2], [false; 2]);
        let o = Octant::<2>::root().child(3); // top-right quadrant of tree 0
        let n = o.neighbor(&[1, 1]);
        let (t, m) = b.transform(0, &n).unwrap();
        assert_eq!(t, 3); // diagonal tree
        assert_eq!(m, Octant::<2>::root().child(0));
    }

    #[test]
    fn transform_off_the_edge() {
        let b = BrickConnectivity::<2>::new([2, 1], [false; 2]);
        let o = Octant::<2>::root().child(0);
        assert_eq!(b.transform(0, &o.neighbor(&[-1, 0])), None);
        assert_eq!(b.transform(0, &o.neighbor(&[0, -1])), None);
    }

    #[test]
    fn periodic_wraparound() {
        let b = BrickConnectivity::<2>::new([2, 1], [true, true]);
        let o = Octant::<2>::root().child(0);
        let left = o.neighbor(&[-1, 0]);
        let (t, m) = b.transform(0, &left).unwrap();
        assert_eq!(t, 1);
        assert_eq!(m, Octant::<2>::root().child(1));
        // Vertical wrap within the same (only) row.
        let down = o.neighbor(&[0, -1]);
        let (t2, m2) = b.transform(0, &down).unwrap();
        assert_eq!(t2, 0);
        assert_eq!(m2, Octant::<2>::root().child(2));
    }

    #[test]
    fn key_frame_change_round_trips() {
        let b = BrickConnectivity::<2>::new([3, 2], [false; 2]);
        let o = Octant::<2>::root().child(3).child(3);
        let n = PackedOctant::new(&o.neighbor(&[1, 1]));
        assert_eq!(n.tree_steps(), [1, 1]);
        let (t, m) = b.transform_key(b.try_tree_id([1, 0]).unwrap(), n).unwrap();
        assert_eq!(t, b.try_tree_id([2, 1]).unwrap());
        assert_eq!(m, PackedOctant::new(&Octant::<2>::root().child(0).child(0)));
        // Back into the original frame: the inverse of the tree steps.
        assert_eq!(m.translate([1, 1]), n);
    }

    #[test]
    fn three_by_two_by_one_brick_fig14() {
        // The weak-scaling forest of Figure 14: six octrees.
        let b = BrickConnectivity::<3>::new([3, 2, 1], [false; 3]);
        assert_eq!(b.num_trees(), 6);
        // Middle tree has neighbors on both x sides and one y side.
        let mid = b.try_tree_id([1, 0, 0]).unwrap();
        let o = Octant::<3>::root().child(0);
        assert!(b.transform(mid, &o.neighbor(&[-1, 0, 0])).is_some());
        assert!(b.transform(mid, &o.neighbor(&[0, 0, -1])).is_none());
    }

    #[test]
    fn masked_brick_l_shape() {
        // 2x2 grid with the top-right cell removed: an L-shaped domain.
        let b = BrickConnectivity::<2>::masked([2, 2], [false; 2], |c| c != [1, 1]);
        assert_eq!(b.num_trees(), 3);
        // Ids are contiguous in row-major order over active cells.
        assert_eq!(b.tree_coords(0), [0, 0]);
        assert_eq!(b.tree_coords(1), [1, 0]);
        assert_eq!(b.tree_coords(2), [0, 1]);
        assert_eq!(b.try_tree_id([1, 1]), None);
        // Transform into the hole acts like a domain boundary.
        let o = Octant::<2>::root().child(3);
        let t1 = b.try_tree_id([1, 0]).unwrap();
        assert_eq!(b.transform(t1, &o.neighbor(&[0, 1])), None);
        // But within the L everything connects.
        let left = Octant::<2>::root().child(0);
        let (t, m) = b.transform(t1, &left.neighbor(&[-1, 0])).unwrap();
        assert_eq!(t, 0);
        assert_eq!(m, Octant::<2>::root().child(1));
    }

    #[test]
    fn full_mask_is_plain_brick() {
        let a = BrickConnectivity::<2>::new([3, 2], [true, false]);
        let b = BrickConnectivity::<2>::masked([3, 2], [true, false], |_| true);
        assert_eq!(a, b);
    }

    #[test]
    fn masked_brick_roundtrips_ids() {
        let b = BrickConnectivity::<3>::masked([3, 3, 1], [false; 3], |c| {
            c[0] != 1 || c[1] != 1 // remove the center column
        });
        assert_eq!(b.num_trees(), 8);
        for t in 0..8 {
            assert_eq!(b.try_tree_id(b.tree_coords(t)), Some(t));
        }
    }

    #[test]
    fn masked_brick_balances_like_oracle() {
        // End-to-end: parallel balance on an L-shaped forest equals the
        // serial oracle (the oracle itself goes through `transform`).
        use crate::balance::{BalanceVariant, ReversalScheme};
        use crate::forest::Forest;
        use crate::serial::serial_forest_balance;
        use forestbal_comm::Cluster;
        use forestbal_core::Condition;
        use std::sync::Arc;
        let conn = Arc::new(BrickConnectivity::<2>::masked([2, 2], [false; 2], |c| {
            c != [1, 1]
        }));
        for p in [1usize, 3] {
            let conn2 = Arc::clone(&conn);
            let out = Cluster::run(p, move |ctx| {
                let mut f = Forest::new_uniform(Arc::clone(&conn2), ctx, 1);
                // Refine at the inner corner shared by all three trees.
                f.refine(true, 4, |t, o: &Octant<2>| {
                    t == 0
                        && o.coords[0] + o.len() == forestbal_octant::ROOT_LEN
                        && o.coords[1] + o.len() == forestbal_octant::ROOT_LEN
                });
                let input = f.gather(ctx);
                f.balance(
                    ctx,
                    Condition::full(2),
                    BalanceVariant::New,
                    ReversalScheme::Notify,
                );
                (input, f.gather(ctx))
            });
            let (input, got) = &out.results[0];
            let want = serial_forest_balance(&conn, input, Condition::full(2));
            for (t, v) in &want {
                assert_eq!(got.get(t), Some(v), "P={p} tree {t}");
            }
        }
    }
}
