//! Searching the distributed forest: leaf lookup by point or octant, and
//! owner-rank queries — the p4est `search` analogue, built on the Morton
//! order and the partition markers.

use crate::connectivity::TreeId;
use crate::forest::{Forest, GlobalPos};
use forestbal_octant::{key, Coord, Octant, MAX_LEVEL, ROOT_LEN};

impl<const D: usize> Forest<D> {
    /// The local leaf of `tree` containing octant `q` (an ancestor of or
    /// equal to `q`), if this rank owns it. The search runs on the packed
    /// key array; only the hit is decoded (returned by value).
    pub fn find_leaf(&self, tree: TreeId, q: &Octant<D>) -> Option<Octant<D>> {
        self.containing_leaf(None, tree, key::pack(q))
            .map(key::unpack)
    }

    /// The local leaf containing the integer point `p` of `tree`
    /// (coordinates in `[0, ROOT_LEN)`), if this rank owns it.
    pub fn find_leaf_at_point(&self, tree: TreeId, p: [Coord; D]) -> Option<Octant<D>> {
        debug_assert!(p.iter().all(|&c| (0..ROOT_LEN).contains(&c)));
        let cell = Octant::<D> {
            coords: p,
            level: MAX_LEVEL,
        };
        self.find_leaf(tree, &cell)
    }

    /// The rank owning the unit cell at global position `pos`.
    pub fn owner_of(&self, pos: GlobalPos) -> usize {
        debug_assert!(!self.markers.is_empty(), "markers not computed yet");
        let i = self.markers.partition_point(|m| *m <= pos);
        i.saturating_sub(1).min(self.size() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity::BrickConnectivity;
    use forestbal_comm::{Cluster, Comm};
    use std::sync::Arc;

    #[test]
    fn find_leaf_by_point() {
        let conn = Arc::new(BrickConnectivity::<2>::unit());
        Cluster::run(1, |ctx| {
            let mut f = Forest::new_uniform(Arc::clone(&conn), ctx, 1);
            f.refine(true, 3, |_, o| o.coords == [0, 0]);
            // The origin is covered by the deepest leaf.
            let leaf = f.find_leaf_at_point(0, [0, 0]).unwrap();
            assert_eq!(leaf.level, 3);
            // A far point is covered by a level-1 leaf.
            let far = f
                .find_leaf_at_point(0, [ROOT_LEN - 1, ROOT_LEN - 1])
                .unwrap();
            assert_eq!(far.level, 1);
        });
    }

    #[test]
    fn find_leaf_remote_returns_none() {
        let conn = Arc::new(BrickConnectivity::<2>::unit());
        Cluster::run(4, |ctx| {
            let f = Forest::new_uniform(Arc::clone(&conn), ctx, 3);
            // Exactly one rank finds each point; the others get None and
            // agree on the owner.
            let p = [123 << 10, 45 << 12];
            let found = f.find_leaf_at_point(0, p).is_some();
            let cell = Octant::<2> {
                coords: p,
                level: forestbal_octant::MAX_LEVEL,
            };
            let owner = f.owner_of(GlobalPos {
                tree: 0,
                index: cell.index(),
            });
            assert_eq!(found, owner == ctx.rank());
            let all = ctx.allgather(vec![found as u8]);
            let owners: usize = all.iter().map(|b| b[0] as usize).sum();
            assert_eq!(owners, 1, "exactly one rank owns the point");
        });
    }

    #[test]
    fn owner_matches_markers_everywhere() {
        let conn = Arc::new(BrickConnectivity::<2>::new([2, 1], [false, false]));
        Cluster::run(3, |ctx| {
            let f = Forest::new_uniform(Arc::clone(&conn), ctx, 2);
            let g = f.gather(ctx);
            for (&t, v) in &g {
                for o in v {
                    let owner = f.owner_of(GlobalPos {
                        tree: t,
                        index: o.index(),
                    });
                    let local = f.find_leaf(t, o).is_some();
                    assert_eq!(local, owner == ctx.rank(), "{t} {o:?}");
                }
            }
        });
    }
}
