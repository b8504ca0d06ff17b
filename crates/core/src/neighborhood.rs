//! Coarse neighborhoods `N(o)` and insulation layers `I(o)`.
//!
//! * The **coarse neighborhood** `N(o)` (Figure 5) is the set of octants of
//!   twice `o`'s size that neighbor `parent(o)` across boundary objects
//!   constrained by the balance condition. In the subtree balance
//!   algorithms of §III every octant attempts to add (a sparse equivalent
//!   of) its coarse neighborhood to the octree.
//! * The **insulation layer** `I(o)` (Figure 4) is the envelope of the
//!   `3^d` like-sized octants centered on `o`. Two octants can be
//!   unbalanced only if one lies inside the other's insulation layer; this
//!   drives the Query phase of the parallel algorithm.
//!
//! Members may lie outside the root octree; callers either clip them
//! (subtree balance) or transform them into a neighboring tree of the
//! forest (parallel balance).

use crate::condition::Condition;
use forestbal_octant::key::KEY_LEVEL_BITS;
use forestbal_octant::{direction_digits, directions, Octant, PackedOctant};

/// The coarse neighborhood `N(o)` under balance condition `cond`, on
/// packed keys: same-size-as-`parent(o)` neighbors of `parent(o)` across
/// boundary objects of codimension `<= k`, in direction-enumeration order.
/// The parent's shifted axis fields are computed once; each member is
/// then one OR per axis.
///
/// Requires `o.level() >= 1`; members may lie outside the root cube.
pub fn coarse_neighborhood<const D: usize>(
    o: PackedOctant<D>,
    cond: Condition,
) -> impl Iterator<Item = PackedOctant<D>> {
    debug_assert!(o.level() >= 1, "the root has no coarse neighborhood");
    let p = o.parent();
    let fields = p.axis_fields();
    let level = p.level() as u128;
    direction_digits::<D>(cond.k()).map(move |dir| {
        let idx = (0..D).fold(0, |idx, j| idx | fields[j][dir[j] as usize]);
        PackedOctant(idx << KEY_LEVEL_BITS | level)
    })
}

/// The insulation layer `I(o)`: the `3^D - 1` same-size neighbors of `o`
/// (all codimensions, regardless of the balance condition — insulation is
/// a sufficient envelope for every condition).
pub fn insulation_layer<const D: usize>(o: &Octant<D>) -> Vec<Octant<D>> {
    let mut layer = Vec::with_capacity(3usize.pow(D as u32) - 1);
    layer.extend(directions::<D>().map(|dir| o.neighbor(&dir)));
    layer
}

#[cfg(test)]
mod tests {
    use super::*;
    use forestbal_octant::codim;

    /// `N(o)` decoded, in enumeration order.
    fn coarse_octants<const D: usize>(o: &Octant<D>, cond: Condition) -> Vec<Octant<D>> {
        coarse_neighborhood(PackedOctant::new(o), cond)
            .map(PackedOctant::octant)
            .collect()
    }

    #[test]
    fn coarse_neighborhood_sizes_2d() {
        // Figure 5a/5b: 1-balance has 4 members, 2-balance has 8.
        let o = Octant::<2>::root().child(0).child(3);
        assert_eq!(coarse_octants(&o, Condition::FACE).len(), 4);
        assert_eq!(coarse_octants(&o, Condition::full(2)).len(), 8);
    }

    #[test]
    fn coarse_neighborhood_sizes_3d() {
        // Figure 5c-e: 6 / 18 / 26 members for k = 1, 2, 3.
        let o = Octant::<3>::root().child(0).child(7);
        assert_eq!(coarse_octants(&o, Condition::FACE).len(), 6);
        assert_eq!(coarse_octants(&o, Condition::new(2, 3).unwrap()).len(), 18);
        assert_eq!(coarse_octants(&o, Condition::full(3)).len(), 26);
    }

    #[test]
    fn coarse_neighborhood_geometry() {
        let o = Octant::<2>::root().child(0).child(0);
        let p = o.parent();
        for n in &coarse_octants(&o, Condition::full(2)) {
            assert_eq!(n.level, p.level, "members are parent-sized");
            assert_ne!(*n, p);
            // Each member touches the parent (coordinates differ by
            // exactly one parent length per axis).
            for i in 0..2 {
                let d = (n.coords[i] - p.coords[i]).abs();
                assert!(d == 0 || d == p.len());
            }
        }
        // Same neighborhood for every member of the family.
        let sib = o.sibling(3);
        assert_eq!(
            coarse_octants(&o, Condition::full(2)),
            coarse_octants(&sib, Condition::full(2))
        );
    }

    #[test]
    fn coarse_neighborhood_is_the_parents_constrained_neighbors() {
        // The key members are the struct neighbors of the parent across
        // every constrained direction, in enumeration order, in and out
        // of the root.
        for o in [
            Octant::<3>::root().child(0).child(7).child(1),
            Octant::<3>::root().child(7).child(7),
        ] {
            for k in 1..=3 {
                let cond = Condition::new(k, 3).unwrap();
                let want: Vec<_> = directions::<3>()
                    .filter(|d| cond.constrains(codim(d)))
                    .map(|d| o.parent().neighbor(&d))
                    .collect();
                assert_eq!(coarse_octants(&o, cond), want);
            }
        }
    }

    #[test]
    fn insulation_layer_counts() {
        let o2 = Octant::<2>::root().child(1);
        assert_eq!(insulation_layer(&o2).len(), 8);
        let o3 = Octant::<3>::root().child(1);
        assert_eq!(insulation_layer(&o3).len(), 26);
    }

    #[test]
    fn insulation_layer_is_same_size() {
        let o = Octant::<3>::root().child(2).child(5);
        for n in &insulation_layer(&o) {
            assert_eq!(n.level, o.level);
            assert_ne!(n, &o);
        }
    }

    #[test]
    fn interior_insulation_inside_root() {
        // An octant away from the boundary has a fully interior layer.
        let o = Octant::<2>::root().child(0).child(3).child(3);
        assert!(insulation_layer(&o).iter().all(|n| n.is_inside_root()));
        // A corner octant has most of its layer outside.
        let c = Octant::<2>::root().child(0).child(0).child(0);
        let outside = insulation_layer(&c)
            .iter()
            .filter(|n| !n.is_inside_root())
            .count();
        assert_eq!(outside, 5);
    }
}
