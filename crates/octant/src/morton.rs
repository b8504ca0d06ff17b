//! Morton (z-order) comparison and indexing.
//!
//! The total order on octants traverses the leaves of the octree left to
//! right along a z-shaped space-filling curve (Figure 2 of the paper), with
//! an ancestor ordered *before* its descendants (preorder / "Morton order").
//!
//! Comparison uses the classic XOR-most-significant-bit technique on the
//! coordinates directly, so no interleaved key is materialized; octants with
//! negative (out-of-root) coordinates compare consistently as if the curve
//! were extended to a `3x` larger cube centered on the root.

use crate::coords::{Coord, ROOT_LEN};
use crate::dilate::{contract2, contract3_wide, dilate2, dilate3_wide};
use crate::octant::Octant;
use std::cmp::Ordering;

/// Interleaved Morton index of a unit cell; 72 bits are used in 3D.
pub type MortonIndex = u128;

/// Shift a possibly-negative coordinate into an unsigned space that
/// preserves order (the z-order curve extended to negative coordinates).
#[inline]
fn zmap(c: Coord) -> u64 {
    (c as i64 + (1i64 << 31)) as u64
}

/// Morton-order comparison of two octants (ancestor-first preorder).
#[inline]
pub fn cmp<const D: usize>(a: &Octant<D>, b: &Octant<D>) -> Ordering {
    let mut high_axis = usize::MAX;
    let mut high_msb = -1i32;
    for i in 0..D {
        let x = zmap(a.coords[i]) ^ zmap(b.coords[i]);
        if x != 0 {
            let msb = 63 - x.leading_zeros() as i32;
            // On ties the higher axis dominates: within one level of the
            // interleaved key, axis D-1 holds the most significant bit.
            if msb > high_msb || (msb == high_msb && i > high_axis) {
                high_msb = msb;
                high_axis = i;
            }
        }
    }
    if high_axis == usize::MAX {
        // Same corner: the coarser octant is the ancestor and comes first.
        a.level.cmp(&b.level)
    } else {
        a.coords[high_axis].cmp(&b.coords[high_axis])
    }
}

/// Interleave in-root coordinates into a Morton index
/// (axis 0 occupies the least significant bit of each level group).
/// Word-parallel on the `dilate` ladders shared with
/// [`crate::key::pack`]; `1 <= D <= 3` (checked at compile time).
#[inline]
pub fn interleave<const D: usize>(coords: &[Coord; D]) -> MortonIndex {
    const { assert!(1 <= D && D <= 3, "octants have 1, 2 or 3 dimensions") };
    debug_assert!(coords.iter().all(|&c| (0..ROOT_LEN).contains(&c)));
    match D {
        1 => coords[0] as MortonIndex, // stride-1 dilation is the identity
        2 => (dilate2(coords[0] as u64) | dilate2(coords[1] as u64) << 1) as MortonIndex,
        _ => {
            dilate3_wide(coords[0] as u64)
                | dilate3_wide(coords[1] as u64) << 1
                | dilate3_wide(coords[2] as u64) << 2
        }
    }
}

/// Inverse of [`interleave`].
#[inline]
pub fn deinterleave<const D: usize>(idx: MortonIndex) -> [Coord; D] {
    const { assert!(1 <= D && D <= 3, "octants have 1, 2 or 3 dimensions") };
    match D {
        1 => [idx as Coord; D],
        2 => std::array::from_fn(|i| contract2(idx as u64 >> i) as Coord),
        _ => std::array::from_fn(|i| contract3_wide(idx >> i) as Coord),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coords::MAX_LEVEL;

    type Oct2 = Octant<2>;
    type Oct3 = Octant<3>;

    #[test]
    fn children_sort_in_child_id_order() {
        let r = Oct3::root();
        let mut prev = r;
        for i in 0..8 {
            let c = r.child(i);
            assert!(prev < c || prev == r);
            if i > 0 {
                assert!(r.child(i - 1) < c);
            }
            prev = c;
        }
    }

    #[test]
    fn ancestor_sorts_first() {
        let r = Oct2::root();
        for i in 0..4 {
            let c = r.child(i);
            assert!(r < c, "root must precede child {i}");
            for j in 0..4 {
                assert!(c < c.child(j));
            }
        }
    }

    #[test]
    fn order_matches_interleaved_index_for_disjoint() {
        // For non-overlapping in-root octants the XOR comparison must agree
        // with comparison of interleaved indices.
        let r = Oct3::root();
        let mut octs = vec![];
        for i in 0..8 {
            for j in 0..8 {
                octs.push(r.child(i).child(j));
            }
        }
        for a in &octs {
            for b in &octs {
                if a != b {
                    assert_eq!(cmp(a, b), a.index().cmp(&b.index()), "{a:?} vs {b:?}");
                }
            }
        }
    }

    #[test]
    fn negative_coordinates_precede_root() {
        let o = Oct2::root().child(0);
        let left = o.neighbor(&[-1, 0]);
        assert!(left < o);
        assert!(left < Oct2::root());
        let below = o.neighbor(&[0, -1]);
        assert!(below < o);
        // y outranks x in the z-order.
        assert!(below < left);
    }

    #[test]
    fn beyond_root_follows_root() {
        let last = Oct2::root().child(3);
        let beyond = last.neighbor(&[1, 0]);
        assert!(last < beyond);
        assert_eq!(beyond.coords[0], ROOT_LEN);
    }

    #[test]
    fn interleave_roundtrip_exhaustive_small() {
        for x in 0..4 {
            for y in 0..4 {
                for z in 0..4 {
                    let c = [x, y, z];
                    assert_eq!(deinterleave::<3>(interleave::<3>(&c)), c);
                }
            }
        }
    }

    #[test]
    fn index_is_contiguous_along_curve() {
        // Unit cells at MAX_LEVEL enumerate 0..2^(D*MAX_LEVEL) in Morton
        // order; check that consecutive children of one parent are
        // consecutive indices.
        let p = Oct3::root().child(1).first_descendant(MAX_LEVEL - 1);
        for i in 0..7usize {
            assert_eq!(p.child(i).index() + 1, p.child(i + 1).index());
        }
    }

    #[test]
    fn total_order_transitive_sample() {
        let r = Oct2::root();
        let mut v = [
            r,
            r.child(0),
            r.child(0).child(3),
            r.child(1),
            r.child(2).child(0),
            r.child(3),
            r.child(0).neighbor(&[-1, -1]),
        ];
        v.sort();
        for w in v.windows(2) {
            assert!(cmp(&w[0], &w[1]) != Ordering::Greater);
        }
    }
}
