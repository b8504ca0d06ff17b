//! The [`Octant`] value type and the octant relations of the paper's Table I.

use crate::coords::{len_at, size_log2_at, Coord, MAX_LEVEL, ROOT_LEN};
use crate::direction::Direction;
use crate::morton;
use crate::packed::PackedOctant;

/// A `D`-dimensional octant: an axis-aligned cube whose side length is
/// `2^(MAX_LEVEL - level)` and whose corner coordinates are multiples of the
/// side length.
///
/// Octants are `Copy` (16 bytes in 3D) and totally ordered by the Morton
/// space-filling curve with ancestors sorting before descendants; see
/// [`crate::morton`].
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Octant<const D: usize> {
    /// Coordinates of the corner closest to the origin.
    pub coords: [Coord; D],
    /// Refinement level: 0 is the root, `MAX_LEVEL` the finest.
    pub level: u8,
}

impl<const D: usize> std::fmt::Debug for Octant<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Oct(l={} @ {:?})", self.level, self.coords)
    }
}

impl<const D: usize> Octant<D> {
    /// Number of children (and of siblings) of any non-leaf octant: `2^D`.
    pub const NUM_CHILDREN: usize = 1 << D;

    /// The root octant covering the whole tree.
    #[inline]
    pub const fn root() -> Self {
        Octant {
            coords: [0; D],
            level: 0,
        }
    }

    /// Construct an octant, checking coordinate alignment in debug builds.
    #[inline]
    pub fn new(coords: [Coord; D], level: u8) -> Self {
        let o = Octant { coords, level };
        debug_assert!(o.is_aligned(), "misaligned octant {o:?}");
        o
    }

    /// Side length in integer coordinates.
    #[inline]
    #[allow(clippy::len_without_is_empty)] // a side length, not a container
    pub fn len(&self) -> Coord {
        len_at(self.level)
    }

    /// The paper's "size": the side length is `2^size_log2`.
    #[inline]
    pub fn size_log2(&self) -> u8 {
        size_log2_at(self.level)
    }

    /// Are the coordinates multiples of the side length?
    #[inline]
    pub fn is_aligned(&self) -> bool {
        let mask = self.len() - 1;
        self.level <= MAX_LEVEL && self.coords.iter().all(|&c| c & mask == 0)
    }

    /// Does the octant lie fully inside the root cube `[0, ROOT_LEN)^D`?
    #[inline]
    pub fn is_inside_root(&self) -> bool {
        self.coords.iter().all(|&c| (0..ROOT_LEN).contains(&c))
            && self.coords.iter().all(|&c| c + self.len() <= ROOT_LEN)
    }

    /// The octant containing `self` that is twice as large (`parent(o)`).
    ///
    /// # Panics
    /// Panics in debug builds if `self` is the root.
    #[inline]
    pub fn parent(&self) -> Self {
        debug_assert!(self.level > 0, "root has no parent");
        self.ancestor(self.level - 1)
    }

    /// The ancestor at the given coarser (or equal) level.
    #[inline]
    pub fn ancestor(&self, level: u8) -> Self {
        debug_assert!(level <= self.level);
        let mask = !(len_at(level) - 1);
        let mut coords = self.coords;
        for c in coords.iter_mut() {
            *c &= mask;
        }
        Octant { coords, level }
    }

    /// `i-child(p)`: the child touching the `i`-th corner of `self`.
    ///
    /// Bit `j` of `i` selects the upper half along axis `j`.
    #[inline]
    pub fn child(&self, i: usize) -> Self {
        debug_assert!(self.level < MAX_LEVEL);
        debug_assert!(i < Self::NUM_CHILDREN);
        let clen = len_at(self.level + 1);
        let mut coords = self.coords;
        for (j, c) in coords.iter_mut().enumerate() {
            *c += ((i >> j) & 1) as Coord * clen;
        }
        Octant {
            coords,
            level: self.level + 1,
        }
    }

    /// `child-id(o)`: the index `i` such that `i-child(parent(o)) == o`.
    #[inline]
    pub fn child_id(&self) -> usize {
        debug_assert!(self.level > 0);
        let len = self.len();
        let mut id = 0;
        for (j, &c) in self.coords.iter().enumerate() {
            // The child bit is the bit of the coordinate at this octant's
            // own length; works for negative coordinates too since `len`
            // is a power of two.
            if c & len != 0 {
                id |= 1 << j;
            }
        }
        id
    }

    /// `i-sibling(o)`: `i-child(parent(o))`.
    #[inline]
    pub fn sibling(&self, i: usize) -> Self {
        debug_assert!(self.level > 0);
        self.parent().child(i)
    }

    /// Is `self` a (strict or equal) ancestor of `other`?
    #[inline]
    pub fn contains(&self, other: &Self) -> bool {
        self.level <= other.level && other.ancestor(self.level).coords == self.coords
    }

    /// Is `self` a strict ancestor of `other`?
    #[inline]
    pub fn is_ancestor_of(&self, other: &Self) -> bool {
        self.level < other.level && other.ancestor(self.level).coords == self.coords
    }

    /// Do the two octants overlap (one contains the other)?
    #[inline]
    pub fn overlaps(&self, other: &Self) -> bool {
        self.contains(other) || other.contains(self)
    }

    /// The first (Morton-least) descendant at `level`.
    #[inline]
    pub fn first_descendant(&self, level: u8) -> Self {
        debug_assert!(level >= self.level);
        Octant {
            coords: self.coords,
            level,
        }
    }

    /// The last (Morton-greatest) descendant at `level`.
    #[inline]
    pub fn last_descendant(&self, level: u8) -> Self {
        debug_assert!(level >= self.level);
        let shift = self.len() - len_at(level);
        let mut coords = self.coords;
        for c in coords.iter_mut() {
            *c += shift;
        }
        Octant { coords, level }
    }

    /// The same-size neighbor across direction `dir`. The result may lie
    /// outside the root cube.
    #[inline]
    pub fn neighbor(&self, dir: &Direction<D>) -> Self {
        let len = self.len();
        let mut coords = self.coords;
        for (c, &d) in coords.iter_mut().zip(dir.iter()) {
            *c += d as Coord * len;
        }
        Octant {
            coords,
            level: self.level,
        }
    }

    /// The nearest common ancestor of two in-root octants (computed on
    /// their packed keys).
    pub fn nearest_common_ancestor(&self, other: &Self) -> Self {
        PackedOctant::new(self)
            .nearest_common_ancestor(PackedOctant::new(other))
            .octant()
    }

    /// Morton index of the first unit cell covered by this octant.
    /// Only valid for in-root octants.
    #[inline]
    pub fn index(&self) -> morton::MortonIndex {
        morton::interleave::<D>(&self.coords)
    }

    /// Number of unit (finest-level) cells covered: `2^(D * size_log2)`.
    #[inline]
    pub fn cell_count(&self) -> morton::MortonIndex {
        1u128 << (D as u32 * (MAX_LEVEL - self.level) as u32)
    }

    /// Morton index of the last unit cell covered (inclusive).
    #[inline]
    pub fn last_index(&self) -> morton::MortonIndex {
        self.index() + (self.cell_count() - 1)
    }

    /// Reconstruct the octant covering the index range
    /// `[index, index + 2^(D*(MAX_LEVEL-level)))`.
    #[inline]
    pub fn from_index(index: morton::MortonIndex, level: u8) -> Self {
        let coords = morton::deinterleave::<D>(index);
        Octant::new(coords, level)
    }
}

impl<const D: usize> PartialOrd for Octant<D> {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<const D: usize> Ord for Octant<D> {
    /// Morton (space-filling curve) order; an ancestor sorts before its
    /// descendants (preorder traversal).
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        morton::cmp(self, other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Oct2 = Octant<2>;
    type Oct3 = Octant<3>;

    #[test]
    fn root_relations() {
        let r = Oct3::root();
        assert_eq!(r.len(), ROOT_LEN);
        assert_eq!(r.size_log2(), MAX_LEVEL);
        assert!(r.is_inside_root());
        assert!(r.is_aligned());
    }

    #[test]
    fn child_parent_roundtrip() {
        let r = Oct3::root();
        for i in 0..8 {
            let c = r.child(i);
            assert_eq!(c.parent(), r);
            assert_eq!(c.child_id(), i);
            assert_eq!(c.level, 1);
            assert!(r.is_ancestor_of(&c));
            assert!(r.contains(&c));
            assert!(!c.contains(&r));
        }
    }

    #[test]
    fn deep_child_chain() {
        let mut o = Oct2::root();
        let ids = [3usize, 0, 2, 1, 3, 2];
        for &i in &ids {
            o = o.child(i);
        }
        for &i in ids.iter().rev() {
            assert_eq!(o.child_id(), i);
            o = o.parent();
        }
        assert_eq!(o, Oct2::root());
    }

    #[test]
    fn sibling_table_i() {
        // i-sibling(o) = i-child(parent(o))
        let o = Oct3::root().child(5).child(3);
        for i in 0..8 {
            assert_eq!(o.sibling(i), o.parent().child(i));
        }
        assert_eq!(o.sibling(o.child_id()), o);
    }

    #[test]
    fn first_last_descendant() {
        let o = Oct2::root().child(1);
        let fd = o.first_descendant(MAX_LEVEL);
        let ld = o.last_descendant(MAX_LEVEL);
        assert_eq!(fd.coords, o.coords);
        assert_eq!(
            ld.coords,
            [o.coords[0] + o.len() - 1, o.coords[1] + o.len() - 1]
        );
        assert!(o.contains(&fd));
        assert!(o.contains(&ld));
        assert_eq!(fd.index(), o.index());
        assert_eq!(ld.index(), o.last_index());
    }

    #[test]
    fn neighbor_in_and_out_of_root() {
        let o = Oct2::root().child(0); // lower-left quadrant
        let right = o.neighbor(&[1, 0]);
        assert!(right.is_inside_root());
        assert_eq!(right, Oct2::root().child(1));
        let left = o.neighbor(&[-1, 0]);
        assert!(!left.is_inside_root());
        assert_eq!(left.coords, [-o.len(), 0]);
        // Neighbor of neighbor in the opposite direction is the original.
        assert_eq!(left.neighbor(&[1, 0]), o);
    }

    #[test]
    fn nca_of_cousins() {
        let a = Oct2::root().child(0).child(3);
        let b = Oct2::root().child(3).child(0);
        assert_eq!(a.nearest_common_ancestor(&b), Oct2::root());
        let c = Oct2::root().child(0).child(1);
        assert_eq!(a.nearest_common_ancestor(&c), Oct2::root().child(0));
        assert_eq!(a.nearest_common_ancestor(&a), a);
    }

    #[test]
    fn nca_with_ancestor() {
        let p = Oct3::root().child(2);
        let d = p.child(7).child(1);
        assert_eq!(p.nearest_common_ancestor(&d), p);
        assert_eq!(d.nearest_common_ancestor(&p), p);
    }

    #[test]
    fn cell_counts() {
        let o = Oct3::root();
        assert_eq!(o.cell_count(), 1u128 << (3 * MAX_LEVEL as u32));
        let c = o.child(0);
        assert_eq!(c.cell_count() * 8, o.cell_count());
    }

    #[test]
    fn index_roundtrip() {
        let o = Oct3::root().child(6).child(1).child(4);
        let idx = o.index();
        assert_eq!(Oct3::from_index(idx, o.level), o);
    }

    #[test]
    fn child_id_of_negative_coords() {
        // Child ids remain meaningful for out-of-root octants.
        let o = Octant::<2>::root().child(0).neighbor(&[-1, 0]);
        let c = o.child(3);
        assert_eq!(c.child_id(), 3);
        assert_eq!(c.parent(), o);
    }
}
