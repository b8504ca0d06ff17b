//! [`PackedOctant`]: octant arithmetic directly on packed Morton keys.
//!
//! PR 3 introduced the packed key (see [`crate::key`]) as a *sort* device:
//! octants were packed, radix-sorted, and immediately unpacked. This module
//! promotes the key to a first-class octant representation: every relation
//! the balance algorithms use on hot paths — parent/ancestor, child,
//! child-id, first/last descendant, containment, neighbors — is computed
//! with shifts and masks on the key itself, without ever materializing
//! coordinates. This is what lets the forest store flat `Vec<u128>` arrays
//! (SoA) and operate on them with zero conversions, following the
//! Morton-index quadrant representation of Kirilin & Burstedde
//! (arXiv:2308.13615).
//!
//! # How the arithmetic works
//!
//! Recall the layout (`L = MAX_LEVEL`, `l = level`, `idx = key >> 5`):
//!
//! ```text
//! key = interleave(coords + KEY_BIAS) << 5  |  level
//! ```
//!
//! Bit-level `j` of the interleaved index holds bit `j` of every biased
//! coordinate; an octant of level `l` is aligned to `2^(L-l)`, so the low
//! `D*(L-l)` bits of `idx` are zero. The derived identities:
//!
//! * `ancestor(a)`: clear the low `D*(L-a)` index bits (coarser alignment),
//!   set the level field to `a`. Valid even for out-of-root octants because
//!   the bias `2^26` is itself a multiple of every octant length.
//! * `child(i)`: child `i` adds `bit(i,j) * len/2` to coordinate `j`; in the
//!   interleaved index the `D` bits of `i` land contiguously at bit
//!   `D*(L-l-1)`, and the level increments — one add on the whole key.
//! * `child_id`: read the `D` index bits at `D*(L-l)`. Works for negative
//!   coordinates because bits below 26 of the biased coordinate equal the
//!   two's-complement bits of the raw coordinate.
//! * `contains`: prefix equality of the indices above the ancestor's
//!   alignment, plus the level comparison.
//! * `neighbor(dir)`: per-axis *dilated* add/subtract — mask the axis'
//!   bit-plane, add the single bit `len` at that axis' stride, letting the
//!   carry ripple through the foreign-axis bits (filled with ones), then
//!   mask back. This is the classic Morton dilated-integer increment.
//! * `is_inside_root`: biased in-root coordinates are exactly those with
//!   bit 26 set and bits 24–25 clear, so one shift and compare of the top
//!   three bit-planes tests all `D` coordinates at once.
//! * `tree_steps`/`translate`: those planes read `011`, `100` or `101` for
//!   a coordinate in `[-R, 0)`, `[0, R)` or `[R, 2R)` (`R = ROOT_LEN`), so
//!   the tree step along an axis is the planes' value minus 4, and moving
//!   an octant by whole root lengths rewrites only those planes — a frame
//!   change between trees never touches the low bits.
//!
//! The natural integer order on keys equals [`crate::morton::cmp`]
//! (ancestors first), so sorted key arrays are linear octrees and
//! `binary_search`/`partition_point` work unchanged.

use crate::coords::{Coord, MAX_LEVEL};
use crate::direction::Direction;
use crate::key::{self, KEY_COORD_BITS, KEY_LEVEL_BITS};
use crate::morton::MortonIndex;
use crate::octant::Octant;

const L: u32 = MAX_LEVEL as u32;

/// Mask of the level field in the low bits of a key.
const LEVEL_MASK: u128 = (1 << KEY_LEVEL_BITS) - 1;

/// Bit-plane mask of axis 0 for dimension `d`: bit `b*d` for `b < 27`.
/// Axis `j`'s plane is this mask shifted left by `j`.
const fn axis_plane(d: usize) -> u128 {
    let mut m: u128 = 0;
    let mut b = 0;
    while b < KEY_COORD_BITS as usize {
        m |= 1 << (b * d);
        b += 1;
    }
    m
}

/// An octant stored as its packed Morton key (see [`crate::key`] for the
/// layout). `Ord` equals the Morton preorder of [`crate::morton::cmp`], so
/// sorted slices of packed octants are linear octrees.
///
/// All relations assume the key is valid (produced by [`key::pack`] or by
/// the arithmetic here) and that results stay within the packable
/// coordinate window `[-ROOT_LEN, 2*ROOT_LEN)` — the same contract as the
/// struct [`Octant`] operations, checked in debug builds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(transparent)]
pub struct PackedOctant<const D: usize>(pub u128);

impl<const D: usize> std::fmt::Debug for PackedOctant<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Packed({:?})", self.octant())
    }
}

impl<const D: usize> PackedOctant<D> {
    /// Number of children (and siblings) of any non-leaf octant: `2^D`.
    pub const NUM_CHILDREN: usize = 1 << D;

    /// The root octant: every biased coordinate is exactly `2^26`, so the
    /// index is the bit-plane 26 with all axes set.
    #[inline]
    pub const fn root() -> Self {
        PackedOctant((((1u128 << D) - 1) << (26 * D)) << KEY_LEVEL_BITS)
    }

    /// Pack a struct octant (see [`key::pack`] for the supported range).
    #[inline]
    pub fn new(o: &Octant<D>) -> Self {
        PackedOctant(key::pack(o))
    }

    /// Decode back into the struct view.
    #[inline]
    pub fn octant(self) -> Octant<D> {
        key::unpack(self.0)
    }

    /// Refinement level: 0 is the root, `MAX_LEVEL` the finest.
    #[inline]
    pub fn level(self) -> u8 {
        (self.0 & LEVEL_MASK) as u8
    }

    /// The interleaved (biased) coordinate index — the key above the level
    /// field.
    #[inline]
    pub fn idx(self) -> u128 {
        self.0 >> KEY_LEVEL_BITS
    }

    /// Side length in integer coordinates (never zero — an octant is a
    /// cube, not a container, so there is no `is_empty`).
    #[allow(clippy::len_without_is_empty)]
    #[inline]
    pub fn len(self) -> Coord {
        1 << (L - self.level() as u32)
    }

    /// The ancestor at the given coarser (or equal) level.
    #[inline]
    pub fn ancestor(self, level: u8) -> Self {
        debug_assert!(level <= self.level());
        let s = D as u32 * (L - level as u32) + KEY_LEVEL_BITS;
        PackedOctant(((self.0 >> s) << s) | level as u128)
    }

    /// The octant containing `self` that is twice as large.
    #[inline]
    pub fn parent(self) -> Self {
        debug_assert!(self.level() > 0, "root has no parent");
        self.ancestor(self.level() - 1)
    }

    /// `i-child`: the child touching the `i`-th corner. Bit `j` of `i`
    /// selects the upper half along axis `j`. The child's corner bits land
    /// contiguously at bit-level `L - l - 1`, and the level increments, so
    /// the whole operation is one add on the key.
    #[inline]
    pub fn child(self, i: usize) -> Self {
        let l = self.level() as u32;
        debug_assert!(l < L);
        debug_assert!(i < Self::NUM_CHILDREN);
        PackedOctant(self.0 + ((i as u128) << (D as u32 * (L - l - 1) + KEY_LEVEL_BITS)) + 1)
    }

    /// The index `i` such that `parent().child(i) == self`.
    #[inline]
    pub fn child_id(self) -> usize {
        let l = self.level() as u32;
        debug_assert!(l > 0);
        ((self.idx() >> (D as u32 * (L - l))) & ((1 << D) - 1)) as usize
    }

    /// `i-sibling`: `parent().child(i)`.
    #[inline]
    pub fn sibling(self, i: usize) -> Self {
        self.parent().child(i)
    }

    /// The first (Morton-least) descendant at `level`: same corner, finer
    /// level field.
    #[inline]
    pub fn first_descendant(self, level: u8) -> Self {
        debug_assert!(level >= self.level());
        PackedOctant((self.0 & !LEVEL_MASK) | level as u128)
    }

    /// The last (Morton-greatest) descendant at `level`: set every index
    /// bit between the two alignments.
    #[inline]
    pub fn last_descendant(self, level: u8) -> Self {
        let l = self.level() as u32;
        debug_assert!(level as u32 >= l);
        let ones = ((1u128 << (D as u32 * (L - l))) - 1)
            ^ ((1u128 << (D as u32 * (L - level as u32))) - 1);
        PackedOctant(((self.0 | (ones << KEY_LEVEL_BITS)) & !LEVEL_MASK) | level as u128)
    }

    /// Is `self` a (strict or equal) ancestor of `other`? Prefix equality
    /// of the indices above `self`'s alignment.
    #[inline]
    pub fn contains(self, other: Self) -> bool {
        let sl = self.level();
        let s = D as u32 * (L - sl as u32);
        sl <= other.level() && (other.idx() >> s) == (self.idx() >> s)
    }

    /// Is `self` a strict ancestor of `other`?
    #[inline]
    pub fn is_ancestor_of(self, other: Self) -> bool {
        self.level() < other.level() && self.contains(other)
    }

    /// Do the two octants overlap (one contains the other)?
    #[inline]
    pub fn overlaps(self, other: Self) -> bool {
        self.contains(other) || other.contains(self)
    }

    /// Does the octant lie fully inside the root cube `[0, ROOT_LEN)^D`?
    /// Biased in-root coordinates have bit 26 set and bits 24–25 clear, so
    /// the top three bit-planes of the index decide all axes at once.
    #[inline]
    pub fn is_inside_root(self) -> bool {
        (self.idx() >> (24 * D)) == ((1u128 << D) - 1) << (2 * D)
    }

    /// Morton index of the first unit cell covered. Only valid for in-root
    /// octants: masking off the three bias planes leaves exactly
    /// [`crate::morton::interleave`] of the raw coordinates.
    #[inline]
    pub fn index(self) -> MortonIndex {
        debug_assert!(self.is_inside_root());
        self.idx() & ((1 << (24 * D)) - 1)
    }

    /// Number of unit (finest-level) cells covered.
    #[inline]
    pub fn cell_count(self) -> MortonIndex {
        1u128 << (D as u32 * (L - self.level() as u32))
    }

    /// Morton index of the last unit cell covered (inclusive).
    #[inline]
    pub fn last_index(self) -> MortonIndex {
        self.index() + (self.cell_count() - 1)
    }

    /// The nearest common ancestor of two in-root octants: the indices
    /// agree above their highest differing bit-level, and the ancestor is
    /// aligned just above it.
    #[inline]
    pub fn nearest_common_ancestor(self, other: Self) -> Self {
        debug_assert!(self.is_inside_root() && other.is_inside_root());
        let differing = 128 - (self.idx() ^ other.idx()).leading_zeros();
        let agree = L - differing.div_ceil(D as u32);
        self.ancestor((agree as u8).min(self.level()).min(other.level()))
    }

    /// Axis `j`'s bit-plane of the index, moved by `d ∈ {-1, 0, 1}`
    /// octant lengths: a dilated add/subtract. The result must stay inside
    /// the 27-bit field (debug-checked); it may leave the packable window.
    #[inline]
    pub fn axis_field(self, j: usize, d: i8) -> u128 {
        self.field_moved(j, d, self.level())
    }

    /// Axis `j`'s bit-plane moved by `d` lengths of a level-`level` octant.
    #[inline]
    fn field_moved(self, j: usize, d: i8, level: u8) -> u128 {
        let m = axis_plane(D) << j;
        let f = self.idx() & m;
        let step = 1u128 << ((L - level as u32) * D as u32 + j as u32);
        let moved = match d {
            // Dilated add: fill foreign bits with ones so the carry ripples
            // across them to the next bit of this axis.
            1 => ((f | !m).wrapping_add(step)) & m,
            // Dilated subtract: foreign bits are zero, so the borrow
            // ripples across them symmetrically.
            -1 => f.wrapping_sub(step) & m,
            _ => return f,
        };
        debug_assert!((moved > f) == (d > 0), "neighbor left the key field");
        moved
    }

    /// Per axis, the index bit-planes of the same-size neighbors one
    /// length below, at, and one length above `self` (`[j][d + 1]`). OR-ing
    /// one field per axis with the level gives any neighbor's key, so a
    /// caller visiting many directions pays the `3·D` dilated adds once.
    #[inline]
    pub fn axis_fields(self) -> [[u128; 3]; D] {
        std::array::from_fn(|j| [-1, 0, 1].map(|d| self.axis_field(j, d)))
    }

    /// The same-size neighbor across direction `dir`, by per-axis dilated
    /// add/subtract on the interleaved index. The result may lie outside
    /// the root cube (but must stay inside the 27-bit coordinate field —
    /// debug checked; only packable-window results order like
    /// [`Octant::neighbor`]).
    #[inline]
    pub fn neighbor(self, dir: &Direction<D>) -> Self {
        let idx = (0..D).fold(0, |idx, j| idx | self.axis_field(j, dir[j]));
        PackedOctant(idx << KEY_LEVEL_BITS | self.level() as u128)
    }

    /// Is the same-size neighbor across `dir` a sibling (inside
    /// `parent()`)? Along every axis that `dir` moves, the child-id bit
    /// must point the other way. The root has no siblings.
    #[inline]
    pub fn neighbor_is_sibling(self, dir: &Direction<D>) -> bool {
        if self.level() == 0 {
            return false;
        }
        let id = self.child_id();
        (0..D).all(|j| dir[j] == 0 || (dir[j] > 0) == (id >> j & 1 == 0))
    }

    /// Which root-sized cell of the packable window holds the octant, per
    /// axis: `coords.div_euclid(ROOT_LEN)` in `{-1, 0, 1}`, read off the
    /// top three bit-planes — the tree step from the octant's frame to
    /// the tree that contains it.
    #[inline]
    pub fn tree_steps(self) -> [i8; D] {
        let top = self.idx() >> (24 * D);
        std::array::from_fn(|j| {
            (0..3).fold(0, |v, b| v | (((top >> (b * D + j)) & 1) << b)) as i8 - 4
        })
    }

    /// The octant moved by `steps[j] ∈ {-1, 0, 1}` root lengths along each
    /// axis `j`: a dilated add on the top three bit-planes alone, as
    /// [`PackedOctant::axis_field`] at level 0. The result must stay
    /// inside the packable window (debug-checked).
    #[inline]
    pub fn translate(self, steps: [i8; D]) -> Self {
        let idx = (0..D).fold(0, |idx, j| idx | self.field_moved(j, steps[j], 0));
        let moved = PackedOctant(idx << KEY_LEVEL_BITS | self.level() as u128);
        debug_assert!(
            moved.tree_steps().iter().all(|s| s.abs() <= 1),
            "translation leaves the packable window"
        );
        moved
    }
}

/// Batches at and above this many octants chunk across the
/// `forestbal-par` pool. Position `i` of the output is a pure function of
/// position `i` of the input, so any contiguous partition reproduces the
/// serial result exactly — the cheapest possible determinism argument.
const PAR_BATCH_MIN: usize = 1 << 15;

/// Minimum octants per parallel codec chunk.
const PAR_BATCH_CHUNK: usize = 1 << 13;

/// Slice core of [`pack_batch`]: encode `src[i]` into `dst[i]`.
#[inline]
fn pack_into<const D: usize>(src: &[Octant<D>], dst: &mut [u128]) {
    debug_assert_eq!(src.len(), dst.len());
    for (slot, o) in dst.iter_mut().zip(src) {
        *slot = key::pack(o);
    }
}

/// Slice core of [`unpack_batch`]: decode `src[i]` into `dst[i]`.
#[inline]
fn unpack_into<const D: usize>(src: &[u128], dst: &mut [Octant<D>]) {
    debug_assert_eq!(src.len(), dst.len());
    for (slot, &k) in dst.iter_mut().zip(src) {
        *slot = key::unpack(k);
    }
}

/// Pack a batch of octants into keys, appending to `dst`. Chunks across the
/// `forestbal-par` pool at `PAR_BATCH_MIN` octants; every chunking is
/// bit-identical to the serial loop.
pub fn pack_batch<const D: usize>(src: &[Octant<D>], dst: &mut Vec<u128>) {
    let base = dst.len();
    dst.resize(base + src.len(), 0);
    chunked(src, &mut dst[base..], pack_into::<D>);
}

/// Decode a batch of keys into octants, appending to `dst`. The inverse of
/// [`pack_batch`], with the same pool chunking.
pub fn unpack_batch<const D: usize>(src: &[u128], dst: &mut Vec<Octant<D>>) {
    let base = dst.len();
    dst.resize(
        base + src.len(),
        Octant {
            coords: [0; D],
            level: 0,
        },
    );
    chunked(src, &mut dst[base..], unpack_into::<D>);
}

/// Run a slice core `f` over `src` and the equally long `out`: whole, or,
/// from `PAR_BATCH_MIN` items on a pool wider than 1, on pieces split at
/// the pool's `chunk_ranges` boundaries.
fn chunked<A: Sync, B: Send>(src: &[A], out: &mut [B], f: impl Fn(&[A], &mut [B]) + Sync) {
    if src.len() >= PAR_BATCH_MIN {
        let pool = forestbal_par::current();
        if pool.threads() > 1 {
            let mut rest = out;
            let mut parts: Vec<_> = pool
                .chunk_ranges(src.len(), PAR_BATCH_CHUNK)
                .into_iter()
                .map(|r| {
                    let piece = rest.split_off_mut(..r.len());
                    (&src[r], piece.expect("ranges tile the output"))
                })
                .collect();
            pool.for_each_mut(&mut parts, &mut vec![(); pool.threads()], |_, (s, o), _| {
                f(s, o)
            });
            return;
        }
    }
    f(src, out);
}

/// Which SIMD key-codec kernels are active, as `(bmi2_pack, avx2_packable)`.
/// The key codec is the scalar dilate/contract ladders only, so this is
/// always `(false, false)`. It keeps its signature because the repo
/// benchmark (`benchmark/src/main.rs`) prints it in its run headers.
pub fn simd_active() -> (bool, bool) {
    (false, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coords::ROOT_LEN;
    use crate::direction::directions;

    type P2 = PackedOctant<2>;
    type P3 = PackedOctant<3>;

    /// All octants of the first `depth` levels under `root`, plus
    /// out-of-root translations of the level-`depth` frontier.
    fn zoo<const D: usize>(depth: u8, shifts: &[[Coord; D]]) -> Vec<Octant<D>> {
        let mut out = vec![Octant::<D>::root()];
        let mut frontier = vec![Octant::<D>::root()];
        for _ in 0..depth {
            let mut next = vec![];
            for o in frontier {
                for i in 0..Octant::<D>::NUM_CHILDREN {
                    let c = o.child(i);
                    out.push(c);
                    next.push(c);
                }
            }
            frontier = next;
        }
        let shifted: Vec<_> = out
            .iter()
            .flat_map(|o| {
                shifts.iter().map(|s| {
                    let mut c = o.coords;
                    for (x, d) in c.iter_mut().zip(s) {
                        *x += d * ROOT_LEN;
                    }
                    Octant {
                        coords: c,
                        level: o.level,
                    }
                })
            })
            .collect();
        out.extend(shifted);
        out
    }

    #[test]
    fn root_constant_matches_pack() {
        assert_eq!(P2::root(), P2::new(&Octant::root()));
        assert_eq!(P3::root(), P3::new(&Octant::root()));
    }

    fn batch_codec_thread_invariant<const D: usize>() {
        // Above `PAR_BATCH_MIN` the batch codecs chunk across the pool;
        // packed keys and decoded octants must not depend on the width,
        // appending after existing content and reusing buffers included.
        use forestbal_par::Pool;
        use std::sync::Arc;
        let n = PAR_BATCH_MIN + 321;
        let src: Vec<Octant<D>> = (0..n)
            .map(|i| Octant::<D>::root().child(i % 4).child((i / 4) % 4))
            .collect();

        let serial = Arc::new(Pool::new(1));
        let (base_keys, base_back) = serial.install(|| {
            let mut keys = vec![7u128]; // pre-existing content survives
            pack_batch(&src, &mut keys);
            let mut back = Vec::new();
            unpack_batch(&keys[1..], &mut back);
            (keys, back)
        });
        assert_eq!(base_back, src);

        for threads in [2, 3, 8] {
            let pool = Arc::new(Pool::new(threads));
            pool.install(|| {
                let mut keys = Vec::new();
                let mut back = Vec::new();
                for _ in 0..2 {
                    keys.clear();
                    keys.push(7u128);
                    pack_batch(&src, &mut keys);
                    assert_eq!(keys, base_keys, "{threads} threads: pack diverged");
                    back.clear();
                    unpack_batch(&keys[1..], &mut back);
                    assert_eq!(back, base_back, "{threads} threads: unpack diverged");
                }
            });
        }
    }

    #[test]
    fn batch_codec_bit_identical_across_thread_counts() {
        batch_codec_thread_invariant::<2>();
        batch_codec_thread_invariant::<3>();
    }

    #[test]
    fn relations_match_struct_2d() {
        for o in zoo::<2>(3, &[[-1, 0], [1, 1], [-1, -1]]) {
            let p = P2::new(&o);
            assert_eq!(p.octant(), o);
            assert_eq!(p.level(), o.level);
            assert_eq!(p.len(), o.len());
            if o.level > 0 {
                assert_eq!(p.parent().octant(), o.parent());
                assert_eq!(p.child_id(), o.child_id());
                for i in 0..4 {
                    assert_eq!(p.sibling(i).octant(), o.sibling(i));
                }
            }
            for a in 0..=o.level {
                assert_eq!(p.ancestor(a).octant(), o.ancestor(a));
            }
            if o.level < MAX_LEVEL {
                for i in 0..4 {
                    assert_eq!(p.child(i).octant(), o.child(i), "{o:?} child {i}");
                }
            }
            for lv in [o.level, MAX_LEVEL] {
                assert_eq!(p.first_descendant(lv).octant(), o.first_descendant(lv));
                assert_eq!(p.last_descendant(lv).octant(), o.last_descendant(lv));
            }
            assert_eq!(p.is_inside_root(), o.is_inside_root());
            if o.is_inside_root() {
                assert_eq!(p.index(), o.index());
                assert_eq!(p.last_index(), o.last_index());
                assert_eq!(p.cell_count(), o.cell_count());
            }
            for dir in directions::<2>() {
                let n = o.neighbor(&dir);
                if key::packable(&n) {
                    assert_eq!(p.neighbor(&dir).octant(), n, "{o:?} dir {dir:?}");
                }
            }
        }
    }

    #[test]
    fn relations_match_struct_3d() {
        for o in zoo::<3>(2, &[[-1, 0, 1], [1, 1, 1]]) {
            let p = P3::new(&o);
            assert_eq!(p.octant(), o);
            assert_eq!(p.level(), o.level);
            if o.level > 0 {
                assert_eq!(p.parent().octant(), o.parent());
                assert_eq!(p.child_id(), o.child_id());
            }
            if o.level < MAX_LEVEL {
                for i in 0..8 {
                    assert_eq!(p.child(i).octant(), o.child(i));
                }
            }
            assert_eq!(
                p.last_descendant(MAX_LEVEL).octant(),
                o.last_descendant(MAX_LEVEL)
            );
            assert_eq!(p.is_inside_root(), o.is_inside_root());
            if o.is_inside_root() {
                assert_eq!(p.index(), o.index());
                assert_eq!(p.last_index(), o.last_index());
            }
            for dir in directions::<3>() {
                let n = o.neighbor(&dir);
                if key::packable(&n) {
                    assert_eq!(p.neighbor(&dir).octant(), n, "{o:?} dir {dir:?}");
                }
            }
        }
    }

    #[test]
    fn containment_matches_struct() {
        let octs = zoo::<2>(3, &[[-1, 1]]);
        for a in &octs {
            let pa = P2::new(a);
            for b in &octs {
                let pb = P2::new(b);
                assert_eq!(pa.contains(pb), a.contains(b), "{a:?} vs {b:?}");
                assert_eq!(pa.is_ancestor_of(pb), a.is_ancestor_of(b));
                assert_eq!(pa.overlaps(pb), a.overlaps(b));
            }
        }
    }

    #[test]
    fn deep_chain_roundtrip() {
        let mut p = P3::root();
        let mut o = Octant::<3>::root();
        for i in [5usize, 0, 7, 3, 1, 6, 2, 4] {
            p = p.child(i);
            o = o.child(i);
            assert_eq!(p.octant(), o);
            assert_eq!(p.child_id(), i);
        }
        for _ in 0..8 {
            p = p.parent();
            o = o.parent();
            assert_eq!(p.octant(), o);
        }
        assert_eq!(p, P3::root());
    }

    #[test]
    fn neighbor_at_max_level() {
        // Finest-level neighbor: the dilated add must carry across many
        // foreign bits.
        let o = Octant::<2>::root().last_descendant(MAX_LEVEL);
        let p = P2::new(&o);
        for dir in directions::<2>() {
            assert_eq!(p.neighbor(&dir).octant(), o.neighbor(&dir));
        }
    }

    #[test]
    fn batch_roundtrip() {
        let octs = zoo::<3>(2, &[[-1, 0, 0]]);
        let mut keys = vec![];
        pack_batch(&octs, &mut keys);
        assert_eq!(keys.len(), octs.len());
        for (o, &k) in octs.iter().zip(&keys) {
            assert_eq!(k, key::pack(o));
        }
        let mut back = vec![];
        unpack_batch(&keys, &mut back);
        assert_eq!(back, octs);
    }

    #[test]
    fn batch_roundtrip_2d() {
        let octs = zoo::<2>(3, &[[1, -1]]);
        let mut keys = vec![];
        pack_batch(&octs, &mut keys);
        let mut back = vec![];
        unpack_batch(&keys, &mut back);
        assert_eq!(back, octs);
        for (o, &k) in octs.iter().zip(&keys) {
            assert_eq!(k, key::pack(o));
        }
    }
}
