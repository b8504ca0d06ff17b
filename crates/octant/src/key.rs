//! Packed Morton keys: one integer per octant, ordered like [`crate::morton::cmp`].
//!
//! The balance kernels are dominated by hash membership tests and sorts on
//! 16-byte [`Octant`] structs. Packing an octant into a single integer —
//! interleaved coordinates plus the level in the low bits — turns both into
//! integer operations: the natural `<` on keys equals the Morton preorder,
//! so sorts become LSD radix sorts and hash tables become flat
//! open-addressing probes (see `sort` and `table`). This mirrors the packed
//! Morton-index quadrant representation of Burstedde et al.
//! (arXiv:2308.13615) for the p4est kernels.
//!
//! # Layout
//!
//! ```text
//! key = interleave(coords + KEY_BIAS) << 5  |  level
//! ```
//!
//! * Each coordinate is biased by [`KEY_BIAS`]` = 4 * ROOT_LEN = 2^26` into
//!   an unsigned 27-bit field, then bit-interleaved (axis `i` at bit
//!   `j*D + i` of bit-level `j`, exactly like [`crate::morton::interleave`],
//!   and on the same `dilate` ladders).
//! * The level occupies the low 5 bits (`MAX_LEVEL = 24 < 32`).
//!
//! Bit budget: 1D keys use `27 + 5 = 32` bits, 2D keys `2*27 + 5 = 59`
//! bits and fit a `u64`; 3D keys use `3*27 + 5 = 86` bits and fit a
//! `u128`. Those are the only dimensions: `pack` and `unpack` refuse
//! `D > 3` at compile time, as λ (Table II) covers `D <= 3` only.
//!
//! # Why the ordering matches
//!
//! For in-root octants, `cmp` agrees with comparison of unit-cell Morton
//! indices for disjoint octants, and puts ancestors first for overlapping
//! ones. An ancestor shares its corner's interleave prefix with every
//! descendant and has an index `<=` theirs, so the interleaved field alone
//! orders all pairs except "same corner, different level" — which the level
//! field resolves ancestor-first (coarser level = smaller key).
//!
//! For out-of-root octants, `cmp` compares coordinates shifted by `2^31`
//! (see [`crate::morton`]), which makes any sign-mixed coordinate pair
//! diverge *above* every in-range bit. The bias `2^26` reproduces this
//! exactly on the supported range `[-ROOT_LEN, 2*ROOT_LEN)`: negative
//! coordinates map to `[3*ROOT_LEN, 4*ROOT_LEN)` (bit 26 clear) and
//! non-negative ones to `[4*ROOT_LEN, 6*ROOT_LEN)` (bit 26 set), so mixed
//! pairs diverge at bit 26 while same-sign pairs diverge at bit `< 26` with
//! the same XOR as under the `2^31` shift. The supported range covers every
//! octant the algorithms construct: insulation layers and auxiliary octants
//! reach at most one root length outside the root cube.

use crate::coords::{Coord, ROOT_LEN};
use crate::dilate::{contract2, contract3_wide, dilate2, dilate3_wide};
use crate::octant::Octant;

/// Bits per packed coordinate field.
pub const KEY_COORD_BITS: u32 = 27;

/// Bits reserved for the level in the low end of the key.
pub const KEY_LEVEL_BITS: u32 = 5;

/// Coordinate bias shifting the supported range into unsigned 27-bit space
/// while preserving the order of [`crate::morton::cmp`].
pub const KEY_BIAS: Coord = 4 * ROOT_LEN;

/// Total key bits for dimension `D` (`D*27 + 5`).
pub const fn key_bits<const D: usize>() -> u32 {
    D as u32 * KEY_COORD_BITS + KEY_LEVEL_BITS
}

/// Can this octant be packed? True for every octant within one root length
/// of the root cube — all octants the balance algorithms construct.
#[inline]
pub fn packable<const D: usize>(o: &Octant<D>) -> bool {
    o.coords
        .iter()
        .all(|&c| (-ROOT_LEN..2 * ROOT_LEN).contains(&c))
}

#[inline]
fn bias(c: Coord) -> u64 {
    debug_assert!(
        (-ROOT_LEN..2 * ROOT_LEN).contains(&c),
        "coord {c} outside packable range"
    );
    (c + KEY_BIAS) as u64
}

#[inline]
fn unbias(b: u64) -> Coord {
    b as Coord - KEY_BIAS
}

/// Pack an octant into a `u128` key whose natural order equals
/// [`crate::morton::cmp`]. Supports `1 <= D <= 3` (checked at compile
/// time) and coordinates in `[-ROOT_LEN, 2*ROOT_LEN)` (checked in debug
/// builds; see [`packable`]).
#[inline]
pub fn pack<const D: usize>(o: &Octant<D>) -> u128 {
    const { assert!(1 <= D && D <= 3, "octants have 1, 2 or 3 dimensions") };
    debug_assert!(packable(o), "unpackable octant {o:?}");
    let interleaved: u128 = match D {
        1 => bias(o.coords[0]) as u128, // stride-1 dilation is the identity
        2 => (dilate2(bias(o.coords[0])) | dilate2(bias(o.coords[1])) << 1) as u128,
        _ => {
            dilate3_wide(bias(o.coords[0]))
                | dilate3_wide(bias(o.coords[1])) << 1
                | dilate3_wide(bias(o.coords[2])) << 2
        }
    };
    interleaved << KEY_LEVEL_BITS | o.level as u128
}

/// Invert [`pack`].
#[inline]
pub fn unpack<const D: usize>(key: u128) -> Octant<D> {
    const { assert!(1 <= D && D <= 3, "octants have 1, 2 or 3 dimensions") };
    let level = (key & ((1 << KEY_LEVEL_BITS) - 1)) as u8;
    let idx = key >> KEY_LEVEL_BITS;
    let coords: [Coord; D] = match D {
        1 => [unbias(idx as u64); D],
        2 => std::array::from_fn(|a| unbias(contract2(idx as u64 >> a))),
        _ => std::array::from_fn(|a| unbias(contract3_wide(idx >> a))),
    };
    Octant { coords, level }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coords::MAX_LEVEL;
    use crate::morton;

    type Oct2 = Octant<2>;
    type Oct3 = Octant<3>;

    /// All octants of the first `depth` levels of the subtree at `root`,
    /// in construction order.
    fn all_octants<const D: usize>(root: Octant<D>, depth: u8) -> Vec<Octant<D>> {
        let mut out = vec![root];
        let mut frontier = vec![root];
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
        out
    }

    #[test]
    fn key_bits_fit_the_integer() {
        assert!(key_bits::<1>() <= 64);
        assert!(key_bits::<2>() <= 64);
        assert!(key_bits::<3>() <= 128);
    }

    #[test]
    fn roundtrip_and_order_exhaustive_1d() {
        // Stride-1 dilation: the key is the biased coordinate itself.
        let mut octs = all_octants(Octant::<1>::root(), 5);
        let shifted: Vec<Octant<1>> = octs
            .iter()
            .flat_map(|o| [-1, 1].map(|s| Octant::<1>::new([o.coords[0] + s * ROOT_LEN], o.level)))
            .collect();
        octs.extend(shifted);
        for a in &octs {
            assert_eq!(unpack::<1>(pack(a)), *a);
            for b in &octs {
                assert_eq!(pack(a).cmp(&pack(b)), morton::cmp(a, b), "{a:?} vs {b:?}");
            }
        }
        edges_on_every_axis::<1>();
    }

    #[test]
    fn roundtrip_exhaustive_2d() {
        for o in all_octants(Oct2::root(), 3) {
            assert_eq!(unpack::<2>(pack(&o)), o);
            assert_eq!(unpack::<2>(pack(&o) as u64 as u128), o);
        }
    }

    #[test]
    fn roundtrip_exhaustive_3d() {
        for o in all_octants(Oct3::root(), 2) {
            assert_eq!(unpack::<3>(pack(&o)), o, "{o:?}");
        }
    }

    #[test]
    fn roundtrip_deepest_level() {
        let o = Oct3::root().first_descendant(MAX_LEVEL);
        assert_eq!(unpack::<3>(pack(&o)), o);
        let l = Oct3::root().last_descendant(MAX_LEVEL);
        assert_eq!(unpack::<3>(pack(&l)), l);
    }

    #[test]
    fn roundtrip_out_of_root() {
        let o = Oct2::root().child(0).neighbor(&[-1, -1]);
        assert!(packable(&o));
        assert_eq!(unpack::<2>(pack(&o)), o);
        let b = Oct3::root().child(7).neighbor(&[1, 1, 1]);
        assert!(packable(&b));
        assert_eq!(unpack::<3>(pack(&b)), b);
        // Extremes of the supported range.
        let lo = Octant::<2> {
            coords: [-ROOT_LEN; 2],
            level: 0,
        };
        assert!(packable(&lo));
        assert_eq!(unpack::<2>(pack(&lo)), lo);
        // Every axis of the window, at the finest level: the edge
        // coordinates pack and round-trip, one step past them does not.
        edges_on_every_axis::<2>();
        edges_on_every_axis::<3>();
    }

    fn edges_on_every_axis<const D: usize>() {
        for axis in 0..D {
            let at = |c| {
                let mut o = Octant::<D>::root().first_descendant(MAX_LEVEL);
                o.coords[axis] = c;
                o
            };
            for c in [-ROOT_LEN, 2 * ROOT_LEN - 1] {
                let o = at(c);
                assert!(packable(&o), "{o:?}");
                assert_eq!(unpack::<D>(pack(&o)), o);
            }
            for c in [-ROOT_LEN - 1, 2 * ROOT_LEN] {
                assert!(!packable(&at(c)), "D={D} axis {axis} coord {c}");
            }
        }
    }

    #[test]
    fn order_matches_morton_exhaustive_2d() {
        // Include out-of-root translations on both sides of the root.
        let mut octs = all_octants(Oct2::root(), 3);
        let shifted: Vec<Oct2> = octs
            .iter()
            .flat_map(|o| {
                [[-1, 0], [0, -1], [1, 1], [-1, -1]]
                    .iter()
                    .map(|d| {
                        let mut c = o.coords;
                        for (x, s) in c.iter_mut().zip(d) {
                            *x += s * ROOT_LEN;
                        }
                        Octant {
                            coords: c,
                            level: o.level,
                        }
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        octs.extend(shifted);
        for a in &octs {
            for b in &octs {
                assert_eq!(
                    pack(a).cmp(&pack(b)),
                    morton::cmp(a, b),
                    "key order diverges for {a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn order_matches_morton_exhaustive_3d() {
        let mut octs = all_octants(Oct3::root(), 2);
        let shifted: Vec<Oct3> = octs
            .iter()
            .map(|o| {
                let mut c = o.coords;
                c[0] -= ROOT_LEN;
                c[2] += ROOT_LEN;
                Octant {
                    coords: c,
                    level: o.level,
                }
            })
            .collect();
        octs.extend(shifted);
        for a in &octs {
            for b in &octs {
                assert_eq!(
                    pack(a).cmp(&pack(b)),
                    morton::cmp(a, b),
                    "key order diverges for {a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn u64_keys_preserve_2d_order() {
        let octs = all_octants(Oct2::root(), 3);
        for a in &octs {
            for b in &octs {
                assert_eq!((pack(a) as u64).cmp(&(pack(b) as u64)), morton::cmp(a, b));
            }
        }
    }

    #[test]
    fn ancestor_key_is_smaller() {
        let r = Oct3::root();
        let mut o = r;
        for i in [3usize, 5, 0, 7] {
            let c = o.child(i);
            assert!(pack(&o) < pack(&c));
            o = c;
        }
    }
}
