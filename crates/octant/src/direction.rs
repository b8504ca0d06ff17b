//! Neighbor directions in `{-1, 0, 1}^D` grouped by codimension.
//!
//! A direction selects a boundary object of an octant: directions with one
//! nonzero component cross a *face* (codimension 1), two nonzero components
//! an *edge* in 3D or a *corner* in 2D (codimension 2), and so on. The
//! `k`-balance conditions of the paper constrain neighbors across boundary
//! objects of codimension `<= k`.

/// A neighbor direction; each component is `-1`, `0`, or `1`.
pub type Direction<const D: usize> = [i8; D];

/// Codimension of the boundary object selected by `dir` (number of nonzero
/// components). The zero direction has codimension 0 (the octant itself).
#[inline]
pub fn codim<const D: usize>(dir: &Direction<D>) -> u8 {
    dir.iter().map(|&d| (d != 0) as u8).sum()
}

/// Every direction code `0..3^D` (`D <= 3`) in enumeration order, as
/// (`dir[j] + 1` per axis, codimension); the middle code is the zero
/// direction, of codimension 0.
const fn code_table<const D: usize>() -> [([u8; D], u8); 27] {
    let mut table = [([0; D], 0); 27];
    let mut code = 0;
    while code < 27 {
        let (mut c, mut j) = (code, 0);
        while j < D {
            table[code].0[j] = (c % 3) as u8;
            table[code].1 += (c % 3 != 1) as u8;
            c /= 3;
            j += 1;
        }
        code += 1;
    }
    table
}

/// The nonzero directions of codimension `<= k` in enumeration order, each
/// as its per-axis digits `dir[j] + 1` (the index into
/// `PackedOctant::axis_fields`). They are read from a table built at
/// compile time, so a caller pays no per-call setup.
pub fn direction_digits<const D: usize>(k: u8) -> impl Iterator<Item = [u8; D]> {
    let table: &[([u8; D], u8); 27] = const { &code_table::<D>() };
    table[..3usize.pow(D as u32)]
        .iter()
        .filter(move |&&(_, c)| (1..=k).contains(&c))
        .map(|&(digits, _)| digits)
}

/// All `3^D - 1` nonzero directions, in a fixed deterministic order.
pub fn directions<const D: usize>() -> impl Iterator<Item = Direction<D>> {
    direction_digits::<D>(D as u8).map(|digits| digits.map(|x| x as i8 - 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_counts() {
        assert_eq!(directions::<2>().count(), 8);
        assert_eq!(directions::<3>().count(), 26);
    }

    #[test]
    fn codim_partition_2d() {
        let faces = directions::<2>().filter(|d| codim(d) == 1).count();
        let corners = directions::<2>().filter(|d| codim(d) == 2).count();
        assert_eq!(faces, 4);
        assert_eq!(corners, 4);
    }

    #[test]
    fn codim_partition_3d() {
        let faces = directions::<3>().filter(|d| codim(d) == 1).count();
        let edges = directions::<3>().filter(|d| codim(d) == 2).count();
        let corners = directions::<3>().filter(|d| codim(d) == 3).count();
        assert_eq!(faces, 6);
        assert_eq!(edges, 12);
        assert_eq!(corners, 8);
    }

    #[test]
    fn balance_condition_filters() {
        assert_eq!(direction_digits::<3>(1).count(), 6);
        assert_eq!(direction_digits::<3>(2).count(), 18);
        assert_eq!(direction_digits::<3>(3).count(), 26);
        assert_eq!(direction_digits::<2>(1).count(), 4);
        assert_eq!(direction_digits::<2>(2).count(), 8);
    }

    #[test]
    fn enumeration_order_is_fixed() {
        // Axis 0 varies fastest; every caller's visiting order (and the
        // forest's deterministic outputs) rests on this order.
        let want = [
            [-1, -1],
            [0, -1],
            [1, -1],
            [-1, 0],
            [1, 0],
            [-1, 1],
            [0, 1],
            [1, 1],
        ];
        assert_eq!(directions::<2>().collect::<Vec<_>>(), want);
        for k in 1..=3 {
            let digits: Vec<Direction<3>> = direction_digits::<3>(k)
                .map(|d| d.map(|x| x as i8 - 1))
                .collect();
            let filtered: Vec<_> = directions::<3>().filter(|d| codim(d) <= k).collect();
            assert_eq!(digits, filtered);
        }
    }

    #[test]
    fn directions_are_unique() {
        let dirs: Vec<_> = directions::<3>().collect();
        for (i, a) in dirs.iter().enumerate() {
            for b in &dirs[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
