//! Operations on *linear octrees*: sorted arrays of non-overlapping octants.
//!
//! A linear octree stores only leaves, in Morton order. Two additional
//! predicates matter throughout the balance algorithms: *linearity* (no
//! octant is an ancestor of another) and *completeness* (no holes between
//! successive octants). `linearize` restores the former by dropping
//! ancestors, `complete_subtree` restores the latter by filling every gap
//! with the coarsest possible octants. Both work on packed keys
//! ([`linearize_keys_with`], [`complete_subtree_keys`]); the struct
//! versions pack, call them, and unpack.

use crate::coords::MAX_LEVEL;
use crate::key::KEY_LEVEL_BITS;
use crate::morton::MortonIndex;
use crate::octant::Octant;
use crate::packed::{pack_batch, unpack_batch, PackedOctant};
use crate::sort::{sort_keys_with, SortScratch};

/// Is the sorted slice linear, i.e. free of overlapping octants?
///
/// Because ancestors sort immediately before their first descendant, it
/// suffices to check adjacent entries.
pub fn is_linear<const D: usize>(a: &[Octant<D>]) -> bool {
    a.windows(2)
        .all(|w| w[0] < w[1] && !w[0].is_ancestor_of(&w[1]))
}

/// [`is_linear`] over packed keys: strictly sorted (integer order equals
/// Morton preorder) with no ancestor/descendant pairs. The native check of
/// the SoA forest storage — no decode.
pub fn is_linear_keys<const D: usize>(keys: &[u128]) -> bool {
    keys.windows(2)
        .all(|w| w[0] < w[1] && !PackedOctant::<D>(w[0]).is_ancestor_of(PackedOctant(w[1])))
}

/// Is the sorted linear slice a complete octree of `root` (no holes)?
pub fn is_complete<const D: usize>(a: &[Octant<D>], root: &Octant<D>) -> bool {
    if a.is_empty() {
        return false;
    }
    if a[0].index() != root.index() {
        return false;
    }
    if a[a.len() - 1].last_index() != root.last_index() {
        return false;
    }
    a.windows(2).all(|w| w[0].last_index() + 1 == w[1].index())
}

/// Sort the array and remove every octant that overlaps a finer one (and
/// exact duplicates), keeping the finest octants. Runs on the packed keys
/// (see [`linearize_keys_with`]), so the octants must be packable.
pub fn linearize<const D: usize>(a: &mut Vec<Octant<D>>) {
    let mut keys = Vec::with_capacity(a.len());
    pack_batch(a, &mut keys);
    linearize_keys_with::<D>(&mut keys, &mut SortScratch::new());
    a.clear();
    unpack_batch(&keys, a);
}

/// The `Linearize` step of the old balance algorithm (Figure 6) on packed
/// keys, with caller-provided sort scratch for hot loops: sort, drop
/// duplicates and every key that is an ancestor of another.
///
/// Runs in O(n) per radix digit for the sort plus O(n) for the sweep, and
/// skips sorting entirely when the input is already strictly sorted (the
/// common case for splice and completion outputs).
pub fn linearize_keys_with<const D: usize>(a: &mut Vec<u128>, s: &mut SortScratch) {
    if !a.windows(2).all(|w| w[0] < w[1]) {
        sort_keys_with::<D>(a, s);
        a.dedup();
    }
    // An ancestor sorts directly before its first present descendant, so a
    // single backward-looking sweep removes all overlaps.
    let mut w = 0;
    for r in 0..a.len() {
        while w > 0 && PackedOctant::<D>(a[w - 1]).is_ancestor_of(PackedOctant(a[r])) {
            w -= 1;
        }
        a[w] = a[r];
        w += 1;
    }
    a.truncate(w);
}

/// Append to `out` the keys of the coarsest in-root octants exactly
/// covering the inclusive Morton-index interval `[lo, hi]` (indices of
/// unit cells at `MAX_LEVEL`), in Morton order.
///
/// This is the canonical decomposition of an SFC interval into maximal
/// aligned octants. An in-root key is its unit-cell index with the three
/// bias planes set, shifted above the level field, so each octant is
/// emitted as `((pos | bias planes) << 5) | level` without a coordinate.
pub fn complete_region_keys<const D: usize>(lo: MortonIndex, hi: MortonIndex, out: &mut Vec<u128>) {
    let d = D as u32;
    let bias = PackedOctant::<D>::root().idx();
    let mut pos = lo;
    while pos <= hi {
        // Largest granularity allowed by the alignment of `pos`...
        let align = if pos == 0 {
            MAX_LEVEL as u32
        } else {
            (pos.trailing_zeros() / d).min(MAX_LEVEL as u32)
        };
        // ...and by the remaining extent of the interval.
        let remaining = hi - pos + 1;
        let extent = (127 - remaining.leading_zeros()) / d;
        let s = align.min(extent);
        out.push((pos | bias) << KEY_LEVEL_BITS | (MAX_LEVEL as u32 - s) as u128);
        pos += 1u128 << (d * s);
    }
}

/// Complete the subtree rooted at `root` on packed keys: given sorted,
/// linear, pinned leaves inside `root`, append to `out` the complete
/// linear octree of `root` that keeps every leaf and fills every gap
/// (before the first leaf, between successive leaves, after the last) with
/// the coarsest octants. With no leaves the result is `[root]`.
pub fn complete_subtree_keys<const D: usize>(
    root: PackedOctant<D>,
    leaves: &[u128],
    out: &mut Vec<u128>,
) {
    debug_assert!(is_linear_keys::<D>(leaves));
    debug_assert!(
        leaves.iter().all(|&k| root.contains(PackedOctant(k))),
        "leaf outside root"
    );
    let mut cursor = root.index();
    for &leaf in leaves {
        let p = PackedOctant::<D>(leaf);
        if p.index() > cursor {
            complete_region_keys::<D>(cursor, p.index() - 1, out);
        }
        out.push(leaf);
        cursor = p.last_index() + 1;
    }
    if cursor <= root.last_index() {
        complete_region_keys::<D>(cursor, root.last_index(), out);
    }
}

/// [`complete_subtree_keys`] on struct octants.
pub fn complete_subtree<const D: usize>(root: &Octant<D>, leaves: &[Octant<D>]) -> Vec<Octant<D>> {
    let mut keys = Vec::with_capacity(leaves.len());
    pack_batch(leaves, &mut keys);
    let mut out = Vec::with_capacity(leaves.len() * 2 + 1);
    complete_subtree_keys(PackedOctant::new(root), &keys, &mut out);
    let mut octs = Vec::with_capacity(out.len());
    unpack_batch(&out, &mut octs);
    octs
}

/// Merge two sorted arrays (octants or keys) into one sorted array
/// (duplicates kept).
pub fn merge_sorted<T: Copy + Ord>(a: &[T], b: &[T]) -> Vec<T> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] <= b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    type Oct2 = Octant<2>;
    type Oct3 = Octant<3>;

    fn keys<const D: usize>(octs: &[Octant<D>]) -> Vec<u128> {
        octs.iter().map(crate::key::pack).collect()
    }

    fn octants<const D: usize>(keys: &[u128]) -> Vec<Octant<D>> {
        keys.iter().map(|&k| crate::key::unpack(k)).collect()
    }

    #[test]
    fn linearize_removes_ancestors() {
        let r = Oct2::root();
        let mut v = vec![r, r.child(0), r.child(0).child(2), r.child(3), r.child(0)];
        linearize(&mut v);
        assert_eq!(v, vec![r.child(0).child(2), r.child(3)]);
        assert!(is_linear(&v));
    }

    #[test]
    fn linearize_handles_ancestor_chains() {
        let r = Oct3::root();
        let deep = r.child(0).child(0).child(5);
        let mut v = vec![r, r.child(0), r.child(0).child(0), deep];
        linearize(&mut v);
        assert_eq!(v, vec![deep]);
    }

    #[test]
    fn linearize_sorted_fast_path_preserves_semantics() {
        // Strictly sorted input with ancestor chains: the fast path skips
        // the sort but must still run the ancestor sweep.
        let r = Oct3::root();
        let deep = r.child(0).child(0).child(5);
        let mut fast = keys(&[r, r.child(0), r.child(0).child(0), deep, r.child(2)]);
        assert!(fast.windows(2).all(|w| w[0] < w[1]));
        let mut slow = fast.clone();
        slow.reverse(); // force the sorting path
        let mut s = SortScratch::new();
        linearize_keys_with::<3>(&mut fast, &mut s);
        assert_eq!(s.presorted_hits + s.radix_sorts + s.comparison_fallbacks, 0);
        linearize_keys_with::<3>(&mut slow, &mut s);
        assert_eq!(s.comparison_fallbacks, 1);
        assert_eq!(fast, slow);
        assert_eq!(octants::<3>(&fast), vec![deep, r.child(2)]);
    }

    #[test]
    fn uniform_tree_is_complete() {
        let r = Oct2::root();
        let mut v: Vec<_> = (0..4)
            .flat_map(|i| (0..4).map(move |j| (i, j)))
            .map(|(i, j)| r.child(i).child(j))
            .collect();
        v.sort();
        assert!(is_linear(&v));
        assert!(is_complete(&v, &r));
    }

    #[test]
    fn incomplete_tree_detected() {
        let r = Oct2::root();
        let v = vec![r.child(0), r.child(1), r.child(3)];
        assert!(is_linear(&v));
        assert!(!is_complete(&v, &r));
    }

    #[test]
    fn complete_region_whole_root() {
        let r = Oct3::root();
        let mut out = vec![];
        complete_region_keys::<3>(r.index(), r.last_index(), &mut out);
        assert_eq!(octants::<3>(&out), vec![r]);
    }

    #[test]
    fn complete_region_three_siblings() {
        // Gap from after child 0 to end of root = children 1, 2, 3.
        let r = Oct2::root();
        let c0 = r.child(0);
        let mut out = vec![];
        complete_region_keys::<2>(c0.last_index() + 1, r.last_index(), &mut out);
        assert_eq!(out, keys(&[r.child(1), r.child(2), r.child(3)]));
    }

    #[test]
    fn complete_subtree_empty_input() {
        let root = Oct2::root().child(2);
        let out = complete_subtree(&root, &[]);
        assert_eq!(out, vec![root]);
    }

    #[test]
    fn complete_subtree_single_deep_leaf() {
        let root = Oct2::root();
        let leaf = root.child(0).child(0).child(0);
        let out = complete_subtree(&root, &[leaf]);
        assert!(is_linear(&out));
        assert!(is_complete(&out, &root));
        assert!(out.contains(&leaf));
        // Coarsest completion: siblings of the leaf at each level.
        // 3 siblings at level 3, 3 at level 2, 3 at level 1, plus leaf.
        assert_eq!(out.len(), 10);
        // Everything other than the chain to the leaf stays maximal.
        assert!(out.contains(&root.child(3)));
        assert!(out.contains(&root.child(0).child(3)));
        assert!(out.contains(&root.child(0).child(0).child(3)));
    }

    #[test]
    fn complete_subtree_preserves_pins() {
        let root = Oct3::root();
        let pins = {
            let mut p = vec![
                root.child(1).child(7),
                root.child(4),
                root.child(6).child(0).child(0),
            ];
            p.sort();
            p
        };
        let out = complete_subtree(&root, &pins);
        assert!(is_linear(&out));
        assert!(is_complete(&out, &root));
        for p in &pins {
            assert!(out.contains(p), "pinned leaf {p:?} missing");
        }
    }

    #[test]
    fn complete_region_matches_cell_counts() {
        // Total cells covered equals interval length.
        let r = Oct2::root();
        let a = r.child(0).child(1).child(2);
        let b = r.child(3).child(0);
        let mut out = vec![];
        complete_region_keys::<2>(a.last_index() + 1, b.index() - 1, &mut out);
        let total: u128 = out.iter().map(|&k| PackedOctant::<2>(k).cell_count()).sum();
        assert_eq!(total, b.index() - a.last_index() - 1);
        assert!(is_linear_keys::<2>(&out));
        assert_eq!(out, keys(&octants::<2>(&out)), "emitted keys are canonical");
    }

    #[test]
    fn merge_sorted_interleaves() {
        let r = Oct2::root();
        let a = vec![r.child(0), r.child(2)];
        let b = vec![r.child(1), r.child(3)];
        let m = merge_sorted(&a, &b);
        assert_eq!(m, vec![r.child(0), r.child(1), r.child(2), r.child(3)]);
        assert_eq!(merge_sorted(&keys(&a), &keys(&b)), keys(&m));
    }
}
