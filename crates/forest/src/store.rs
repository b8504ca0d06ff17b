//! SoA leaf storage: flat per-tree arrays of packed Morton keys.
//!
//! Before the packed-native refactor the forest held
//! `BTreeMap<TreeId, Vec<Octant<D>>>` — 12/16-byte structs behind a
//! pointer-chasing map, converted to packed keys at every kernel boundary
//! and back. [`LeafStore`] replaces that with a sorted `Vec` of
//! `(TreeId, Vec<u128>)` pairs: the keys *are* the storage, so the radix
//! sort, linearize/merge, binary searches, and the wire codec all operate
//! on the integer arrays with zero conversion. Keys are stored as `u128`
//! regardless of dimension (2D keys occupy the low 59 bits) so the store
//! stays dimension-generic; the wire codec narrows 2D records to 8 bytes.
//!
//! The struct [`Octant`] remains the view type at API edges:
//! [`LeafSlice`] decodes on demand, yielding octants *by value*.
//!
//! Invariants (debug-checked by users at mutation sites):
//! * trees are sorted by id and hold no empty arrays;
//! * each tree's keys are sorted (integer order ≡ Morton preorder) and
//!   linear (no overlaps).

use crate::connectivity::TreeId;
use forestbal_octant::{key, Octant, PackedOctant};
use std::collections::BTreeMap;
use std::ops::Range;

/// Per-tree sorted arrays of packed leaf keys — the native storage of
/// [`crate::Forest`]. See the module docs for the layout and invariants.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct LeafStore<const D: usize> {
    /// `(tree, keys)` pairs sorted by tree id; no empty key arrays.
    trees: Vec<(TreeId, Vec<u128>)>,
}

impl<const D: usize> LeafStore<D> {
    /// New empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Remove all trees.
    pub fn clear(&mut self) {
        self.trees.clear();
    }

    /// Number of trees holding at least one local leaf.
    pub fn num_trees(&self) -> usize {
        self.trees.len()
    }

    /// Total number of local leaves.
    pub fn num_octants(&self) -> usize {
        self.trees.iter().map(|(_, v)| v.len()).sum()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }

    /// The key array of `tree`, if it has local leaves.
    pub fn get(&self, tree: TreeId) -> Option<&[u128]> {
        self.trees
            .binary_search_by_key(&tree, |&(t, _)| t)
            .ok()
            .map(|i| self.trees[i].1.as_slice())
    }

    /// Mutable key array of `tree`, if present.
    pub fn get_mut(&mut self, tree: TreeId) -> Option<&mut Vec<u128>> {
        self.trees
            .binary_search_by_key(&tree, |&(t, _)| t)
            .ok()
            .map(|i| &mut self.trees[i].1)
    }

    /// Mutable key array of `tree`, inserting an empty one (at the sorted
    /// position) if absent.
    pub fn entry(&mut self, tree: TreeId) -> &mut Vec<u128> {
        let i = match self.trees.binary_search_by_key(&tree, |&(t, _)| t) {
            Ok(i) => i,
            Err(i) => {
                self.trees.insert(i, (tree, Vec::new()));
                i
            }
        };
        &mut self.trees[i].1
    }

    /// Replace each leaf of `tree` that is a key of `reps` by its
    /// replacement run, in one merge walk over the tree's array: the
    /// untouched runs between replaced keys are copied whole, and each
    /// replaced key is found by a binary search forward of the previous
    /// one. Every key of `reps` must be a current leaf and every run a
    /// linear refinement of its key (debug-checked).
    #[inline]
    pub(crate) fn splice(&mut self, tree: TreeId, reps: BTreeMap<u128, Vec<u128>>) {
        let v = self.get_mut(tree).expect("splice in a tree without leaves");
        let added: usize = reps.values().map(Vec::len).sum();
        let mut out = Vec::with_capacity(v.len() + added - reps.len());
        let mut next = 0;
        for (k, run) in reps {
            let at = next
                + v[next..]
                    .binary_search(&k)
                    .expect("replacement for a vanished leaf");
            out.extend_from_slice(&v[next..at]);
            out.extend(run);
            next = at + 1;
        }
        out.extend_from_slice(&v[next..]);
        debug_assert!(forestbal_octant::is_linear_keys::<D>(&out));
        *v = out;
    }

    /// Iterate `(tree, keys)` in tree order.
    pub fn iter(&self) -> impl Iterator<Item = (TreeId, &[u128])> {
        self.trees.iter().map(|(t, v)| (*t, v.as_slice()))
    }

    /// Iterate `(tree, keys)` mutably in tree order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (TreeId, &mut Vec<u128>)> {
        self.trees.iter_mut().map(|(t, v)| (*t, v))
    }

    /// The first `(tree, key)` in global order.
    pub fn first(&self) -> Option<(TreeId, u128)> {
        self.trees.first().map(|(t, v)| (*t, v[0]))
    }

    /// Iterate `(tree, decoded leaves)` as [`LeafSlice`] views.
    pub fn slices(&self) -> impl Iterator<Item = (TreeId, LeafSlice<'_, D>)> {
        self.trees.iter().map(|(t, v)| (*t, LeafSlice::new(v)))
    }

    /// Verify every SoA invariant: trees sorted by id with no empty
    /// arrays, each key array sorted and linear. Intended for
    /// `debug_assert!` at mutation sites.
    pub fn check_invariants(&self) -> bool {
        self.trees.windows(2).all(|w| w[0].0 < w[1].0)
            && self
                .trees
                .iter()
                .all(|(_, v)| !v.is_empty() && forestbal_octant::is_linear_keys::<D>(v))
    }
}

/// An element of a sorted, linear key array: a local leaf key, or a
/// ghost layer entry `(key, owner)`.
pub(crate) trait Keyed: Copy {
    /// The leaf's packed key.
    fn key(self) -> u128;
}

impl Keyed for u128 {
    #[inline]
    fn key(self) -> u128 {
        self
    }
}

impl Keyed for (u128, usize) {
    #[inline]
    fn key(self) -> u128 {
        self.0
    }
}

/// The leaf of the sorted linear array `v` that contains key `n` (an
/// ancestor of or equal to it): the last entry `<= n`, if it contains `n`.
#[inline]
pub(crate) fn containing<const D: usize, T: Keyed>(v: &[T], n: u128) -> Option<T> {
    let e = *v[..v.partition_point(|e| e.key() <= n)].last()?;
    PackedOctant::<D>(e.key())
        .contains(PackedOctant(n))
        .then_some(e)
}

/// The run of leaves of the sorted linear array `v` overlapping the
/// in-root octant `n`: the leaf containing it, or the leaves inside it.
/// First and last cell indices both grow along a linear array, so the
/// run is bounded by two binary searches.
#[inline]
pub(crate) fn overlapping<const D: usize, T: Keyed>(v: &[T], n: u128) -> Range<usize> {
    let n = PackedOctant::<D>(n);
    let (lo, hi) = (n.index(), n.last_index());
    let start = v.partition_point(|e| PackedOctant::<D>(e.key()).last_index() < lo);
    let end = start + v[start..].partition_point(|e| PackedOctant::<D>(e.key()).index() <= hi);
    start..end
}

/// A read view over one tree's sorted packed keys that decodes to the
/// struct [`Octant`] on demand (by value). This is what
/// [`crate::Forest::trees`] yields, keeping mesh generators, exporters and
/// tests on the ergonomic struct API while storage stays packed.
#[derive(Clone, Copy)]
pub struct LeafSlice<'a, const D: usize> {
    keys: &'a [u128],
}

impl<'a, const D: usize> LeafSlice<'a, D> {
    /// Wrap a sorted key slice.
    pub fn new(keys: &'a [u128]) -> Self {
        LeafSlice { keys }
    }

    /// Number of leaves.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Is the slice empty?
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The underlying packed keys.
    pub fn keys(&self) -> &'a [u128] {
        self.keys
    }

    /// Decode leaf `i`.
    pub fn get(&self, i: usize) -> Octant<D> {
        key::unpack(self.keys[i])
    }

    /// Decode the first leaf.
    pub fn first(&self) -> Option<Octant<D>> {
        self.keys.first().map(|&k| key::unpack(k))
    }

    /// Decode the last leaf.
    pub fn last(&self) -> Option<Octant<D>> {
        self.keys.last().map(|&k| key::unpack(k))
    }

    /// Iterate decoded leaves in Morton order.
    pub fn iter(&self) -> impl Iterator<Item = Octant<D>> + 'a {
        self.keys.iter().map(|&k| key::unpack(k))
    }
}

impl<'a, const D: usize> IntoIterator for LeafSlice<'a, D> {
    type Item = Octant<D>;
    type IntoIter = std::iter::Map<std::slice::Iter<'a, u128>, fn(&u128) -> Octant<D>>;
    fn into_iter(self) -> Self::IntoIter {
        self.keys.iter().map(|&k| key::unpack(k))
    }
}

impl<const D: usize> std::fmt::Debug for LeafSlice<'_, D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_keeps_tree_order() {
        let mut s = LeafStore::<2>::new();
        for t in [3u32, 1, 2, 1, 0] {
            s.entry(t).push(key::pack(&Octant::<2>::root()));
        }
        let ids: Vec<_> = s.iter().map(|(t, _)| t).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        assert_eq!(s.num_octants(), 5);
        assert_eq!(s.get(1).unwrap().len(), 2);
        assert!(s.get(7).is_none());
    }

    /// The merge walk equals the per-leaf formulation (look every leaf
    /// up in the replacement map), replacements at the first and the last
    /// key included.
    #[test]
    fn splice_matches_per_leaf_replacement() {
        let children = |k: u128| (0..4).map(move |j| PackedOctant::<2>(k).child(j).0);
        let base: Vec<u128> = children(key::pack(&Octant::<2>::root()))
            .flat_map(children)
            .collect();
        let split = |k: u128| -> Vec<u128> { children(k).collect() };
        let last = base.len() - 1;
        for picks in [
            vec![0],
            vec![last],
            vec![0, last],
            vec![1, 2, 7, 8, last],
            vec![],
        ] {
            let reps: BTreeMap<u128, Vec<u128>> =
                picks.iter().map(|&i| (base[i], split(base[i]))).collect();
            let want: Vec<u128> = base
                .iter()
                .flat_map(|k| reps.get(k).cloned().unwrap_or_else(|| vec![*k]))
                .collect();
            let mut s = LeafStore::<2>::new();
            s.entry(5).extend_from_slice(&base);
            s.splice(5, reps);
            assert_eq!(s.get(5).unwrap(), &want[..], "replaced {picks:?}");
            assert!(s.check_invariants());
        }
    }

    #[test]
    fn slice_decodes() {
        let r = Octant::<2>::root();
        let leaves = [r.child(0), r.child(1), r.child(2), r.child(3)];
        let keys: Vec<u128> = leaves.iter().map(key::pack).collect();
        let s = LeafSlice::<2>::new(&keys);
        assert_eq!(s.len(), 4);
        assert_eq!(s.get(2), leaves[2]);
        assert_eq!(s.first(), Some(leaves[0]));
        assert_eq!(s.last(), Some(leaves[3]));
        let dec: Vec<_> = s.iter().collect();
        assert_eq!(dec, leaves);
    }
}
