//! What a leaf's insulation layer reaches, and how keys travel there.
//!
//! The one-pass algorithm rests on one fact (§II-B): everything that can
//! split a leaf `r` lies in its insulation layer `I(r)`. "Which (rank,
//! tree, frame) does `I(r)` reach" is therefore the only routing question
//! the forest asks, and balance, ripple, ghost and incremental all ask it
//! here, on packed keys:
//!
//! * [`Forest::neighbor`] — the one neighbor lookup: a key's same-size
//!   neighbor across a direction, moved into the frame of the tree that
//!   holds it by a top-bit-plane rewrite
//!   ([`BrickConnectivity::transform_key`]);
//! * [`Forest::for_each_boundary_leaf`] — the scan: a walk over a tree's
//!   sorted leaf run that skips every subtree whose insulation box is
//!   interior (one O(1) test on the key's axis fields, then one binary
//!   search past the subtree) and hands on only the leaves whose layer
//!   leaves the partition, each tested once; for those,
//!   [`Forest::for_each_neighbor_owner`] runs direction → neighbor →
//!   partition-marker owners (no marker search for a neighbor inside the
//!   local range). [`Forest::for_each_reach`] is the same for one leaf at
//!   a time;
//! * [`RunExchange`] — the sparse neighbor exchange of packed-key tree
//!   runs that follows the scan (receivers → Notify reversal → send →
//!   receive → decode);
//! * [`Forest::containing_leaf`] — the lookup the consumers of a ghost
//!   layer make: the leaf key containing a key among local ∪ ghost, by
//!   the same key-slice search ([`store::containing`]) on both arrays.
//!
//! [`BrickConnectivity::transform_key`]: crate::BrickConnectivity::transform_key

use crate::codec::{self, RunEncoder};
use crate::connectivity::TreeId;
use crate::forest::Forest;
use crate::ghost::GhostLayer;
use crate::store;
use forestbal_comm::{reverse_notify, Comm};
use forestbal_octant::key::KEY_LEVEL_BITS;
use forestbal_octant::{directions, Direction, MortonIndex, PackedOctant, MAX_LEVEL};
use std::collections::BTreeMap;

/// The work of one [`Forest::for_each_boundary_leaf`] walk.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct WalkStats {
    /// Interior tests run: one per leaf the walk reached, plus one per
    /// ancestor tried while climbing.
    pub(crate) tests: u64,
    /// Leaves handed on: those that fail the interior test.
    pub(crate) boundary: u64,
}

impl<const D: usize> Forest<D> {
    /// Does octant `rk` of `tree` reach nothing but `(self, tree, [0; D])`?
    /// The O(1) test of the reach scan, on a leaf or on any in-root
    /// ancestor of one.
    ///
    /// `local_range` is this rank's [`Forest::local_range`] in `tree`.
    /// All Morton indices of cells inside an axis-aligned box lie between
    /// the indices of its extreme corners, and the local range is one
    /// interval of them, so an octant whose insulation bounding box stays
    /// inside the root and within the local range reaches only this rank
    /// and tree. Nothing exists beyond a non-periodic face of the brick,
    /// so the box is clamped there first: an octant on such a face is as
    /// interior as its in-forest neighbors make it. An interior octant
    /// needs no query by the insulation fact: of an unbalanced pair, one
    /// lies in the other's insulation layer. `insulation_fact_2d` and
    /// `insulation_fact_3d` (core's `tests/exhaustive.rs`) check that
    /// fact for every k against the ripple oracle.
    fn is_interior(
        &self,
        tree: TreeId,
        rk: PackedOctant<D>,
        local_range: (MortonIndex, MortonIndex),
    ) -> bool {
        let conn = self.connectivity();
        let (tc, dims, periodic) = (conn.tree_coords(tree), conn.dims(), conn.periodic());
        // The insulation bounding box's extreme unit cells, one field per
        // axis; order on a dilated field is order on its coordinate, so
        // the clamp compares fields against the root's first and last cell.
        let (lo, hi) = (
            rk.neighbor(&[-1; D]),
            rk.neighbor(&[1; D]).last_descendant(MAX_LEVEL),
        );
        let root = PackedOctant::<D>::root();
        let (first, last) = (root, root.last_descendant(MAX_LEVEL));
        let (mut lo_idx, mut hi_idx) = (0, 0);
        for j in 0..D {
            let (mut l, mut h) = (lo.axis_field(j, 0), hi.axis_field(j, 0));
            if !periodic[j] && tc[j] == 0 {
                l = l.max(first.axis_field(j, 0));
            }
            if !periodic[j] && tc[j] + 1 == dims[j] {
                h = h.min(last.axis_field(j, 0));
            }
            lo_idx |= l;
            hi_idx |= h;
        }
        let lo = PackedOctant::<D>(lo_idx << KEY_LEVEL_BITS | MAX_LEVEL as u128);
        let hi = PackedOctant::<D>(hi_idx << KEY_LEVEL_BITS | MAX_LEVEL as u128);
        lo.is_inside_root()
            && hi.is_inside_root()
            && lo.index() >= local_range.0
            && hi.index() <= local_range.1
    }

    /// Visit every `(owner, tree2, steps)` reached by the insulation layer
    /// of leaf `k` of `tree`, or nothing when [`Forest::is_interior`]
    /// rejects it: for each of the `3^D - 1` directions (in [`directions`]
    /// order) whose neighbor exists in the forest, every rank owning part
    /// of it (ascending), with the neighbor's tree and the frame change
    /// `steps` (root lengths per axis) that carries a home-frame octant
    /// into `tree2`'s frame ([`PackedOctant::translate`]). Destinations
    /// repeat across directions and the leaf's own `(rank, tree, [0; D])`
    /// is included; callers apply their own dedup and self-entry rules.
    ///
    /// This is the per-leaf form, for callers holding a few scattered
    /// leaves; a scan over a tree's leaf run walks it with
    /// [`Forest::for_each_boundary_leaf`] instead.
    pub(crate) fn for_each_reach(
        &self,
        tree: TreeId,
        k: u128,
        local_range: (MortonIndex, MortonIndex),
        visit: impl FnMut(usize, TreeId, [i8; D]),
    ) {
        if !self.is_interior(tree, PackedOctant(k), local_range) {
            self.for_each_neighbor_owner(tree, k, local_range, visit);
        }
    }

    /// [`Forest::for_each_reach`] without the interior test: the
    /// direction → neighbor → partition-marker owners loop, for a leaf
    /// already known to be on the boundary. A neighbor inside this rank's
    /// `local_range` of `tree` is owned by this rank alone, so it skips
    /// the marker search.
    pub(crate) fn for_each_neighbor_owner(
        &self,
        tree: TreeId,
        k: u128,
        local_range: (MortonIndex, MortonIndex),
        mut visit: impl FnMut(usize, TreeId, [i8; D]),
    ) {
        let rk = PackedOctant::<D>(k);
        for dir in directions::<D>() {
            let n = rk.neighbor(&dir);
            let Some((t2, n2)) = self.connectivity().transform_key(tree, n) else {
                continue;
            };
            // Home frame to `t2`'s: undo the neighbor's tree steps.
            let steps = n.tree_steps().map(|s| -s);
            if t2 == tree && n2.index() >= local_range.0 && n2.last_index() <= local_range.1 {
                visit(self.rank(), t2, steps);
                continue;
            }
            for owner in self.owners_of_range(t2, n2.index(), n2.last_index()) {
                visit(owner, t2, steps);
            }
        }
    }

    /// Hand `leaf(k)`, in order, every key of the sorted leaf run `keys`
    /// of `tree` that fails the interior test — the leaves whose
    /// insulation layer leaves the partition — testing each of them once.
    /// Callers run [`Forest::for_each_neighbor_owner`] on what they get.
    ///
    /// Interior subtrees are skipped whole. When a leaf is interior, the
    /// walk climbs to its coarsest interior ancestor `a` and jumps past
    /// every following key with `index() <= a.last_index()` (one binary
    /// search). This is exact: for `d ⊆ a` the insulation box of `d` lies
    /// inside that of `a` axis by axis, and both the face clamp and
    /// Morton order are monotone under that containment, so every leaf
    /// under an interior `a` is interior itself. Interior octants are
    /// closed under descent, so the climb stops at the first ancestor
    /// that fails. Most of a partition sits under a few such ancestors,
    /// and the walk's work follows the partition boundary, not the leaf
    /// count.
    ///
    /// `local_range` is this rank's [`Forest::local_range`] in `tree`;
    /// `keys` may be any contiguous piece of the tree's leaf run.
    pub(crate) fn for_each_boundary_leaf(
        &self,
        tree: TreeId,
        keys: &[u128],
        local_range: (MortonIndex, MortonIndex),
        mut leaf: impl FnMut(u128),
    ) -> WalkStats {
        let mut stats = WalkStats::default();
        let mut i = 0;
        while let Some(&k) = keys.get(i) {
            i += 1;
            let mut a = PackedOctant::<D>(k);
            stats.tests += 1;
            if !self.is_interior(tree, a, local_range) {
                stats.boundary += 1;
                leaf(k);
                continue;
            }
            while a.level() > 0 {
                stats.tests += 1;
                if !self.is_interior(tree, a.parent(), local_range) {
                    break;
                }
                a = a.parent();
            }
            let end = a.last_index();
            i += keys[i..].partition_point(|&k| PackedOctant::<D>(k).index() <= end);
        }
        stats
    }

    /// The same-size neighbor of octant `k` of `tree` across `dir`, in the
    /// frame of the tree that holds it, or `None` beyond the forest's
    /// boundary: the one way the forest finds a neighbor.
    /// [`Forest::for_each_neighbor_owner`] spells it out, to take the
    /// tree steps from the same home-frame key.
    #[inline]
    pub(crate) fn neighbor(
        &self,
        tree: TreeId,
        k: PackedOctant<D>,
        dir: &Direction<D>,
    ) -> Option<(TreeId, PackedOctant<D>)> {
        self.connectivity().transform_key(tree, k.neighbor(dir))
    }

    /// The leaf containing octant key `q` of `tree` (an ancestor of or
    /// equal to `q`) among the local leaves and, when given, the ghost
    /// layer.
    pub(crate) fn containing_leaf(
        &self,
        ghosts: Option<&GhostLayer<D>>,
        tree: TreeId,
        q: u128,
    ) -> Option<u128> {
        let local = self
            .local
            .get(tree)
            .and_then(|v| store::containing::<D, _>(v, q));
        local.or_else(|| Some(store::containing::<D, _>(ghosts?.tree(tree), q)?.0))
    }
}

/// Per-destination buffers of packed-key tree runs (wire format v2, see
/// [`crate::codec`]) and the one sparse exchange that ships them.
#[derive(Default)]
pub(crate) struct RunExchange {
    out: BTreeMap<usize, (Vec<u8>, RunEncoder)>,
}

impl RunExchange {
    /// Append key `k` of `tree` to the buffer bound for rank `dest`
    /// (which may be this rank: see [`RunExchange::exchange`]).
    pub(crate) fn push<const D: usize>(&mut self, dest: usize, tree: TreeId, k: u128) {
        let (buf, enc) = self.out.entry(dest).or_default();
        enc.push::<D>(buf, tree, k);
    }

    /// Collective: reverse the destination pattern with Notify, send every
    /// remote buffer under `tag` (ascending rank), then hand each received
    /// run to `absorb(src, tree, keys)` — remote senders in Notify order,
    /// a buffer addressed to this rank itself last, bypassing the network.
    pub(crate) fn exchange<const D: usize>(
        mut self,
        ctx: &impl Comm,
        tag: u32,
        mut absorb: impl FnMut(usize, TreeId, &[u128]),
    ) {
        let me = ctx.rank();
        let own = self.out.remove(&me);
        let receivers: Vec<usize> = self.out.keys().copied().collect();
        let senders = reverse_notify(ctx, &receivers);
        for (d, (mut buf, mut enc)) in self.out {
            enc.finish(&mut buf);
            ctx.send(d, tag, buf);
        }
        for s in senders {
            let (src, data) = ctx.recv(Some(s), tag);
            codec::for_each_run::<D>(&data, |t, keys| absorb(src, t, keys));
        }
        if let Some((mut buf, mut enc)) = own {
            enc.finish(&mut buf);
            codec::for_each_run::<D>(&buf, |t, keys| absorb(me, t, keys));
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::connectivity::BrickConnectivity;
    use forestbal_comm::Cluster;
    use forestbal_octant::{key, Coord, Octant, ROOT_LEN};
    use proptest::prelude::*;
    use std::sync::Arc;

    /// Deterministic pseudo-random refinement predicate from a seed.
    pub(crate) fn pseudo_refine<const D: usize>(
        seed: u64,
        t: TreeId,
        o: &Octant<D>,
        denom: u64,
    ) -> bool {
        let mut h = seed ^ (t as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        for &c in &o.coords {
            h ^= (c as u64).wrapping_mul(0xff51_afd7_ed55_8ccd);
            h = h.rotate_left(31);
        }
        h ^= o.level as u64;
        h = h.wrapping_mul(0x2545_f491_4f6c_dd1d);
        (h >> 33).is_multiple_of(denom)
    }

    /// A periodic single tree (a leaf at the root face reaches the tree
    /// itself through the wrap and must not be rejected), a multi-tree
    /// brick, a masked L-brick and a one-tree-thick slab (in 3D every
    /// leaf on a z face lies on a face of the brick, where only the clamp
    /// lets the rejection fire).
    pub(crate) fn bricks<const D: usize>() -> Vec<(&'static str, BrickConnectivity<D>)> {
        let two_by: [usize; D] = std::array::from_fn(|i| if i == 0 { 2 } else { 1 });
        let slab: [usize; D] = std::array::from_fn(|i| if i < 2 { 2 } else { 1 });
        vec![
            ("periodic", BrickConnectivity::new([1; D], [true; D])),
            ("multi", BrickConnectivity::new(two_by, [false; D])),
            (
                "ell",
                BrickConnectivity::masked(slab, [false; D], |c| !(c[0] == 1 && c[1] == 1)),
            ),
            ("slab", BrickConnectivity::new(slab, [false; D])),
        ]
    }

    /// `for_each_reach` against the 3^D loop without rejection: the same
    /// `(owner, tree, off)` sequence, up to the leaf's own
    /// `(rank, tree, [0; D])` entries — all an interior leaf produces.
    fn reach_matches_brute_force<const D: usize>(seed: u64, denom: u64, max_level: u8) {
        for (name, conn) in bricks::<D>() {
            let conn = Arc::new(conn);
            for p in [1usize, 2, 3, 5] {
                let conn = Arc::clone(&conn);
                let out = Cluster::run(p, move |ctx| {
                    let mut f = Forest::new_uniform(Arc::clone(&conn), ctx, 2);
                    f.refine(true, max_level, |t, o| pseudo_refine(seed, t, o, denom));
                    let me = ctx.rank();
                    let (mut rejected, mut clamped, mut remote) = (0usize, 0usize, 0usize);
                    for (t, keys) in f.local.iter() {
                        let range = f.local_range(t).unwrap();
                        for &k in keys {
                            let mut got = Vec::new();
                            f.for_each_reach(t, k, range, |owner, t2, off| {
                                got.push((owner, t2, off))
                            });
                            let r = key::unpack::<D>(k);
                            let mut want = Vec::new();
                            for dir in directions::<D>() {
                                let n = r.neighbor(&dir);
                                let Some((t2, n2)) = f.connectivity().transform(t, &n) else {
                                    continue;
                                };
                                let off: [i8; D] = std::array::from_fn(|i| {
                                    ((n2.coords[i] - n.coords[i]) / ROOT_LEN) as i8
                                });
                                for owner in f.owners_of_range(t2, n2.index(), n2.last_index()) {
                                    want.push((owner, t2, off));
                                }
                            }
                            let own = (me, t, [0; D]);
                            if got.is_empty() {
                                rejected += 1;
                                // On a face of its tree: its insulation box
                                // leaves the root, so the clamp rejected it.
                                let on_face = |&c: &Coord| c == 0 || c + r.len() == ROOT_LEN;
                                clamped += r.coords.iter().any(on_face) as usize;
                                want.retain(|d| *d != own);
                            }
                            remote += want.iter().filter(|d| **d != own).count();
                            assert_eq!(got, want, "{name} P={p} tree {t} leaf {r:?}");
                        }
                    }
                    (rejected, clamped, remote)
                });
                let rejected: usize = out.results.iter().map(|r| r.0).sum();
                let clamped: usize = out.results.iter().map(|r| r.1).sum();
                let remote: usize = out.results.iter().map(|r| r.2).sum();
                if p == 1 {
                    assert!(rejected > 0, "{name}: the rejection never fired");
                    assert!(
                        clamped > 0 || name == "periodic",
                        "{name}: no leaf on a brick face was rejected"
                    );
                }
                assert!(remote > 0, "{name} P={p}: nothing reaches out");
            }
        }
    }

    /// `for_each_boundary_leaf` against the per-leaf filter: on every
    /// tree run it hands on, in order, exactly the keys `for_each_reach`
    /// visits anything for (a superset of those reaching another rank,
    /// tree or frame: beside the L-brick's hole no clamp applies, so a leaf
    /// there fails the interior test and still reaches only itself). It
    /// also runs exactly the interior tests of one climb per skipped
    /// subtree: each leaf it reaches once, then the ancestors up to the
    /// first that fails. The skipped subtrees are derived independently: an
    /// interior leaf's coarsest interior ancestor, from all its ancestors,
    /// and one skip per run of leaves sharing it. Tree 0 is also refined
    /// down to `MAX_LEVEL` at the first and last cell of its first level-1
    /// child, which is interior on one rank unless the brick is periodic:
    /// a skipped subtree then starts with a climb of 23 levels and ends in
    /// a unit-cell leaf.
    fn boundary_walk_matches_per_leaf<const D: usize>(seed: u64, denom: u64, max_level: u8) {
        let corner = Octant::<D>::root().child(0);
        let deep = [
            corner.first_descendant(MAX_LEVEL),
            corner.last_descendant(MAX_LEVEL),
        ];
        for (name, conn) in bricks::<D>() {
            let conn = Arc::new(conn);
            for p in [1usize, 2, 3, 5] {
                let conn = Arc::clone(&conn);
                let out = Cluster::run(p, move |ctx| {
                    let mut f = Forest::new_uniform(Arc::clone(&conn), ctx, 2);
                    f.refine(true, MAX_LEVEL, |t, o| {
                        (o.level < max_level && pseudo_refine(seed, t, o, denom))
                            || (t == 0 && deep.iter().any(|d| o.contains(d)))
                    });
                    let (mut skips, mut deep_skips) = (0usize, 0usize);
                    for (t, keys) in f.local.iter() {
                        let range = f.local_range(t).unwrap();
                        let mut got = Vec::new();
                        let walk = f.for_each_boundary_leaf(t, keys, range, |k| got.push(k));
                        let mut want = Vec::new();
                        let mut tests = 0;
                        let mut last_skip = None;
                        for &k in keys {
                            let mut reaches = false;
                            f.for_each_reach(t, k, range, |_, _, _| reaches = true);
                            if reaches {
                                want.push(k);
                                tests += 1;
                                continue;
                            }
                            let rk = PackedOctant::<D>(k);
                            let interior = |l: u8| f.is_interior(t, rk.ancestor(l), range);
                            let top = (0..=rk.level()).rev().take_while(|&l| interior(l));
                            let a = rk.ancestor(top.last().expect("a silent leaf is interior"));
                            if last_skip.replace(a) == Some(a) {
                                continue; // under the subtree skipped already
                            }
                            let climb = u64::from(rk.level() - a.level());
                            tests += 1 + climb + u64::from(a.level() > 0);
                            skips += 1;
                            deep_skips += usize::from(climb >= 2);
                        }
                        assert_eq!(got, want, "{name} P={p} tree {t}: walked leaves");
                        let boundary = want.len() as u64;
                        let expect = WalkStats { tests, boundary };
                        assert_eq!(walk, expect, "{name} P={p} tree {t}: walk work");
                    }
                    (skips, deep_skips)
                });
                let skips: usize = out.results.iter().map(|r| r.0).sum();
                let deep_skips: usize = out.results.iter().map(|r| r.1).sum();
                if p == 1 {
                    assert!(skips > 0, "{name}: no subtree was skipped");
                    assert!(
                        deep_skips > 0 || name == "periodic",
                        "{name}: no skip climbed two levels"
                    );
                }
            }
        }
    }

    proptest! {
        // Each case spawns 16 clusters; keep the counts modest.
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn reach_matches_brute_force_2d(seed in any::<u64>(), denom in 2u64..5) {
            reach_matches_brute_force::<2>(seed, denom, 5);
        }

        #[test]
        fn reach_matches_brute_force_3d(seed in any::<u64>(), denom in 3u64..6) {
            reach_matches_brute_force::<3>(seed, denom, 4);
        }

        #[test]
        fn boundary_walk_matches_per_leaf_2d(seed in any::<u64>(), denom in 2u64..5) {
            boundary_walk_matches_per_leaf::<2>(seed, denom, 5);
        }

        #[test]
        fn boundary_walk_matches_per_leaf_3d(seed in any::<u64>(), denom in 3u64..6) {
            boundary_walk_matches_per_leaf::<3>(seed, denom, 4);
        }
    }
}
