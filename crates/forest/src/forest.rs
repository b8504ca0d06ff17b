//! The distributed forest data structure.
//!
//! Leaves live in per-tree sorted arrays; the global order is
//! `(tree, Morton)` (Figure 2 extended across trees), and each rank owns a
//! contiguous slice of that order. Rank boundaries are published as
//! *partition markers* — the global position of every rank's first leaf —
//! which is all the shared metadata the balance algorithm needs to route
//! insulation-layer queries (the p4est `global_first_position` scheme).

use crate::codec;
use crate::connectivity::{BrickConnectivity, TreeId};
use crate::store::{LeafSlice, LeafStore};
use forestbal_comm::Comm;
use forestbal_octant::{
    is_linear_keys, key, sort_keys_with, MortonIndex, Octant, PackedOctant, SortScratch, MAX_LEVEL,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A position in the forest-wide space-filling curve: a tree and a unit
/// cell index within it.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct GlobalPos {
    /// The tree this position lies in.
    pub tree: TreeId,
    /// Unit-cell Morton index within the tree.
    pub index: MortonIndex,
}

impl GlobalPos {
    /// Sentinel position after the last tree.
    fn end(num_trees: usize) -> GlobalPos {
        GlobalPos {
            tree: num_trees as TreeId,
            index: 0,
        }
    }
}

/// Decode allgathered first-leaf payloads into the `size + 1` marker
/// table. A free function of the gather contents alone, which is what
/// lets [`forestbal_comm::shared_decode`] share the result between
/// co-threaded ranks.
fn decode_markers(all: &[Vec<u8>], num_trees: usize) -> Vec<GlobalPos> {
    let size = all.len();
    let end = GlobalPos::end(num_trees);
    let mut markers = vec![end; size + 1];
    // Fill from the back so empty ranks inherit their successor's
    // marker (their range is empty).
    for p in (0..size).rev() {
        let b = &all[p];
        markers[p] = if b[0] == 1 {
            let mut pos = 1usize;
            let tree = codec::get_u32(b, &mut pos);
            let index = MortonIndex::from_le_bytes(b[pos..pos + 16].try_into().unwrap());
            GlobalPos { tree, index }
        } else {
            markers[p + 1]
        };
    }
    markers
}

/// One rank's view of a distributed forest of octrees.
pub struct Forest<const D: usize> {
    conn: Arc<BrickConnectivity<D>>,
    rank: usize,
    size: usize,
    /// Local leaves per tree as flat sorted arrays of packed Morton keys
    /// (SoA; see [`crate::store`]); trees without local leaves are absent.
    pub(crate) local: LeafStore<D>,
    /// `size + 1` partition markers; rank `p` owns positions in
    /// `[markers[p], markers[p+1])`. `Arc`-shared: every rank decodes the
    /// markers from the *same* allgather buffer, so co-threaded ranks
    /// (the simulator's fiber backend) share one copy — a `(P+1)`-entry
    /// table per rank is ~400 GB at P = 112k, per *cluster* it is ~4 MB.
    pub(crate) markers: Arc<Vec<GlobalPos>>,
    /// Radix-sort working memory, retained across mutations so the
    /// post-edit ordering of [`Forest::refine`] / [`Forest::coarsen`] /
    /// [`Forest::apply_edits`] reuses buffers and the presorted
    /// early-out is counted per forest.
    pub(crate) sort: SortScratch,
}

impl<const D: usize> Clone for Forest<D> {
    fn clone(&self) -> Self {
        Forest {
            conn: Arc::clone(&self.conn),
            rank: self.rank,
            size: self.size,
            local: self.local.clone(),
            markers: self.markers.clone(),
            sort: SortScratch::new(),
        }
    }
}

impl<const D: usize> Forest<D> {
    /// Create a uniformly refined forest at `level`, partitioned into
    /// equal contiguous slices of the space-filling curve.
    pub fn new_uniform(conn: Arc<BrickConnectivity<D>>, ctx: &impl Comm, level: u8) -> Forest<D> {
        assert!(level <= MAX_LEVEL);
        let per_tree: u128 = 1u128 << (D as u32 * level as u32);
        let total = per_tree * conn.num_trees() as u128;
        let p = ctx.size() as u128;
        let (rank, cells) = (
            ctx.rank() as u128,
            Octant::<D>::root().cell_count() >> (D as u32 * level as u32),
        );
        let lo = total * rank / p;
        let hi = total * (rank + 1) / p;

        let mut local: LeafStore<D> = LeafStore::new();
        let mut g = lo;
        while g < hi {
            let tree = (g / per_tree) as TreeId;
            let in_tree_end = per_tree * (g / per_tree + 1);
            let run_end = hi.min(in_tree_end);
            let v = local.entry(tree);
            v.reserve((run_end - g) as usize);
            for j in g..run_end {
                let idx = (j % per_tree) * cells;
                v.push(key::pack(&Octant::<D>::from_index(idx, level)));
            }
            g = run_end;
        }
        let mut f = Forest {
            conn,
            rank: ctx.rank(),
            size: ctx.size(),
            local,
            markers: Arc::new(Vec::new()),
            sort: SortScratch::new(),
        };
        f.update_markers(ctx);
        f
    }

    /// The forest's connectivity.
    pub fn connectivity(&self) -> &Arc<BrickConnectivity<D>> {
        &self.conn
    }

    /// This rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Cluster size.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Iterate local `(tree, leaves)` pairs as decoded-on-demand views
    /// over the packed key arrays.
    pub fn trees(&self) -> impl Iterator<Item = (TreeId, LeafSlice<'_, D>)> {
        self.local.slices()
    }

    /// Iterate local `(tree, packed keys)` pairs — the raw SoA storage,
    /// for kernels that operate on keys directly.
    pub fn trees_packed(&self) -> impl Iterator<Item = (TreeId, &[u128])> {
        self.local.iter()
    }

    /// Local leaf count.
    pub fn num_local(&self) -> usize {
        self.local.num_octants()
    }

    /// Global leaf count (one allreduce).
    pub fn num_global(&self, ctx: &impl Comm) -> u64 {
        ctx.allreduce_sum(self.num_local() as u64)
    }

    /// Maximum local level (0 when empty).
    pub fn max_local_level(&self) -> u8 {
        self.local
            .iter()
            .flat_map(|(_, v)| v.iter().map(|&k| PackedOctant::<D>(k).level()))
            .max()
            .unwrap_or(0)
    }

    /// Global position of this rank's first leaf.
    pub fn first_local_pos(&self) -> Option<GlobalPos> {
        self.local.first().map(|(t, k)| GlobalPos {
            tree: t,
            index: PackedOctant::<D>(k).index(),
        })
    }

    /// The current partition markers: `size + 1` global positions, with
    /// rank `p` owning `[markers()[p], markers()[p+1])`. Exposed so
    /// protocol-level tests (e.g. the `forestbal-mc` marker-exchange
    /// scenario) can compare the exchanged markers across schedules.
    pub fn markers(&self) -> &[GlobalPos] {
        &self.markers
    }

    /// Recompute the partition markers (one allgather). Only the two
    /// operations that change leaf ownership call it: [`Forest::new_uniform`]
    /// and [`Forest::partition_weighted`]. Every other mutation keeps the
    /// table valid without communication: refining keeps a leaf's first
    /// position in its first child, coarsening a local family keeps child
    /// 0's, and balance only refines (debug builds check each of them
    /// with `markers_match_local`).
    pub fn update_markers(&mut self, ctx: &impl Comm) {
        forestbal_trace::span_begin("markers", || ctx.now_ns());
        let mut payload = Vec::with_capacity(1 + 4 + 16);
        match self.first_local_pos() {
            Some(pos) => {
                payload.push(1u8);
                codec::put_u32(&mut payload, pos.tree);
                payload.extend_from_slice(&pos.index.to_le_bytes());
            }
            None => payload.push(0u8),
        }
        let all = ctx.allgather(payload);
        let num_trees = self.conn.num_trees();
        // Decoding is a pure function of the gather buffer (plus the
        // globally agreed tree count), so co-threaded ranks — all of
        // them, under the simulator's fiber backend — share one decoded
        // marker table instead of materializing P copies of P+1 entries.
        self.markers = forestbal_comm::shared_decode(
            &all,
            0x4d41_524b ^ (num_trees as u64).rotate_left(32),
            |all| decode_markers(all, num_trees),
        );
        forestbal_trace::span_end(|| ctx.now_ns());
    }

    /// Do the markers agree with the local leaves? A non-empty rank's
    /// marker is its first leaf's position and its last leaf ends below
    /// the next rank's marker; an empty rank's range is empty. Needs no
    /// communication, so `debug_assert!` checks it after every mutation.
    pub(crate) fn markers_match_local(&self) -> bool {
        let (m, p) = (&self.markers, self.rank);
        match (self.first_local_pos(), self.local.iter().last()) {
            (Some(first), Some((tree, v))) => {
                let index = PackedOctant::<D>(v[v.len() - 1]).last_index();
                m[p] == first && GlobalPos { tree, index } < m[p + 1]
            }
            _ => m[p] == m[p + 1],
        }
    }

    /// The ranks whose partitions intersect the position range
    /// `[lo, hi]` (inclusive) in `tree`. Empty ranks are skipped.
    pub fn owners_of_range(
        &self,
        tree: TreeId,
        lo: MortonIndex,
        hi: MortonIndex,
    ) -> impl Iterator<Item = usize> + '_ {
        let lo = GlobalPos { tree, index: lo };
        let hi = GlobalPos { tree, index: hi };
        // First rank whose range can contain lo: the last p with
        // markers[p] <= lo.
        let first = self.markers.partition_point(|m| *m <= lo).saturating_sub(1);
        let markers = &self.markers;
        let size = self.size;
        (first..size)
            .take_while(move |&p| markers[p] <= hi)
            .filter(move |&p| markers[p] < markers[p + 1])
    }

    /// This rank's owned position range within `tree`, if any leaves of
    /// the tree are local: inclusive `(lo, hi)` unit-cell indices.
    pub fn local_range(&self, tree: TreeId) -> Option<(MortonIndex, MortonIndex)> {
        let v = self.local.get(tree)?;
        Some((
            PackedOctant::<D>(*v.first()?).index(),
            PackedOctant::<D>(*v.last()?).last_index(),
        ))
    }

    /// Refine local leaves: replace each leaf for which `pred` returns
    /// true (and whose level is below `max_level`) by its children. With
    /// `recursive`, newly created children are offered to `pred` again.
    /// Purely local; markers stay valid (the first leaf's position is
    /// preserved by splitting).
    pub fn refine(
        &mut self,
        recursive: bool,
        max_level: u8,
        mut pred: impl FnMut(TreeId, &Octant<D>) -> bool,
    ) {
        assert!(max_level <= MAX_LEVEL);
        for (t, v) in self.local.iter_mut() {
            let mut out: Vec<u128> = Vec::with_capacity(v.len());
            // Depth-first with an explicit stack keeps Morton order. The
            // split is pure key arithmetic; only `pred` sees a decoded view.
            let mut stack: Vec<PackedOctant<D>> = Vec::new();
            for &leaf in v.iter() {
                stack.push(PackedOctant(leaf));
                while let Some(o) = stack.pop() {
                    if o.level() < max_level && pred(t, &o.octant()) {
                        for i in (0..Octant::<D>::NUM_CHILDREN).rev() {
                            let c = o.child(i);
                            if recursive {
                                stack.push(c);
                            } else {
                                out.push(c.0);
                            }
                        }
                        if !recursive {
                            // Children were appended in reverse; fix order.
                            let n = out.len();
                            out[n - Octant::<D>::NUM_CHILDREN..].reverse();
                        }
                    } else {
                        out.push(o.0);
                    }
                }
            }
            // The DFS emits in Morton order, so this is the presorted
            // early-out of the radix sort — a linear scan, never a full
            // O(N log N) rebuild. Kept as the single ordering authority
            // so every mutation path shares the same fast path/counters.
            sort_keys_with::<D>(&mut out, &mut self.sort);
            debug_assert!(is_linear_keys::<D>(&out));
            *v = out;
        }
        debug_assert!(self.local.check_invariants());
        debug_assert!(self.markers_match_local());
    }

    /// Coarsen local leaves: replace each complete, locally owned family
    /// whose members all satisfy `pred` by its parent. One pass (not
    /// recursive). Purely local.
    pub fn coarsen(&mut self, mut pred: impl FnMut(TreeId, &Octant<D>) -> bool) {
        let nc = Octant::<D>::NUM_CHILDREN;
        for (t, v) in self.local.iter_mut() {
            let mut out: Vec<u128> = Vec::with_capacity(v.len());
            let mut i = 0;
            while i < v.len() {
                let o = PackedOctant::<D>(v[i]);
                let is_family_head = o.level() > 0
                    && o.child_id() == 0
                    && i + nc <= v.len()
                    && (1..nc).all(|j| v[i + j] == o.sibling(j).0);
                if is_family_head && (0..nc).all(|j| pred(t, &key::unpack(v[i + j]))) {
                    out.push(o.parent().0);
                    i += nc;
                } else {
                    out.push(o.0);
                    i += 1;
                }
            }
            sort_keys_with::<D>(&mut out, &mut self.sort);
            debug_assert!(is_linear_keys::<D>(&out));
            *v = out;
        }
        debug_assert!(self.local.check_invariants());
        debug_assert!(self.markers_match_local());
    }

    /// Gather the whole forest on every rank (tests and tools only): the
    /// concatenated [`Forest::serialize_local`] payloads of all ranks,
    /// read back with [`Forest::deserialize_leaves`].
    pub fn gather(&self, ctx: &impl Comm) -> BTreeMap<TreeId, Vec<Octant<D>>> {
        Self::deserialize_leaves(&ctx.allgather(self.serialize_local()).concat())
    }

    /// A position-independent checksum of the local leaves (xor-fold of
    /// coordinates and levels), combined globally by xor.
    pub fn checksum(&self, ctx: &impl Comm) -> u64 {
        let mut h = 0u64;
        for (t, v) in self.trees() {
            for o in v.iter() {
                let mut x = (t as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                for (i, &c) in o.coords.iter().enumerate() {
                    x ^= ((c as u32 as u64) << 8).rotate_left(17 * (i as u32 + 1));
                }
                x ^= o.level as u64;
                h ^= x.wrapping_mul(0xff51_afd7_ed55_8ccd);
            }
        }
        ctx.allreduce_u64(h, |a, b| a ^ b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use forestbal_comm::Cluster;

    fn unit2() -> Arc<BrickConnectivity<2>> {
        Arc::new(BrickConnectivity::<2>::unit())
    }

    #[test]
    fn uniform_forest_counts() {
        for p in [1usize, 2, 3, 5] {
            let conn = unit2();
            let out = Cluster::run(p, |ctx| {
                let f = Forest::new_uniform(Arc::clone(&conn), ctx, 3);
                (f.num_local(), f.num_global(ctx))
            });
            let total: usize = out.results.iter().map(|r| r.0).sum();
            assert_eq!(total, 64);
            for (n, g) in &out.results {
                assert_eq!(*g, 64);
                assert!(*n >= 64 / p);
            }
        }
    }

    #[test]
    fn uniform_multitree_partition() {
        let conn = Arc::new(BrickConnectivity::<2>::new([3, 2], [false; 2]));
        let out = Cluster::run(4, |ctx| {
            let f = Forest::new_uniform(Arc::clone(&conn), ctx, 2);
            (f.num_local(), f.markers.clone())
        });
        let total: usize = out.results.iter().map(|r| r.0).sum();
        assert_eq!(total, 6 * 16);
        // All ranks agree on the markers.
        for r in &out.results {
            assert_eq!(r.1, out.results[0].1);
        }
        // Markers are sorted.
        let m = &out.results[0].1;
        assert!(m.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(m[4], GlobalPos::end(6));
    }

    #[test]
    fn owners_cover_every_position() {
        let conn = Arc::new(BrickConnectivity::<2>::new([2, 1], [false; 2]));
        Cluster::run(3, |ctx| {
            let f = Forest::new_uniform(Arc::clone(&conn), ctx, 2);
            // Every leaf position is owned by exactly one rank.
            let g = f.gather(ctx);
            for (&t, v) in &g {
                for o in v {
                    let owners: Vec<_> = f.owners_of_range(t, o.index(), o.last_index()).collect();
                    assert_eq!(owners.len(), 1, "leaf {o:?} owners {owners:?}");
                }
            }
        });
    }

    #[test]
    fn refine_recursive_with_level_cap() {
        let conn = unit2();
        Cluster::run(2, |ctx| {
            let mut f = Forest::new_uniform(Arc::clone(&conn), ctx, 1);
            f.refine(true, 3, |_, o| o.coords == [0, 0]);
            if f.rank() == 0 {
                // The origin leaf was refined to level 3.
                assert_eq!(f.max_local_level(), 3);
            }
            let g = f.gather(ctx);
            let v = &g[&0];
            assert!(forestbal_octant::is_complete(v, &Octant::root()));
        });
    }

    #[test]
    fn coarsen_merges_local_families() {
        let conn = unit2();
        Cluster::run(1, |ctx| {
            let mut f = Forest::new_uniform(Arc::clone(&conn), ctx, 2);
            assert_eq!(f.num_local(), 16);
            f.coarsen(|_, _| true);
            assert_eq!(f.num_local(), 4);
            f.coarsen(|_, _| true);
            assert_eq!(f.num_local(), 1);
        });
    }

    #[test]
    fn coarsen_respects_predicate() {
        let conn = unit2();
        Cluster::run(1, |ctx| {
            let mut f = Forest::new_uniform(Arc::clone(&conn), ctx, 2);
            // Coarsen every family except the one at the origin:
            // 3 merged parents + 4 surviving origin-family leaves.
            f.coarsen(|_, o| o.parent().coords != [0, 0]);
            assert_eq!(f.num_local(), 7);
        });
    }

    #[test]
    fn checksum_is_partition_invariant() {
        let conn = Arc::new(BrickConnectivity::<2>::new([2, 2], [false; 2]));
        let mut sums = vec![];
        for p in [1usize, 2, 5] {
            let conn = Arc::clone(&conn);
            let out = Cluster::run(p, |ctx| {
                let mut f = Forest::new_uniform(Arc::clone(&conn), ctx, 2);
                f.refine(false, 3, |t, o| t == 0 && o.coords[0] == 0);
                f.checksum(ctx)
            });
            sums.push(out.results[0]);
        }
        assert_eq!(sums[0], sums[1]);
        assert_eq!(sums[0], sums[2]);
    }

    #[test]
    fn empty_rank_markers() {
        // More ranks than leaves: some ranks are empty and inherit their
        // successor's marker.
        let conn = unit2();
        Cluster::run(7, |ctx| {
            let f = Forest::new_uniform(Arc::clone(&conn), ctx, 1);
            assert_eq!(f.num_global(ctx), 4);
            for w in f.markers.windows(2) {
                assert!(w[0] <= w[1]);
            }
            let owners: Vec<_> = f
                .owners_of_range(0, 0, Octant::<2>::root().last_index())
                .collect();
            assert_eq!(owners.len(), 4);
        });
    }
}
