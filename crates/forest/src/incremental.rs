//! Incremental 2:1 rebalance restricted to dirty insulation regions.
//!
//! The paper's strong-scaling headline (Fig. 16–17) is *Local* balance:
//! after a small adaptation, only the neighborhoods of changed octants
//! need rebalancing, so the cost scales with the size of the change, not
//! the mesh. This module supplies the forest-side machinery the
//! `forestbal-service` epoch loop builds on:
//!
//! * [`AdaptBatch`] / [`Forest::apply_edits`] — targeted refine/coarsen
//!   by leaf, applied in one sorted-merge pass over the SoA key arrays
//!   (edit keys are radix-sorted first; the leaf arrays are never fully
//!   re-sorted), returning the [`DirtySet`] of created leaves.
//! * [`Forest::balance_incremental`] — a *seeded* ripple: only
//!   **changed** leaves travel, the prior epoch's [`GhostLayer`] is
//!   patched in place as they arrive, and the local fixed point runs
//!   over a splice overlay so untouched parts of the leaf arrays are
//!   never rewritten or re-indexed. (The §II-B baseline
//!   [`Forest::balance_ripple`] is this engine seeded with every leaf
//!   and an empty layer.)
//!
//! ## Why the result is bit-identical to a full balance
//!
//! 2:1 balance is a closure operator: every forest has a unique minimal
//! balanced refinement, and [`Forest::balance`] (pinned against
//! [`crate::serial_forest_balance`]) computes exactly that. The seeded
//! ripple splits a leaf only when an actual current leaf forces it
//! (never speculatively), and terminates only when no rank changed
//! anything — a global fixed point of the same closure. Minimality plus
//! closure means the two algorithms cannot differ by a single leaf,
//! which the differential tests in `forestbal-service` assert leaf for
//! leaf and checksum for checksum.
//!
//! ## Round structure
//!
//! Each round: (1) announce the changed leaves whose insulation layer
//! reaches other ranks, in home-frame packed-key runs (the ghost wire
//! format); (2) receive remote changes and [`GhostLayer::patch`] them
//! in; (3) seed the worklist with the families of the received leaves
//! and, in the reverse direction, of the local leaves and ghosts at
//! least two levels finer than a received leaf inside its neighbor
//! boxes (an unchanged fine leaf must split a freshly coarsened remote
//! parent) — in round 1 also of those next to this rank's own merged
//! parents, a complete sibling family of merged parents under `Q`
//! searched once, over `Q`'s boxes ([`merged_reverse_seeds`]); a
//! reverse seed whose level filter is finer than every local leaf and
//! ghost is skipped unsearched; (4) drain the worklist to a local fixed
//! point, recording splits in the overlay; (5) vote. Step 3 is the only
//! place that reads the ghost layer to seed, and it always runs behind
//! step 2: patching *before* seeding is what keeps simultaneous
//! adaptations on both sides of a partition boundary — two ranks
//! coarsening facing families in one epoch included — from ever
//! splitting against a stale ghost entry.
//!
//! The worklist holds *family items*: the parent `P` of changed leaves,
//! one item for all `2^D` siblings (§III's `Reduce`). Popping `P` splits
//! every container coarser than `P` of `P`'s same-level neighbor box in
//! each constrained direction — exactly the union of what the children
//! would force one by one, whatever `P`'s subdivision
//! (`family_item_is_exact_{2d,3d}` in `forestbal-core`'s
//! `tests/exhaustive.rs`). The boxes that are siblings of `P` are not
//! searched: a container coarser than `P` there would contain `P`. Each
//! item is admitted once per call (leaves only get finer, so a popped
//! item stays enforced), and a merged parent gets no item of its own —
//! its pre-edit children's stronger items were already met. So each
//! constraint costs one search. Announcements stay per leaf.
//!
//! Worklist, overlay, neighbor lookups, searches and ghost patches all
//! run on packed keys; only [`AdaptBatch::refine`] and
//! [`AdaptBatch::coarsen`] take struct octants, at the API edge.

use crate::connectivity::TreeId;
use crate::forest::Forest;
use crate::ghost::GhostLayer;
use crate::reach::RunExchange;
use crate::store;
use forestbal_comm::Comm;
use forestbal_core::{merged_reverse_seeds, Condition};
use forestbal_octant::{
    codim, directions, key, sort_keys_with, Octant, OctantTable, PackedOctant, SortScratch,
    MAX_LEVEL,
};
use std::collections::{BTreeMap, VecDeque};

/// Tag of the changed-leaf announcements (per-tag [`CommStats`] slot).
///
/// [`CommStats`]: forestbal_comm::CommStats
pub const INCREMENTAL_TAG: u32 = 0xBA1A_0030;

/// A batch of targeted adaptations, addressed by leaf. Requests are
/// collected in arbitrary order; [`Forest::apply_edits`] sorts and
/// applies them in one pass. Requests that no longer apply (the leaf is
/// not local, a coarsen family is incomplete or also being refined) are
/// skipped, not errors — under batching, requests race by design.
#[derive(Clone, Debug, Default)]
pub struct AdaptBatch<const D: usize> {
    /// `(tree, packed leaf key)` pairs to replace by their children.
    refine: Vec<(TreeId, u128)>,
    /// `(tree, packed parent key)` pairs whose complete local family is
    /// to be replaced by the parent.
    coarsen: Vec<(TreeId, u128)>,
}

impl<const D: usize> AdaptBatch<D> {
    /// New empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request splitting `leaf` of `tree`.
    pub fn refine(&mut self, tree: TreeId, leaf: &Octant<D>) {
        self.refine.push((tree, key::pack(leaf)));
    }

    /// Request merging the family of `parent` in `tree`.
    pub fn coarsen(&mut self, tree: TreeId, parent: &Octant<D>) {
        self.coarsen.push((tree, key::pack(parent)));
    }

    /// Number of queued requests.
    pub fn len(&self) -> usize {
        self.refine.len() + self.coarsen.len()
    }

    /// Is the batch empty?
    pub fn is_empty(&self) -> bool {
        self.refine.is_empty() && self.coarsen.is_empty()
    }

    /// Drop all requests.
    pub fn clear(&mut self) {
        self.refine.clear();
        self.coarsen.clear();
    }

    /// Append every request of `other`.
    pub fn extend(&mut self, other: &AdaptBatch<D>) {
        self.refine.extend_from_slice(&other.refine);
        self.coarsen.extend_from_slice(&other.coarsen);
    }
}

/// The dirty set of an applied [`AdaptBatch`]: every leaf that did not
/// exist before the edits (refine children and coarsen parents), per
/// tree in Morton order. This is what seeds
/// [`Forest::balance_incremental`], and its size against
/// [`Forest::num_local`] is the service's fallback criterion.
#[derive(Clone, Debug, Default)]
pub struct DirtySet<const D: usize> {
    per_tree: BTreeMap<TreeId, Vec<u128>>,
    /// The merged parents alone: the only dirty leaves that can need
    /// *reverse* seeding, and the ones that need no family item of their
    /// own (see [`Forest::balance_incremental`]).
    coarsened_per_tree: BTreeMap<TreeId, Vec<u128>>,
    /// Leaves split by the batch.
    pub refined: u64,
    /// Families merged by the batch.
    pub coarsened: u64,
    /// Requests skipped (not a local leaf, incomplete family, conflict).
    pub skipped: u64,
}

impl<const D: usize> DirtySet<D> {
    /// Every leaf of `local` as dirty: the seed of
    /// [`Forest::balance_ripple`], under which every constraint of the
    /// forest is on the worklist.
    pub(crate) fn all_leaves(local: &crate::store::LeafStore<D>) -> Self {
        DirtySet {
            per_tree: local.iter().map(|(t, v)| (t, v.to_vec())).collect(),
            ..Self::default()
        }
    }

    /// Number of dirty leaves.
    pub fn len(&self) -> usize {
        self.per_tree.values().map(Vec::len).sum()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.per_tree.is_empty()
    }

    /// Iterate `(tree, dirty keys)` pairs in tree order.
    pub fn iter(&self) -> impl Iterator<Item = (TreeId, &[u128])> {
        self.per_tree.iter().map(|(&t, v)| (t, v.as_slice()))
    }

    /// Iterate `(tree, merged parent keys)` pairs in tree order.
    pub fn iter_coarsened(&self) -> impl Iterator<Item = (TreeId, &[u128])> {
        self.coarsened_per_tree
            .iter()
            .map(|(&t, v)| (t, v.as_slice()))
    }

    /// The merged parents of `tree`, sorted.
    fn coarsened(&self, tree: TreeId) -> &[u128] {
        self.coarsened_per_tree
            .get(&tree)
            .map_or(&[], Vec::as_slice)
    }
}

/// Outcome counters of one [`Forest::balance_incremental`] call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IncrementalReport {
    /// Communication rounds until global quiescence (≥ 1).
    pub rounds: u32,
    /// Leaves split on this rank.
    pub splits: u64,
    /// Changed-leaf announcements sent by this rank.
    pub sent_leaves: u64,
}

/// Per-tree splice overlay: `base key -> current replacement leaves`.
/// The base arrays stay untouched until `LeafStore::splice` applies every
/// accumulated split in one pass per affected tree, so a small dirty
/// region never forces a full-array rewrite per round.
type Overlay = BTreeMap<TreeId, BTreeMap<u128, Vec<u128>>>;

/// One reverse seed: `(tree, octant, min_level)`, searched by
/// [`Forest::seed_adjacent`].
type ReverseSeed = (TreeId, u128, u8);

impl<const D: usize> Forest<D> {
    /// Apply a batch of targeted edits in one sorted-merge pass per
    /// tree and return the dirty set of created leaves.
    ///
    /// The edit keys are ordered by the packed radix sort (with its
    /// presorted early-out); the leaf arrays themselves are only merged
    /// against the sorted edits, never re-sorted — per-epoch edits on a
    /// mostly-sorted [`crate::LeafStore`] cost O(N + E), not
    /// O(N log N). Refines cap at `max_level`; a coarsen applies only
    /// when the full family is local and none of its members is also
    /// being refined. Markers stay valid: splitting preserves a leaf's
    /// position and a merged parent starts where its first child did.
    pub fn apply_edits(&mut self, batch: &AdaptBatch<D>, max_level: u8) -> DirtySet<D> {
        assert!(max_level <= MAX_LEVEL);
        let mut dirty = DirtySet::default();

        // Group and radix-sort the edit keys per tree.
        let mut refines: BTreeMap<TreeId, Vec<u128>> = BTreeMap::new();
        for &(t, k) in &batch.refine {
            refines.entry(t).or_default().push(k);
        }
        let mut coarsens: BTreeMap<TreeId, Vec<u128>> = BTreeMap::new();
        for &(t, k) in &batch.coarsen {
            // A parent at `MAX_LEVEL` has no family to merge (and no
            // first child to key the merge scan by).
            if PackedOctant::<D>(k).level() >= MAX_LEVEL {
                dirty.skipped += 1;
                continue;
            }
            coarsens.entry(t).or_default().push(k);
        }
        for v in refines.values_mut().chain(coarsens.values_mut()) {
            sort_keys_with::<D>(v, &mut self.sort);
            let before = v.len();
            v.dedup();
            dirty.skipped += (before - v.len()) as u64;
        }

        let mut trees: Vec<TreeId> = refines.keys().chain(coarsens.keys()).copied().collect();
        trees.sort_unstable();
        trees.dedup();
        // Edits addressed to trees with no local leaves are all stale.
        for &t in &trees {
            if self.local.get(t).is_none() {
                dirty.skipped += (refines.get(&t).map_or(0, Vec::len)
                    + coarsens.get(&t).map_or(0, Vec::len)) as u64;
            }
        }

        // The per-tree validation/merge scans are independent: each reads
        // only its own leaf array and its own slice of the sorted edits.
        // They run as one pool task per tree with per-worker sort
        // scratch; the outcomes fold below in tree order, so the dirty
        // set (and the counters, which are sums) is identical at every
        // thread count.
        fn edits(of: &BTreeMap<TreeId, Vec<u128>>, t: TreeId) -> &[u128] {
            of.get(&t).map(Vec::as_slice).unwrap_or(&[])
        }
        let mut tasks: Vec<(TreeId, &mut Vec<u128>, TreeEdits)> = self
            .local
            .iter_mut()
            .filter(|(t, _)| trees.binary_search(t).is_ok())
            .map(|(t, v)| (t, v, TreeEdits::default()))
            .collect();
        let pool = forestbal_par::current();
        let mut sorts = vec![SortScratch::new(); pool.threads()];
        pool.for_each_mut(&mut tasks, &mut sorts, |_, (t, v, res), sort| {
            let (refi, coar) = (edits(&refines, *t), edits(&coarsens, *t));
            *res = merge_tree_edits::<D>(v, refi, coar, max_level, sort);
        });
        for (t, _, res) in tasks {
            dirty.refined += res.refined;
            dirty.coarsened += res.coarsened;
            dirty.skipped += res.skipped;
            if !res.dirty.is_empty() {
                dirty.per_tree.insert(t, res.dirty);
            }
            if !res.coarsened_keys.is_empty() {
                dirty.coarsened_per_tree.insert(t, res.coarsened_keys);
            }
        }
        debug_assert!(self.local.check_invariants());
        forestbal_trace::counter_add("incremental.refined", dirty.refined);
        forestbal_trace::counter_add("incremental.coarsened", dirty.coarsened);
        forestbal_trace::counter_add("incremental.skipped_edits", dirty.skipped);
        dirty
    }

    /// Re-establish the 2:1 condition after [`Forest::apply_edits`],
    /// touching only the insulation neighborhoods of the dirty set.
    ///
    /// `ghosts` must be the layer of the previous balanced state (from
    /// [`Forest::ghost_layer`] or a previous incremental epoch); it is
    /// patched as remote adaptations arrive and is again usable for the
    /// next epoch on return. Partition markers are *not* re-exchanged —
    /// targeted edits preserve them (see [`Forest::apply_edits`]).
    ///
    /// Produces exactly the forest a full [`Forest::balance`] of the
    /// post-edit state would (see the module docs for why).
    pub fn balance_incremental(
        &mut self,
        ctx: &impl Comm,
        cond: Condition,
        dirty: &DirtySet<D>,
        ghosts: &mut GhostLayer<D>,
    ) -> IncrementalReport {
        forestbal_trace::span_begin("incremental", || ctx.now_ns());
        let me = ctx.rank();
        let mut report = IncrementalReport::default();
        let mut work_items = 0u64;
        let mut seed_searches = 0u64;
        let mut recv_leaves = 0u64;
        let mut overlay: Overlay = BTreeMap::new();
        // Constraint worklist of family items: home-frame `(tree, key)`
        // parents of changed leaves, whose children's insulation must be
        // honored by the local leaves.
        let mut work = FamilyQueue::<D>::default();
        // Changed local leaves not yet announced to remote ranks.
        let mut pending: Vec<(TreeId, u128)> = Vec::new();

        for (t, keys) in dirty.iter() {
            let mut merged = dirty.coarsened(t).iter().peekable();
            for &k in keys {
                pending.push((t, k));
                // A merged parent gets no family item of its own: its
                // constraint is weaker than its pre-edit children's,
                // which the balanced pre-edit forest already met. Only a
                // neighbor the same batch coarsened can be too coarse
                // for it, and that neighbor's own reverse seed finds it
                // (`merged_parent_items_force_nothing_{2d,3d}` in the
                // forest's `tests/proptests.rs`).
                if merged.next_if_eq(&&k).is_none() {
                    work.push_parent(t, k);
                }
            }
        }
        // Reverse direction: pre-existing leaves and ghosts adjacent to
        // a dirty leaf may force it to split. Only *merged parents* can
        // need this: in the pre-edit balanced forest every neighbor of a
        // refined leaf is at most one level finer than it, so no
        // pre-existing leaf is ≥ 2 levels finer than its new children
        // (and a neighbor refined by the same batch is itself dirty and
        // already on the worklist). They are seeded in round 1, behind
        // the first ghost patch, together with the received leaves.
        let mut reverse: Vec<ReverseSeed> = Vec::new();
        for (t, keys) in dirty.iter_coarsened() {
            merged_reverse_seeds::<D>(keys, |k, min_level| reverse.push((t, k, min_level)));
        }
        // The finest level among local leaves and ghosts, scanned when
        // first needed. Splits never create a level finer than the finest
        // one present, so only received leaves raise it; a reverse seed
        // whose level filter exceeds it cannot find anything.
        let mut finest: Option<u8> = None;

        loop {
            report.rounds += 1;
            forestbal_trace::span_begin("incremental.round", || ctx.now_ns());

            // --- Announce changed leaves (home frame, ghost format) --
            forestbal_trace::span_begin("incremental.announce", || ctx.now_ns());
            let mut out = RunExchange::default();
            for &(t, k) in &pending {
                // A leaf split later in the same round is superseded by
                // its children, which are themselves pending. Pending
                // keys were leaves when pushed, so only an overlay
                // entry for the tree can have invalidated one.
                if overlay.contains_key(&t) && !is_current_leaf(&self.local, &overlay, t, k) {
                    continue;
                }
                let range = self.local_range(t).expect("pending leaf of a stored tree");
                let mut sent_to: Vec<usize> = Vec::new();
                self.for_each_reach(t, k, range, |owner, _, _| {
                    if owner != me && !sent_to.contains(&owner) {
                        sent_to.push(owner);
                        out.push::<D>(owner, t, k);
                        report.sent_leaves += 1;
                    }
                });
            }
            pending.clear();
            let mut received: Vec<(usize, TreeId, u128)> = Vec::new();
            out.exchange::<D>(ctx, INCREMENTAL_TAG, |src, t, keys| {
                received.extend(keys.iter().map(|&k| (src, t, k)));
            });
            recv_leaves += received.len() as u64;
            forestbal_trace::span_end(|| ctx.now_ns());

            // --- Patch the ghost layer, seed the worklist ------------
            forestbal_trace::span_begin("incremental.patch_seed", || ctx.now_ns());
            for &(src, t, gk) in &received {
                // Patch first: a simultaneous coarsen on the far side
                // must never leave its finer pre-epoch ghosts behind to
                // force unforced splits here.
                ghosts.patch(t, src, gk);
            }
            for &(_, t, gk) in &received {
                let level = PackedOctant::<D>(gk).level();
                work.push_parent(t, gk);
                reverse.push((t, gk, level + 2));
                if let Some(f) = finest.as_mut() {
                    *f = (*f).max(level);
                }
            }
            if !reverse.is_empty() {
                let finest = *finest.get_or_insert_with(|| {
                    let local = self.local.iter().flat_map(|(_, v)| v.iter().copied());
                    local
                        .chain(ghosts.keys())
                        .map(|k| PackedOctant::<D>(k).level())
                        .max()
                        .unwrap_or(0)
                });
                for seed in reverse.drain(..) {
                    if seed.2 <= finest {
                        seed_searches +=
                            self.seed_adjacent(cond, ghosts, &overlay, seed, &mut work);
                    }
                }
            }
            forestbal_trace::span_end(|| ctx.now_ns());

            // --- Local fixed point over the splice overlay -----------
            // One pop per family item P: for each constrained direction,
            // every current container of P's same-level neighbor box that
            // is coarser than P splits — exactly the union of what P's
            // children would force one by one (`family_item_is_exact_*`
            // in `forestbal-core`'s `tests/exhaustive.rs`). A box that is
            // a sibling of P is skipped: a container coarser than P would
            // hold P itself, which is never inside a local leaf
            // (`sibling_boxes_hold_no_coarser_container`, same file).
            forestbal_trace::span_begin("incremental.fixed_point", || ctx.now_ns());
            let mut changed = false;
            while let Some((t, pk)) = work.items.pop_front() {
                work_items += 1;
                let p = PackedOctant::<D>(pk);
                for dir in directions::<D>() {
                    if !cond.constrains(codim(&dir)) || p.neighbor_is_sibling(&dir) {
                        continue;
                    }
                    let Some((t2, n2)) = self.neighbor(t, p, &dir) else {
                        continue;
                    };
                    while let Some((bk, ck)) = container(&self.local, &overlay, t2, n2.0) {
                        let c = PackedOctant::<D>(ck);
                        if c.level() >= p.level() {
                            break;
                        }
                        let reps = overlay
                            .entry(t2)
                            .or_default()
                            .entry(bk)
                            .or_insert_with(|| vec![bk]);
                        let pos = reps.binary_search(&ck).expect("split target vanished");
                        reps.remove(pos);
                        for j in 0..Octant::<D>::NUM_CHILDREN {
                            let ch = c.child(j).0;
                            reps.insert(pos + j, ch);
                            pending.push((t2, ch));
                        }
                        work.push(t2, ck);
                        report.splits += 1;
                        changed = true;
                    }
                }
            }
            forestbal_trace::span_end(|| ctx.now_ns());

            forestbal_trace::span_begin("incremental.vote", || ctx.now_ns());
            let done = !ctx.allreduce_or(changed);
            forestbal_trace::span_end(|| ctx.now_ns());
            forestbal_trace::span_end(|| ctx.now_ns());
            if done {
                break;
            }
        }

        // --- Merge the overlay into the leaf arrays, one pass each ---
        forestbal_trace::span_begin("incremental.splice", || ctx.now_ns());
        for (t, reps) in overlay {
            self.local.splice(t, reps);
        }
        debug_assert!(self.local.check_invariants());
        forestbal_trace::span_end(|| ctx.now_ns());

        forestbal_trace::counter_add("incremental.rounds", report.rounds as u64);
        forestbal_trace::counter_add("incremental.splits", report.splits);
        forestbal_trace::counter_add("incremental.sent_leaves", report.sent_leaves);
        forestbal_trace::counter_add("incremental.recv_leaves", recv_leaves);
        forestbal_trace::counter_add("incremental.work_items", work_items);
        forestbal_trace::counter_add("incremental.seed_searches", seed_searches);
        forestbal_trace::span_end(|| ctx.now_ns());
        report
    }

    /// Push the families of the current local leaves and ghost entries
    /// at level `min_level` or finer inside the constrained same-level
    /// neighbor boxes of octant `k` of `tree` onto the worklist (the
    /// reverse half of the seeding; called behind the round's ghost patch
    /// only). Returns the number of boxes searched.
    ///
    /// For one changed leaf, `min_level` is two levels below it: the
    /// family item of a leaf at level `l` splits containers coarser than
    /// `l - 1` and nothing else, so a neighbor at `level ≤ k.level() + 1`
    /// cannot force any split that the pre-edit balanced state had not
    /// already satisfied. (Every other constraint a neighbor could
    /// enforce runs against pre-existing leaves, which were balanced;
    /// changed leaves each get their own seeding call.) For a complete
    /// family of merged parents, `k` is their parent and `min_level` stays
    /// two levels below the merged parents: Q's boxes hold every such
    /// octant of its children's boxes outside Q
    /// (`family_reverse_seed_covers_*` in `forestbal-core`'s
    /// `tests/exhaustive.rs`), and inside Q lie only the other merged
    /// parents. The pushed item's inner split loop then enforces its
    /// constraint to completion, so the filter never needs to re-fire as
    /// `k`'s region refines.
    fn seed_adjacent(
        &self,
        cond: Condition,
        ghosts: &GhostLayer<D>,
        overlay: &Overlay,
        (tree, k, min_level): ReverseSeed,
        work: &mut FamilyQueue<D>,
    ) -> u64 {
        let o = PackedOctant::<D>(k);
        let fine = |rk: u128| PackedOctant::<D>(rk).level() >= min_level;
        let mut searches = 0;
        for dir in directions::<D>() {
            if !cond.constrains(codim(&dir)) {
                continue;
            }
            let Some((t2, n2)) = self.neighbor(tree, o, &dir) else {
                continue;
            };
            searches += 1;
            if let Some(v) = self.local.get(t2) {
                let ov = overlay.get(&t2);
                for &bk in &v[store::overlapping::<D, _>(v, n2.0)] {
                    match ov.and_then(|m| m.get(&bk)) {
                        Some(reps) => {
                            for &rk in &reps[store::overlapping::<D, _>(reps, n2.0)] {
                                if fine(rk) {
                                    work.push_parent(t2, rk);
                                }
                            }
                        }
                        None if fine(bk) => work.push_parent(t2, bk),
                        None => {}
                    }
                }
            }
            let gv = ghosts.tree(t2);
            for &(g, _) in &gv[store::overlapping::<D, _>(gv, n2.0)] {
                if fine(g) {
                    work.push_parent(t2, g);
                }
            }
        }
        searches
    }
}

/// The fixed point's worklist of family items: `(tree, key)` of octants
/// that are not leaves, each standing for the constraints of all its
/// children at once (§III's `Reduce`: 2^D siblings impose the same coarse
/// constraint).
#[derive(Default)]
struct FamilyQueue<const D: usize> {
    items: VecDeque<(TreeId, u128)>,
    /// Every item ever queued by this call, per tree. Leaves only get
    /// finer, so an item, once popped, stays enforced: each is admitted
    /// once.
    admitted: BTreeMap<TreeId, OctantTable<D>>,
}

impl<const D: usize> FamilyQueue<D> {
    /// Push the family item `key` of `tree`, unless it was queued before.
    fn push(&mut self, tree: TreeId, key: u128) {
        if self.admitted.entry(tree).or_default().insert_key(key) {
            self.items.push_back((tree, key));
        }
    }

    /// Push the family of leaf `leaf` of `tree`. A root leaf has no
    /// family and constrains nothing.
    fn push_parent(&mut self, tree: TreeId, leaf: u128) {
        let g = PackedOctant::<D>(leaf);
        if g.level() > 0 {
            self.push(tree, g.parent().0);
        }
    }
}

/// Outcome of one tree's edit-merge scan ([`merge_tree_edits`]).
#[derive(Default)]
struct TreeEdits {
    /// Created leaves (children of refines, merged coarsen parents).
    dirty: Vec<u128>,
    /// Merged coarsen parents only.
    coarsened_keys: Vec<u128>,
    refined: u64,
    coarsened: u64,
    skipped: u64,
}

/// Validate and apply one tree's sorted refine/coarsen requests against
/// its leaf array in a single merge pass. Pure per-tree kernel: reads
/// nothing but its arguments, so [`Forest::apply_edits`] may run one
/// invocation per tree concurrently.
/// Every parent of `coar` is coarser than `MAX_LEVEL` (the caller counts
/// the others as skipped), so its first child exists.
fn merge_tree_edits<const D: usize>(
    v: &mut Vec<u128>,
    refi: &[u128],
    coar: &[u128],
    max_level: u8,
    sort: &mut SortScratch,
) -> TreeEdits {
    let nc = Octant::<D>::NUM_CHILDREN;
    let mut res = TreeEdits::default();
    // Parents keyed by their first child: that is the key the merge
    // cursor actually meets in the leaf array.
    let coar_c0: Vec<u128> = coar
        .iter()
        .map(|&p| PackedOctant::<D>(p).child(0).0)
        .collect();

    let mut out: Vec<u128> = Vec::with_capacity(v.len() + refi.len() * (nc - 1));
    let (mut ri, mut ci) = (0usize, 0usize);
    let mut i = 0usize;
    while i < v.len() {
        let k = v[i];
        while ri < refi.len() && refi[ri] < k {
            ri += 1;
            res.skipped += 1; // request for a non-leaf
        }
        while ci < coar.len() && coar_c0[ci] < k {
            ci += 1;
            res.skipped += 1; // family head not a local leaf
        }
        if ci < coar.len() && coar_c0[ci] == k {
            let p = PackedOctant::<D>(coar[ci]);
            let family_ok =
                p.level() > 0 && i + nc <= v.len() && (1..nc).all(|j| v[i + j] == p.child(j).0);
            // Refine-vs-coarsen conflict: any refine request inside the
            // family's key span wins over the merge.
            let conflict = ri < refi.len() && refi[ri] <= p.child(nc - 1).0;
            ci += 1;
            if family_ok && !conflict {
                out.push(p.0);
                res.dirty.push(p.0);
                res.coarsened_keys.push(p.0);
                res.coarsened += 1;
                i += nc;
                continue;
            }
            res.skipped += 1;
        }
        if ri < refi.len() && refi[ri] == k {
            ri += 1;
            let o = PackedOctant::<D>(k);
            if o.level() < max_level {
                for j in 0..nc {
                    let c = o.child(j).0;
                    out.push(c);
                    res.dirty.push(c);
                }
                res.refined += 1;
                i += 1;
                continue;
            }
            res.skipped += 1; // at the level cap
        }
        out.push(k);
        i += 1;
    }
    res.skipped += (refi.len() - ri) as u64 + (coar.len() - ci) as u64;
    // The merge emits in ascending key order; the radix sort's presorted
    // early-out is a pure (debug-visible) check here.
    sort_keys_with::<D>(&mut out, sort);
    debug_assert!(forestbal_octant::is_linear_keys::<D>(&out));
    *v = out;
    res
}

/// The current leaf of `tree` containing octant key `n`, viewed through
/// the overlay: `(base key, current leaf key)`, or `None` when no
/// current leaf contains `n`.
fn container<const D: usize>(
    local: &crate::store::LeafStore<D>,
    overlay: &Overlay,
    tree: TreeId,
    n: u128,
) -> Option<(u128, u128)> {
    let v = local.get(tree)?;
    let bk = store::containing::<D, _>(v, n)?;
    let ck = match overlay.get(&tree).and_then(|m| m.get(&bk)) {
        Some(reps) => store::containing::<D, _>(reps, n)?,
        None => bk,
    };
    Some((bk, ck))
}

/// Is key `k` still a leaf of `tree` under the overlay?
fn is_current_leaf<const D: usize>(
    local: &crate::store::LeafStore<D>,
    overlay: &Overlay,
    tree: TreeId,
    k: u128,
) -> bool {
    container::<D>(local, overlay, tree, k).is_some_and(|(_, ck)| ck == k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::{BalanceVariant, ReversalScheme};
    use crate::connectivity::BrickConnectivity;
    use crate::serial::is_forest_balanced;
    use forestbal_comm::Cluster;
    use std::sync::Arc;

    fn unit2() -> Arc<BrickConnectivity<2>> {
        Arc::new(BrickConnectivity::<2>::unit())
    }

    #[test]
    fn apply_edits_refines_and_coarsens() {
        let conn = unit2();
        Cluster::run(1, |ctx| {
            let mut f = Forest::new_uniform(Arc::clone(&conn), ctx, 2);
            let mut batch = AdaptBatch::new();
            // Split the first leaf, merge the last family.
            let first = f.trees().next().unwrap().1.first().unwrap();
            let last = f.trees().next().unwrap().1.last().unwrap();
            batch.refine(0, &first);
            batch.coarsen(0, &last.parent());
            let dirty = f.apply_edits(&batch, 5);
            assert_eq!(dirty.refined, 1);
            assert_eq!(dirty.coarsened, 1);
            assert_eq!(dirty.len(), 4 + 1);
            assert_eq!(f.num_local(), 16 + 3 - 3);
            // Dirty keys are all current leaves.
            for (t, keys) in dirty.iter() {
                let v = f.local.get(t).unwrap();
                for k in keys {
                    assert!(v.binary_search(k).is_ok());
                }
            }
        });
    }

    #[test]
    fn apply_edits_skips_stale_and_conflicting_requests() {
        let conn = unit2();
        Cluster::run(1, |ctx| {
            let mut f = Forest::new_uniform(Arc::clone(&conn), ctx, 2);
            let first = f.trees().next().unwrap().1.first().unwrap();
            let mut batch = AdaptBatch::new();
            batch.refine(0, &Octant::root()); // not a leaf
            batch.refine(0, &first);
            batch.refine(0, &first); // duplicate
            batch.coarsen(0, &first.parent()); // conflicts with the refine
            batch.coarsen(7, &first.parent()); // no such tree
            batch.coarsen(0, &first.first_descendant(MAX_LEVEL)); // childless parent
            let dirty = f.apply_edits(&batch, 5);
            assert_eq!(dirty.refined, 1);
            assert_eq!(dirty.coarsened, 0);
            assert_eq!(dirty.skipped, 5);
            assert!(f.local.check_invariants());
        });
    }

    #[test]
    fn apply_edits_respects_level_cap() {
        let conn = unit2();
        Cluster::run(1, |ctx| {
            let mut f = Forest::new_uniform(Arc::clone(&conn), ctx, 2);
            let first = f.trees().next().unwrap().1.first().unwrap();
            let mut batch = AdaptBatch::new();
            batch.refine(0, &first);
            let dirty = f.apply_edits(&batch, 2);
            assert_eq!(dirty.refined, 0);
            assert_eq!(dirty.skipped, 1);
            assert_eq!(f.num_local(), 16);
        });
    }

    /// Incremental rebalance after targeted edits must match a full
    /// balance of the same post-edit forest, leaf for leaf.
    fn assert_incremental_matches_full(p: usize, edits: fn(&Forest<2>) -> AdaptBatch<2>) {
        let conn = Arc::new(BrickConnectivity::<2>::new([2, 1], [false; 2]));
        let cond = Condition::full(2);
        let out = Cluster::run(p, move |ctx| {
            let mut f = Forest::new_uniform(Arc::clone(&conn), ctx, 2);
            f.refine(true, 4, |t, o| t == 0 && o.coords == [0, 0]);
            f.balance(ctx, cond, BalanceVariant::New, ReversalScheme::Notify);
            let mut ghosts = f.ghost_layer(ctx);

            let mut full = f.clone();
            let batch = edits(&f);
            let dirty = f.apply_edits(&batch, 6);
            let rep = f.balance_incremental(ctx, cond, &dirty, &mut ghosts);

            full.apply_edits(&batch, 6);
            full.balance(ctx, cond, BalanceVariant::New, ReversalScheme::Notify);

            let got = f.gather(ctx);
            let want = full.gather(ctx);
            assert!(rep.rounds >= 1);
            assert_eq!(got, want, "P={p}: incremental differs from full");
            assert_eq!(f.checksum(ctx), full.checksum(ctx));
            assert!(is_forest_balanced(f.connectivity(), &got, cond));

            // The patched layer retains every entry of a fresh one.
            let fresh = f.ghost_layer(ctx);
            for (t, owner, g) in fresh.iter() {
                assert!(
                    ghosts.contains(t, owner, &g),
                    "patched ghost layer lost {t}:{owner}:{g:?}"
                );
            }
        });
        drop(out);
    }

    #[test]
    fn incremental_refine_matches_full_balance() {
        for p in [1usize, 2, 4] {
            assert_incremental_matches_full(p, |f| {
                let mut b = AdaptBatch::new();
                // Deepest local leaf: refining it violates 2:1 around it.
                if let Some((t, v)) = f.trees().next() {
                    let deepest = v.iter().max_by_key(|o| o.level).unwrap();
                    b.refine(t, &deepest);
                }
                b
            });
        }
    }

    #[test]
    fn incremental_coarsen_matches_full_balance() {
        for p in [1usize, 2, 3] {
            assert_incremental_matches_full(p, |f| {
                let mut b = AdaptBatch::new();
                // Coarsen every complete level-2 family: the merged
                // parents sit next to finer leaves and must re-split.
                for (t, v) in f.trees() {
                    for o in v.iter() {
                        if o.level == 2 && o.child_id() == 0 {
                            b.coarsen(t, &o.parent());
                        }
                    }
                }
                b
            });
        }
    }

    #[test]
    fn incremental_empty_batch_is_quiescent() {
        let conn = unit2();
        Cluster::run(3, |ctx| {
            let mut f = Forest::new_uniform(Arc::clone(&conn), ctx, 3);
            let mut ghosts = f.ghost_layer(ctx);
            let before = f.checksum(ctx);
            let dirty = DirtySet::default();
            let rep = f.balance_incremental(ctx, Condition::full(2), &dirty, &mut ghosts);
            assert_eq!(rep.rounds, 1);
            assert_eq!(rep.splits, 0);
            assert_eq!(rep.sent_leaves, 0);
            assert_eq!(f.checksum(ctx), before);
        });
    }

    #[test]
    fn incremental_preserves_markers() {
        let conn = unit2();
        Cluster::run(4, |ctx| {
            let mut f = Forest::new_uniform(Arc::clone(&conn), ctx, 3);
            let mut ghosts = f.ghost_layer(ctx);
            let markers_before = f.markers().to_vec();
            let mut batch = AdaptBatch::new();
            if let Some((t, v)) = f.trees().next() {
                let mid = v.get(v.len() / 2);
                batch.refine(t, &mid);
            }
            let dirty = f.apply_edits(&batch, 6);
            f.balance_incremental(ctx, Condition::full(2), &dirty, &mut ghosts);
            assert_eq!(f.markers(), &markers_before[..]);
            // And they still agree with a re-exchange.
            f.update_markers(ctx);
            assert_eq!(f.markers(), &markers_before[..]);
        });
    }
}
