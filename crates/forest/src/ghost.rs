//! Ghost layers: each rank's copy of the remote leaves adjacent to its
//! partition.
//!
//! Not used by the balance algorithm itself (which exchanges queries and
//! seeds instead), but the canonical next step for any numerical code on
//! a partitioned forest, and a good consumer of the same insulation/
//! marker machinery. Mirrors p4est's `ghost` module: one layer of
//! neighbor octants across faces, edges, and corners, including across
//! tree boundaries.
//!
//! The layer is packed keys end to end, searched like the local leaf
//! arrays; only [`GhostLayer::iter`] and [`GhostLayer::contains`] decode
//! or encode, at the API edge.

use crate::connectivity::TreeId;
use crate::forest::Forest;
use crate::reach::RunExchange;
use crate::store;
use forestbal_comm::Comm;
use forestbal_octant::{directions, key, Octant, PackedOctant};
use std::collections::BTreeMap;

const GHOST_TAG: u32 = 0xBA1A_0020;

/// Minimum leaves per chunk when the candidate scan runs on the pool;
/// below this the per-chunk overhead beats the win.
const GHOST_PAR_CHUNK: usize = 1 << 10;

/// The remote leaves adjacent to this rank's partition, each with its
/// owner rank, stored under their *home* tree as in-root packed keys and
/// sorted per tree like [`crate::LeafStore`] (key order is Morton order).
/// [`GhostLayer::iter`] and [`GhostLayer::contains`] speak [`Octant`] at
/// the edge.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GhostLayer<const D: usize> {
    per_tree: BTreeMap<TreeId, Vec<(u128, usize)>>,
}

impl<const D: usize> GhostLayer<D> {
    /// Ghosts of one tree as `(key, owner)`, sorted by key.
    pub(crate) fn tree(&self, t: TreeId) -> &[(u128, usize)] {
        self.per_tree.get(&t).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Every entry's packed key, tree by tree.
    pub(crate) fn keys(&self) -> impl Iterator<Item = u128> + '_ {
        self.per_tree.values().flatten().map(|&(k, _)| k)
    }

    /// Iterate all `(tree, owner, octant)` triples, decoded by value.
    pub fn iter(&self) -> impl Iterator<Item = (TreeId, usize, Octant<D>)> + '_ {
        self.per_tree
            .iter()
            .flat_map(|(&t, v)| v.iter().map(move |&(k, o)| (t, o, key::unpack(k))))
    }

    /// Total number of ghost octants.
    pub fn len(&self) -> usize {
        self.per_tree.values().map(Vec::len).sum()
    }

    /// Is the layer empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Splice a changed remote leaf, given as its packed key, into the
    /// layer: the run of entries of `t` overlapping it (a stale ancestor,
    /// or the pre-split/pre-coarsen leaves of its region) is replaced by
    /// `(g, owner)`. The incremental balance of [`crate::incremental`]
    /// keeps a prior epoch's layer exact with this as remote adaptations
    /// arrive.
    pub fn patch(&mut self, t: TreeId, owner: usize, g: u128) {
        let v = self.per_tree.entry(t).or_default();
        let run = store::overlapping::<D, _>(v, g);
        v.splice(run, [(g, owner)]);
    }

    /// Does the layer contain exactly this `(tree, owner, octant)` entry?
    pub fn contains(&self, t: TreeId, owner: usize, g: &Octant<D>) -> bool {
        let v = self.tree(t);
        v.binary_search_by_key(&key::pack(g), |&(k, _)| k)
            .is_ok_and(|i| v[i].1 == owner)
    }
}

impl<const D: usize> Forest<D> {
    /// Collect the ghost layer: every remote leaf whose insulation layer
    /// overlaps this rank's partition, across tree boundaries included —
    /// every remote leaf touching one of ours, plus those within one own
    /// length of a finer one.
    pub fn ghost_layer(&mut self, ctx: &impl Comm) -> GhostLayer<D> {
        forestbal_trace::span_begin("ghost", || ctx.now_ns());
        self.update_markers(ctx);
        let me = ctx.rank();

        // Symmetric construction: send each of my boundary leaves, in its
        // *home* tree and coordinates, to every rank owning part of its
        // insulation layer; what I receive is exactly my ghost layer. The
        // leaf ships as its packed key straight out of the SoA storage,
        // framed into tree runs (wire format v2).
        //
        // Candidate generation is the boundary walk of the reach scan:
        // interior subtrees are skipped whole, and only the leaves whose
        // insulation layer leaves the partition run the direction/ownership
        // loop. It is chunked across the pool: each chunk walks its piece
        // of the tree run and emits its `(owner, key)` pairs in leaf order,
        // and the encoder replays them in chunk order below — byte-identical
        // buffers for any thread count.
        let this: &Forest<D> = self;
        let pool = forestbal_par::current();
        let mut chunks: Vec<(TreeId, &[u128])> = Vec::new();
        for (t, keys) in this.local.iter() {
            for r in pool.chunk_ranges(keys.len(), GHOST_PAR_CHUNK) {
                if !r.is_empty() {
                    chunks.push((t, &keys[r]));
                }
            }
        }
        let scan_chunk = |&(t, keys): &(TreeId, &[u128])| -> Vec<(usize, u128)> {
            let range = this.local_range(t).expect("chunk of a stored tree");
            let mut cand = Vec::new();
            this.for_each_boundary_leaf(t, keys, range, |k| {
                let mut sent_to: Vec<usize> = Vec::new();
                this.for_each_neighbor_owner(t, k, range, |owner, _, _| {
                    if owner != me && !sent_to.contains(&owner) {
                        sent_to.push(owner);
                        cand.push((owner, k));
                    }
                });
            });
            cand
        };
        let candidates = pool.map(chunks.len(), |c, _| scan_chunk(&chunks[c]));
        let mut out = RunExchange::default();
        let mut sent_octants = 0u64;
        for ((t, _), cand) in chunks.iter().zip(&candidates) {
            for &(owner, k) in cand {
                out.push::<D>(owner, *t, k);
                sent_octants += 1;
            }
        }

        let mut layer = GhostLayer::default();
        out.exchange::<D>(ctx, GHOST_TAG, |src, t, keys| {
            let v = layer.per_tree.entry(t).or_default();
            v.extend(keys.iter().map(|&k| (k, src)));
        });
        for v in layer.per_tree.values_mut() {
            v.sort_unstable();
            v.dedup();
        }
        forestbal_trace::counter_add("ghost.sent_octants", sent_octants);
        forestbal_trace::counter_add("ghost.recv_octants", layer.len() as u64);
        forestbal_trace::span_end(|| ctx.now_ns());
        layer
    }

    /// Distributed 2:1 check: is the forest `cond`-balanced? Each rank
    /// verifies its leaves against local leaves and the ghost layer; the
    /// verdicts are combined with one allreduce. (The insulation fact
    /// guarantees any violating pair is visible to at least one of the
    /// two owners through its ghosts. `insulation_fact_2d` and
    /// `insulation_fact_3d` in core's `tests/exhaustive.rs` check that
    /// fact for every k against the ripple oracle.)
    pub fn is_balanced_distributed(
        &mut self,
        ctx: &impl Comm,
        cond: forestbal_core::Condition,
    ) -> bool {
        let ghosts = self.ghost_layer(ctx);
        let mut ok = true;
        'outer: for (t, v) in self.local.iter() {
            for &k in v {
                let o = PackedOctant::<D>(k);
                for dir in directions::<D>() {
                    if !cond.constrains(forestbal_octant::codim(&dir)) {
                        continue;
                    }
                    let Some((t2, n2)) = self.neighbor(t, o, &dir) else {
                        continue;
                    };
                    // The containing leaf (local or ghost), if coarser
                    // than n2, must be within one level of o.
                    if let Some(c) = self.containing_leaf(Some(&ghosts), t2, n2.0) {
                        if PackedOctant::<D>(c).level() + 1 < o.level() {
                            ok = false;
                            break 'outer;
                        }
                    }
                }
            }
        }
        ctx.allreduce_and(ok)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity::BrickConnectivity;
    use forestbal_comm::{Cluster, Comm};
    use std::sync::Arc;

    /// Does `g` of tree `tg` share a boundary object with a local leaf?
    /// Built on the coordinate frame change, not on the key routing the
    /// ghost layer itself uses.
    fn touches_local<const D: usize>(f: &Forest<D>, tg: TreeId, g: &Octant<D>) -> bool {
        directions::<D>().any(|dir| {
            f.connectivity()
                .transform(tg, &g.neighbor(&dir))
                .is_some_and(|(t2, n)| {
                    f.trees()
                        .any(|(t, v)| t == t2 && v.iter().any(|l| l.overlaps(&n)))
                })
        })
    }

    #[test]
    fn uniform_ghosts_are_range_neighbors() {
        let conn = Arc::new(BrickConnectivity::<2>::unit());
        Cluster::run(4, |ctx| {
            let mut f = Forest::new_uniform(Arc::clone(&conn), ctx, 3);
            let ghosts = f.ghost_layer(ctx);
            assert!(!ghosts.is_empty(), "interior ranks must see ghosts");
            let global = f.gather(ctx);
            for (t, owner, g) in ghosts.iter() {
                assert_ne!(owner, ctx.rank());
                // Each ghost is a real global leaf...
                assert!(global[&t].binary_search(&g).is_ok());
                // ...not a local one...
                let local: Vec<_> = f.trees().filter(|&(tt, _)| tt == t).collect();
                for (_, v) in local {
                    assert!(v.keys().binary_search(&key::pack(&g)).is_err());
                }
                // ...and adjacent to the local partition.
                assert!(touches_local(&f, t, &g), "ghost {g:?} does not touch rank");
            }
        });
    }

    #[test]
    fn ghosts_cover_all_local_boundary_neighbors() {
        let conn = Arc::new(BrickConnectivity::<2>::unit());
        Cluster::run(3, |ctx| {
            let mut f = Forest::new_uniform(Arc::clone(&conn), ctx, 3);
            let ghosts = f.ghost_layer(ctx);
            let global = f.gather(ctx);
            // Every neighbor of a local leaf is local or a ghost.
            let locals: Vec<(TreeId, Vec<Octant<2>>)> =
                f.trees().map(|(t, v)| (t, v.iter().collect())).collect();
            for (t, v) in locals {
                for o in &v {
                    for dir in directions::<2>() {
                        let n = o.neighbor(&dir);
                        if !n.is_inside_root() {
                            continue;
                        }
                        // Uniform forest: the neighbor IS a leaf.
                        assert!(global[&t].binary_search(&n).is_ok());
                        let local_hit = v.binary_search(&n).is_ok();
                        let ghost_hit = ghosts
                            .tree(t)
                            .binary_search_by_key(&key::pack(&n), |&(g, _)| g)
                            .is_ok();
                        assert!(
                            local_hit || ghost_hit,
                            "neighbor {n:?} neither local nor ghost"
                        );
                    }
                }
            }
        });
    }

    #[test]
    fn cross_tree_ghosts() {
        let conn = Arc::new(BrickConnectivity::<2>::new([2, 1], [false; 2]));
        Cluster::run(2, |ctx| {
            let mut f = Forest::new_uniform(Arc::clone(&conn), ctx, 2);
            // With 2 trees and 2 ranks, the partition boundary is the
            // tree boundary: ghosts live in the other tree.
            let ghosts = f.ghost_layer(ctx);
            assert!(!ghosts.is_empty());
            let other_tree = if ctx.rank() == 0 { 1 } else { 0 };
            assert!(
                !ghosts.tree(other_tree).is_empty(),
                "rank {} expected ghosts in tree {other_tree}",
                ctx.rank()
            );
        });
    }

    #[test]
    fn distributed_balance_check() {
        use crate::balance::{BalanceVariant, ReversalScheme};
        use forestbal_core::Condition;
        let conn = Arc::new(BrickConnectivity::<2>::unit());
        Cluster::run(3, |ctx| {
            let mut f = Forest::new_uniform(Arc::clone(&conn), ctx, 1);
            f.refine(true, 5, |_, o| {
                o.coords[0] + o.len() == (1 << 23) && o.coords[1] + o.len() == (1 << 23)
            });
            let cond = Condition::full(2);
            assert!(
                !f.is_balanced_distributed(ctx, cond),
                "deep center refinement must violate 2:1"
            );
            f.balance(ctx, cond, BalanceVariant::New, ReversalScheme::Notify);
            assert!(f.is_balanced_distributed(ctx, cond));
            // Face balance is implied by corner balance.
            assert!(f.is_balanced_distributed(ctx, Condition::FACE));
        });
    }

    #[test]
    fn single_rank_has_no_ghosts() {
        let conn = Arc::new(BrickConnectivity::<2>::new([2, 2], [false; 2]));
        Cluster::run(1, |ctx| {
            let mut f = Forest::new_uniform(Arc::clone(&conn), ctx, 2);
            assert!(f.ghost_layer(ctx).is_empty());
        });
    }
}
