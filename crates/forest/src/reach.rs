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
//! * [`Forest::for_each_reach`] — the scan: O(1) interior rejection on
//!   the key's axis fields, then direction → neighbor → partition-marker
//!   owners;
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

impl<const D: usize> Forest<D> {
    /// Visit every `(owner, tree2, steps)` reached by the insulation layer
    /// of leaf `k` of `tree`: for each of the `3^D - 1` directions (in
    /// [`directions`] order) whose neighbor exists in the forest, every
    /// rank owning part of it (ascending), with the neighbor's tree and
    /// the frame change `steps` (root lengths per axis) that carries a
    /// home-frame octant into `tree2`'s frame
    /// ([`PackedOctant::translate`]). Destinations repeat across
    /// directions and the leaf's own `(rank, tree, [0; D])` is included;
    /// callers apply their own dedup and self-entry rules.
    ///
    /// `local_range` is this rank's [`Forest::local_range`] in `tree`.
    /// All Morton indices of cells inside an axis-aligned box lie between
    /// the indices of its extreme corners, so a leaf whose insulation
    /// bounding box stays inside the root and within the local range
    /// reaches nothing but `(self, tree, [0; D])` — the phase-1 case no
    /// caller wants. Nothing exists beyond a non-periodic face of the
    /// brick, so the box is clamped there first: a leaf on such a face is
    /// as interior as its in-forest neighbors make it. The vast majority
    /// of leaves pass this O(1) test and skip the direction loop entirely,
    /// visiting nothing.
    pub(crate) fn for_each_reach(
        &self,
        tree: TreeId,
        k: u128,
        local_range: (MortonIndex, MortonIndex),
        mut visit: impl FnMut(usize, TreeId, [i8; D]),
    ) {
        let conn = self.connectivity();
        let (tc, dims, periodic) = (conn.tree_coords(tree), conn.dims(), conn.periodic());
        // The insulation bounding box's extreme unit cells, one field per
        // axis; order on a dilated field is order on its coordinate, so
        // the clamp compares fields against the root's first and last cell.
        let rk = PackedOctant::<D>(k);
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
        let interior = lo.is_inside_root()
            && hi.is_inside_root()
            && lo.index() >= local_range.0
            && hi.index() <= local_range.1;
        if interior {
            return;
        }
        for dir in directions::<D>() {
            let Some((t2, n2)) = self.neighbor(tree, rk, &dir) else {
                continue;
            };
            // Home frame to `t2`'s: undo the neighbor's tree steps.
            let steps = rk.neighbor(&dir).tree_steps().map(|s| -s);
            for owner in self.owners_of_range(t2, n2.index(), n2.last_index()) {
                visit(owner, t2, steps);
            }
        }
    }

    /// The same-size neighbor of octant `k` of `tree` across `dir`, in the
    /// frame of the tree that holds it, or `None` beyond the forest's
    /// boundary: the one way the forest finds a neighbor.
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
    }
}
