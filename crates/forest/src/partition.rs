//! Space-filling-curve partitioning (§II, Figure 2).
//!
//! Repartitioning cuts the forest-wide Morton order into `P` contiguous
//! slices — uniformly by leaf count, or by arbitrary positive leaf
//! weights — and migrates leaves point-to-point. Both the senders and the
//! receivers of every migration message are computable from one allgather
//! of local (weighted) counts, so no pattern reversal is needed here.

use crate::codec::{self, RunEncoder};
use crate::forest::Forest;
use crate::store::LeafStore;
use forestbal_comm::Comm;
use forestbal_octant::Octant;

const PARTITION_TAG: u32 = 0xA110_0001;

impl<const D: usize> Forest<D> {
    /// Repartition so every rank owns an equal (±1) number of leaves.
    pub fn partition_uniform(&mut self, ctx: &impl Comm) {
        self.partition_weighted(ctx, |_, _| 1);
    }

    /// Repartition by positive leaf weights: each rank receives a
    /// contiguous slice with approximately `total_weight / P` weight,
    /// using the same cut rule as p4est (cuts at weight quantiles).
    pub fn partition_weighted(
        &mut self,
        ctx: &impl Comm,
        mut weight: impl FnMut(crate::connectivity::TreeId, &Octant<D>) -> u64,
    ) {
        forestbal_trace::span_begin("partition", || ctx.now_ns());
        let p = ctx.size();
        // Local weights, leaf by leaf, plus the local total.
        let mut local_weights: Vec<u64> = Vec::with_capacity(self.num_local());
        for (t, v) in self.trees() {
            for o in v.iter() {
                let w = weight(t, &o);
                assert!(w > 0, "leaf weights must be positive");
                local_weights.push(w);
            }
        }
        let local_total: u64 = local_weights.iter().sum();

        // Global prefix of rank weights.
        let all = ctx.allgather(local_total.to_le_bytes().to_vec());
        let rank_totals: Vec<u64> = all
            .iter()
            .map(|b| u64::from_le_bytes(b.as_slice().try_into().unwrap()))
            .collect();
        let mut prefix = vec![0u64; p + 1];
        for q in 0..p {
            prefix[q + 1] = prefix[q] + rank_totals[q];
        }
        let total = prefix[p];
        if total == 0 {
            forestbal_trace::span_end(|| ctx.now_ns());
            return;
        }

        // Cut points in weight space: rank q receives [cut(q), cut(q+1)).
        let cut = |q: usize| -> u64 { (total as u128 * q as u128 / p as u128) as u64 };

        // Route each local leaf by the weight-space position of its start.
        // Leaves migrate as packed keys in tree runs (wire format v2).
        let mut outgoing: Vec<(Vec<u8>, RunEncoder)> = (0..p).map(|_| Default::default()).collect();
        let mut migrated = vec![0u64; p];
        let mut acc = prefix[ctx.rank()];
        let mut dst = 0usize;
        let mut idx = 0usize;
        for (t, keys) in self.trees_packed() {
            for &k in keys {
                while dst + 1 < p && cut(dst + 1) <= acc {
                    dst += 1;
                }
                let (buf, enc) = &mut outgoing[dst];
                enc.push::<D>(buf, t, k);
                migrated[dst] += 1;
                acc += local_weights[idx];
                idx += 1;
            }
        }

        // Both sides of every migration message are computable from the
        // prefix sums: old rank `s` talks to new rank `d` iff `s`'s weight
        // range intersects `d`'s cut range. The condition is evaluated
        // identically by sender and receiver (messages may be empty when
        // the overlap holds no leaf start).
        let talks = |s: usize, d: usize| -> bool {
            rank_totals[s] > 0 && prefix[s] < cut(d + 1) && prefix[s + 1] > cut(d)
        };
        let me = ctx.rank();
        forestbal_trace::counter_add(
            "partition.migrated_octants",
            migrated
                .iter()
                .enumerate()
                .filter(|&(q, _)| q != me)
                .map(|(_, &n)| n)
                .sum::<u64>(),
        );
        let mut incoming: Vec<(usize, Vec<u8>)> = Vec::new();
        for (q, (buf, enc)) in outgoing.iter_mut().enumerate() {
            enc.finish(buf);
            if q == me {
                incoming.push((q, std::mem::take(buf)));
            } else if talks(me, q) {
                ctx.send(q, PARTITION_TAG, std::mem::take(buf));
            } else {
                debug_assert!(buf.is_empty(), "routing outside the talk set");
            }
        }
        for q in 0..p {
            if q != me && talks(q, me) {
                let (src, data) = ctx.recv(Some(q), PARTITION_TAG);
                incoming.push((src, data));
            }
        }
        incoming.sort_by_key(|(src, _)| *src);

        let mut local: LeafStore<D> = LeafStore::new();
        for (_, data) in incoming {
            codec::for_each_run::<D>(&data, |t, keys| local.entry(t).extend_from_slice(keys));
        }
        let mut sort = forestbal_octant::SortScratch::new();
        for (_, v) in local.iter_mut() {
            forestbal_octant::sort_keys_with::<D>(v, &mut sort);
        }
        self.local = local;
        self.update_markers(ctx);
        forestbal_trace::span_end(|| ctx.now_ns());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity::BrickConnectivity;
    use forestbal_comm::{Cluster, Comm};
    use std::sync::Arc;

    #[test]
    fn uniform_partition_balances_counts() {
        let conn = Arc::new(BrickConnectivity::<2>::unit());
        let out = Cluster::run(4, |ctx| {
            let mut f = Forest::new_uniform(Arc::clone(&conn), ctx, 2);
            // Unbalance ownership by refining only rank-local leaves at
            // the origin corner.
            f.refine(true, 4, |_, o| o.coords[0] == 0 && o.coords[1] == 0);
            let before = f.num_local();
            let sum_before = f.checksum(ctx);
            f.partition_uniform(ctx);
            let after = f.num_local();
            let sum_after = f.checksum(ctx);
            assert_eq!(sum_before, sum_after, "partition must not change content");
            (before, after, f.num_global(ctx))
        });
        let total: u64 = out.results[0].2;
        for (_, after, _) in &out.results {
            let ideal = total as usize / 4;
            assert!(
                (*after as i64 - ideal as i64).abs() <= 1,
                "uneven partition: {after} vs ideal {ideal}"
            );
        }
    }

    #[test]
    fn weighted_partition_shifts_cuts() {
        let conn = Arc::new(BrickConnectivity::<2>::unit());
        Cluster::run(2, |ctx| {
            let mut f = Forest::new_uniform(Arc::clone(&conn), ctx, 2);
            // Weight the first half of the curve 10x: rank 0 should end
            // up with far fewer leaves than rank 1.
            f.partition_weighted(ctx, |_, o| if o.coords[1] < (1 << 23) { 10 } else { 1 });
            let n = f.num_local();
            if ctx.rank() == 0 {
                assert!(n < 8, "rank 0 holds heavy leaves: {n}");
            } else {
                assert!(n > 8, "rank 1 holds light leaves: {n}");
            }
            assert_eq!(f.num_global(ctx), 16);
        });
    }

    #[test]
    fn partition_from_skewed_ownership() {
        // One rank refines tree 0's root and starts with 16 of the 17
        // leaves; partition spreads them out.
        let conn = Arc::new(BrickConnectivity::<2>::new([2, 1], [false; 2]));
        Cluster::run(5, |ctx| {
            let mut f = Forest::new_uniform(Arc::clone(&conn), ctx, 0);
            // Only 2 leaves globally; most ranks are empty.
            f.refine(true, 2, |t, _| t == 0);
            f.partition_uniform(ctx);
            let total = f.num_global(ctx);
            assert_eq!(total, 16 + 1);
            assert!(f.num_local() <= (total as usize).div_ceil(5) + 1);
            // Markers must be consistent after migration.
            for (t, v) in f.trees() {
                let owners: Vec<_> = f
                    .owners_of_range(t, v.get(0).index(), v.get(0).index())
                    .collect();
                assert!(owners.contains(&ctx.rank()));
            }
        });
    }

    #[test]
    fn partition_is_idempotent() {
        let conn = Arc::new(BrickConnectivity::<2>::unit());
        Cluster::run(3, |ctx| {
            let mut f = Forest::new_uniform(Arc::clone(&conn), ctx, 3);
            f.partition_uniform(ctx);
            let n1 = f.num_local();
            let c1 = f.checksum(ctx);
            f.partition_uniform(ctx);
            assert_eq!(f.num_local(), n1);
            assert_eq!(f.checksum(ctx), c1);
        });
    }
}
