//! The multi-round parallel *ripple* baseline (§II-B).
//!
//! "An algorithm that only compares neighbors when determining which
//! octants to split is called a ripple algorithm ... Parallel ripple
//! algorithms only use communication between processes with neighboring
//! partitions, so they generally require multiple rounds of communication
//! when an octant ultimately causes another octant on a remote process's
//! partition to split."
//!
//! Each round: (a) reach a local 2:1 fixed point; (b) send boundary
//! leaves to the ranks owning their insulation layers; (c) split local
//! leaves violating 2:1 against received ghosts; repeat until no rank
//! changed anything. The one-pass algorithm of [`crate::balance`] does
//! the same job with a single query/response round; this baseline exists
//! for the ablation benchmarks and as an independent cross-check.
//!
//! The split fixed points run natively on packed keys: the worklists are
//! `BTreeSet<u128>`/`VecDeque<u128>` and all neighbor/containment tests
//! are [`PackedOctant`] bit arithmetic — no struct octants are
//! materialized except the per-leaf decode in the boundary scan.

use crate::connectivity::{translate, TreeId};
use crate::forest::Forest;
use crate::reach::RunExchange;
use forestbal_comm::Comm;
use forestbal_core::Condition;
use forestbal_octant::{codim, directions, is_linear_keys, key, Octant, PackedOctant};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

const RIPPLE_TAG: u32 = 0xBA1A_0010;

/// Outcome counters of a ripple balance run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RippleStats {
    /// Communication rounds until global convergence (≥ 1).
    pub rounds: u32,
    /// Total leaves split on this rank.
    pub splits: u64,
}

impl<const D: usize> Forest<D> {
    /// Balance by neighbor-only ripple propagation with multiple
    /// communication rounds. Produces exactly the same forest as
    /// [`Forest::balance`], at a different (usually worse) cost.
    pub fn balance_ripple(&mut self, ctx: &impl Comm, cond: Condition) -> RippleStats {
        forestbal_trace::span_begin("ripple", || ctx.now_ns());
        self.update_markers(ctx);
        let me = ctx.rank();
        let mut stats = RippleStats::default();
        loop {
            stats.rounds += 1;
            forestbal_trace::span_begin("ripple.round", || ctx.now_ns());
            let mut changed = self.local_ripple_fixed_point(cond, &mut stats);

            // Exchange boundary leaves with every rank owning part of a
            // local leaf's insulation layer. Translated leaves go out as
            // packed keys in tree runs; the tree sequence is not monotone
            // here, so runs may be short — still correct (see codec docs).
            let mut out = RunExchange::default();
            for (t, keys) in self.local.iter() {
                let Some(range) = self.local_range(t) else {
                    continue;
                };
                for &k in keys {
                    self.for_each_reach(t, k, range, |owner, t2, off| {
                        if owner == me && t2 == t && off == [0; D] {
                            return;
                        }
                        let r = translate(&key::unpack::<D>(k), &off);
                        out.push::<D>(owner, t2, key::pack(&r));
                    });
                }
            }
            let mut ghosts: BTreeMap<TreeId, Vec<u128>> = BTreeMap::new();
            out.exchange::<D>(ctx, RIPPLE_TAG, |_, t, keys| {
                ghosts.entry(t).or_default().extend_from_slice(keys)
            });

            changed |= self.split_against_ghosts(&ghosts, cond, &mut stats);

            // Global convergence vote.
            let done = !ctx.allreduce_or(changed);
            forestbal_trace::span_end(|| ctx.now_ns());
            if done {
                forestbal_trace::counter_add("ripple.rounds", stats.rounds as u64);
                forestbal_trace::counter_add("ripple.splits", stats.splits);
                forestbal_trace::span_end(|| ctx.now_ns());
                return stats;
            }
        }
    }

    /// Split local leaves until every pair of *local* neighbors satisfies
    /// 2:1. Returns whether anything changed.
    fn local_ripple_fixed_point(&mut self, cond: Condition, stats: &mut RippleStats) -> bool {
        let mut changed = false;
        for (_, v) in self.local.iter_mut() {
            if v.is_empty() {
                continue;
            }
            let lo = PackedOctant::<D>(v[0]).index();
            let hi = PackedOctant::<D>(v[v.len() - 1]).last_index();
            let mut set: BTreeSet<u128> = v.iter().copied().collect();
            let mut work: VecDeque<u128> = v.iter().copied().collect();
            let mut tree_changed = false;
            while let Some(k) = work.pop_front() {
                if !set.contains(&k) {
                    continue;
                }
                let o = PackedOctant::<D>(k);
                for dir in directions::<D>() {
                    if !cond.constrains(codim(&dir)) {
                        continue;
                    }
                    let n = o.neighbor(&dir);
                    if !n.is_inside_root() || n.index() < lo || n.last_index() > hi {
                        continue; // outside this rank's slice: ghost rounds
                    }
                    let splits = split_container(&mut set, n, o.level(), |ch| work.push_back(ch));
                    stats.splits += splits;
                    tree_changed |= splits > 0;
                }
            }
            if tree_changed {
                changed = true;
                *v = set.into_iter().collect();
                debug_assert!(is_linear_keys::<D>(v));
            }
        }
        changed
    }

    /// Split local leaves violating 2:1 against received ghost keys
    /// (which may lie outside the tree root). Returns whether anything
    /// changed.
    fn split_against_ghosts(
        &mut self,
        ghosts: &BTreeMap<TreeId, Vec<u128>>,
        cond: Condition,
        stats: &mut RippleStats,
    ) -> bool {
        let mut changed = false;
        for (t, gs) in ghosts {
            let Some(v) = self.local.get_mut(*t) else {
                continue;
            };
            if v.is_empty() {
                continue;
            }
            let mut set: BTreeSet<u128> = v.iter().copied().collect();
            let mut tree_changed = false;
            for &gk in gs {
                let g = PackedOctant::<D>(gk);
                for dir in directions::<D>() {
                    if !cond.constrains(codim(&dir)) {
                        continue;
                    }
                    let n = g.neighbor(&dir);
                    // Only the part of the ghost's neighborhood inside
                    // this tree matters here.
                    if !n.is_inside_root() {
                        continue;
                    }
                    let splits = split_container(&mut set, n, g.level(), |_| {});
                    stats.splits += splits;
                    tree_changed |= splits > 0;
                }
            }
            if tree_changed {
                changed = true;
                *v = set.into_iter().collect();
                debug_assert!(is_linear_keys::<D>(v));
            }
        }
        changed
    }
}

/// Split the leaf of `set` containing `n` until it is within one level of
/// `level` (that of the octant whose neighbor `n` is), handing every
/// created child to `created`. Returns the number of splits.
fn split_container<const D: usize>(
    set: &mut BTreeSet<u128>,
    n: PackedOctant<D>,
    level: u8,
    mut created: impl FnMut(u128),
) -> u64 {
    let mut splits = 0;
    while let Some(&ck) = set.range(..=n.0).next_back() {
        let c = PackedOctant::<D>(ck);
        if !c.contains(n) || c.level() + 1 >= level {
            break;
        }
        set.remove(&ck);
        splits += 1;
        for i in 0..Octant::<D>::NUM_CHILDREN {
            let ch = c.child(i).0;
            set.insert(ch);
            created(ch);
        }
    }
    splits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity::BrickConnectivity;
    use crate::serial::{is_forest_balanced, serial_forest_balance};
    use forestbal_comm::Cluster;
    use std::sync::Arc;

    #[test]
    fn ripple_matches_serial_oracle() {
        let conn = Arc::new(BrickConnectivity::<2>::new([2, 1], [false; 2]));
        for p in [1usize, 2, 5] {
            let conn_run = Arc::clone(&conn);
            let out = Cluster::run(p, move |ctx| {
                let mut f = Forest::new_uniform(Arc::clone(&conn_run), ctx, 1);
                f.refine(true, 5, |t, o| {
                    t == 0
                        && o.coords[0] + o.len() == (1 << 24)
                        && o.coords[1] + o.len() == (1 << 24)
                });
                let input = f.gather(ctx);
                let stats = f.balance_ripple(ctx, Condition::full(2));
                (input, f.gather(ctx), stats)
            });
            let (input, got, stats) = &out.results[0];
            let want = serial_forest_balance(&conn, input, Condition::full(2));
            for (t, v) in &want {
                assert_eq!(got.get(t), Some(v), "P={p} tree {t}");
            }
            assert!(stats.rounds >= 1);
        }
    }

    #[test]
    fn ripple_matches_one_pass() {
        let conn = Arc::new(BrickConnectivity::<2>::new([2, 2], [false; 2]));
        let refine = |t: TreeId, o: &Octant<2>| {
            t == 0 && o.coords[0] + o.len() == (1 << 24) && o.coords[1] + o.len() == (1 << 24)
        };
        let run = |ripple: bool| {
            let conn = Arc::clone(&conn);
            Cluster::run(4, move |ctx| {
                let mut f = Forest::new_uniform(Arc::clone(&conn), ctx, 1);
                f.refine(true, 5, refine);
                if ripple {
                    f.balance_ripple(ctx, Condition::full(2));
                } else {
                    f.balance(
                        ctx,
                        Condition::full(2),
                        crate::balance::BalanceVariant::New,
                        crate::balance::ReversalScheme::Notify,
                    );
                }
                f.checksum(ctx)
            })
            .results[0]
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn ripple_needs_multiple_rounds_for_long_range_effects() {
        // A very deep leaf hugging a partition boundary forces ripples
        // through several ranks: the round count exceeds 1, the defect
        // the one-pass algorithm removes.
        let conn = Arc::new(BrickConnectivity::<2>::unit());
        let out = Cluster::run(6, |ctx| {
            let mut f = Forest::new_uniform(Arc::clone(&conn), ctx, 1);
            f.refine(true, 7, |_, o| {
                o.coords[0] + o.len() == (1 << 23) && o.coords[1] == 0
            });
            let stats = f.balance_ripple(ctx, Condition::full(2));
            let g = f.gather(ctx);
            assert!(is_forest_balanced(f.connectivity(), &g, Condition::full(2)));
            stats.rounds
        });
        let max_rounds = out.results.iter().max().unwrap();
        assert!(
            *max_rounds >= 2,
            "expected multi-round propagation, got {max_rounds}"
        );
    }

    #[test]
    fn ripple_on_balanced_forest_is_one_round() {
        let conn = Arc::new(BrickConnectivity::<2>::unit());
        Cluster::run(3, |ctx| {
            let mut f = Forest::new_uniform(Arc::clone(&conn), ctx, 3);
            let stats = f.balance_ripple(ctx, Condition::full(2));
            assert_eq!(stats.rounds, 1, "uniform forest needs no splits");
            assert_eq!(stats.splits, 0);
        });
    }
}
