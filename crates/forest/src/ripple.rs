//! The multi-round parallel *ripple* baseline (§II-B).
//!
//! "An algorithm that only compares neighbors when determining which
//! octants to split is called a ripple algorithm ... Parallel ripple
//! algorithms only use communication between processes with neighboring
//! partitions, so they generally require multiple rounds of communication
//! when an octant ultimately causes another octant on a remote process's
//! partition to split."
//!
//! This is the worklist engine of [`crate::incremental`] seeded with
//! *every* local leaf and an empty ghost layer: round 1 announces each
//! boundary leaf to the owners of its insulation layer (which builds the
//! layer through [`GhostLayer::patch`]), later rounds carry only leaves
//! that split, until no rank changed anything. [`crate::balance`] needs
//! one query/response round for the same mesh; this is its ablation.

use crate::forest::Forest;
use crate::ghost::GhostLayer;
use crate::incremental::DirtySet;
use forestbal_comm::Comm;
use forestbal_core::Condition;

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
        let every_leaf = DirtySet::all_leaves(&self.local);
        let report = self.balance_incremental(ctx, cond, &every_leaf, &mut GhostLayer::default());
        forestbal_trace::counter_add("ripple.rounds", report.rounds as u64);
        forestbal_trace::counter_add("ripple.splits", report.splits);
        forestbal_trace::span_end(|| ctx.now_ns());
        RippleStats {
            rounds: report.rounds,
            splits: report.splits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity::{BrickConnectivity, TreeId};
    use crate::serial::{is_forest_balanced, serial_forest_balance};
    use forestbal_comm::Cluster;
    use forestbal_octant::Octant;
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
