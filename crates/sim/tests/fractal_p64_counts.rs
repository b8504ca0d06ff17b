//! The phase-3 work of one balance in the §V regime, pinned as literals.
//!
//! The balance of `examples/trace_balance.rs`: the level-2 fractal forest
//! (`fractal_forest(2, 3)`) on `P = 64` simulated ranks, New variant,
//! Notify reversal, under a `Tracer`. With a few dozen leaves per rank
//! almost every leaf is on a partition boundary, and most query entries
//! land in a responder tree that holds no leaf two levels finer than the
//! query octant; the responder's per-tree finest-level bound answers those
//! empty without a neighbor scan (`balance.queries_below_finest`). The
//! counts are cluster-wide sums and, like the checksum, pure functions of
//! the mesh and the partition, so a change to the responder that does the
//! same work leaves every one of them unchanged.

#![cfg(feature = "trace")]

use forestbal_comm::Comm;
use forestbal_core::Condition;
use forestbal_forest::{BalanceVariant, ReversalScheme};
use forestbal_mesh::fractal_forest;
use forestbal_sim::{SimCluster, SimConfig};
use forestbal_trace::{ClusterTrace, Tracer};

#[test]
fn fractal_p64_balance_does_the_pinned_phase3_work() {
    let out = SimCluster::run(64, SimConfig::default(), |ctx| {
        let mut f = fractal_forest(ctx, 2, 3);
        ctx.barrier();
        let tracer = Tracer::begin(ctx.rank());
        f.balance(
            ctx,
            Condition::full(3),
            BalanceVariant::New,
            ReversalScheme::Notify,
        );
        (tracer.finish(), f.checksum(ctx))
    });
    let checksum = out.results[0].1;
    assert!(out.results.iter().all(|(_, c)| *c == checksum));
    let trace = ClusterTrace::new(out.results.into_iter().map(|(t, _)| t).collect());
    let counters = trace.merged_counters();
    let read = |name: &str| counters.get(name).copied().unwrap_or(0);
    let pinned = [
        ("balance.query_entries", 27_672),
        ("balance.queries_answered", 27_672),
        ("balance.queries_below_finest", 26_172),
        ("balance.find_seeds_calls", 7_880),
        ("balance.response_octants", 1_466),
        ("balance.boundary_leaves", 19_234),
    ];
    for (name, want) in pinned {
        assert_eq!(read(name), want, "{name}");
    }
    assert_eq!(checksum, 0xf2c3_b1a7_1efc_34d4);
}
