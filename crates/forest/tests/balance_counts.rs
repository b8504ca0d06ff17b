//! The §III work of one full balance, pinned as literals.
//!
//! `Forest::balance` on the level-2 fractal brick (`fractal_forest(2, 4)`)
//! on two ranks, New and Old, under a `Tracer`. The paper's operation
//! counts (`BalanceStats` summed over phase 1), the number of membership
//! table operations in phases 1 and 4 and the forest checksum are pure
//! functions of the input mesh, so a change of representation inside the
//! kernels that does the same paper work leaves every one of them
//! unchanged. The tables must also never regrow.
//!
//! Phases 2 and 3's work is pinned beside it: the interior tests the
//! phase-2 boundary walk runs (ancestors included) and the leaves it
//! hands to the direction loop, the query entries sent, the queries
//! answered, the octants the answers carry and, for New, the number of
//! seed constructions the responders run (one per family of candidate
//! leaves past the level precheck; Old runs none). Of the queries
//! answered, `balance.queries_below_finest` counts those the responder's
//! per-tree finest-level bound answers empty without a neighbor scan;
//! it is the same for both variants, since phase 1 leaves the same leaves.
//!
//! The collectives one balance, ghost layer and node enumeration enter
//! are pinned too, and every balance's four phase timings must sum to
//! its total exactly.
//!
//! `balance.{local,rebalance}.table_probes` is deliberately not pinned:
//! it counts the slots a linear probe inspects, which depends on the hash
//! of the table key, not on the algorithm.

#![cfg(feature = "trace")]

use forestbal_comm::{Cluster, Comm, CommStats};
use forestbal_core::Condition;
use forestbal_forest::{BalanceVariant, ReversalScheme};
use forestbal_mesh::fractal_forest;
use forestbal_trace::Tracer;

/// Counters read per rank, in this order.
const COUNTERS: [&str; 13] = [
    "balance.local.hash_queries",
    "balance.local.binary_searches",
    "balance.local.sorted_len",
    "balance.local.output_len",
    "balance.local.table_lookups",
    "balance.rebalance.table_lookups",
    "balance.query_entries",
    "balance.queries_answered",
    "balance.response_octants",
    "balance.find_seeds_calls",
    "balance.reach_tests",
    "balance.boundary_leaves",
    "balance.queries_below_finest",
];

/// Per-rank values of [`COUNTERS`] and the global checksum after balance.
fn run(variant: BalanceVariant) -> (Vec<[u64; 13]>, u64) {
    let out = Cluster::run(2, move |ctx| {
        let mut f = fractal_forest(ctx, 2, 4);
        let tracer = Tracer::begin(ctx.rank());
        let t = f.balance(ctx, Condition::full(3), variant, ReversalScheme::Notify);
        let trace = tracer.finish();
        // Each phase starts at the previous one's end timestamp and phase
        // 1 at the total's, so the phases tile the wall-clock total.
        let phases = t.local_balance + t.query_response + t.reversal + t.rebalance;
        assert_eq!(phases, t.total, "{variant:?}: phases vs total");
        let read = |name: &str| trace.counters.get(name).copied().unwrap_or(0);
        for grows in ["balance.local.table_grows", "balance.rebalance.table_grows"] {
            assert_eq!(read(grows), 0, "{variant:?}: {grows}");
        }
        (COUNTERS.map(read), f.checksum(ctx))
    });
    let checksum = out.results[0].1;
    assert!(out.results.iter().all(|(_, c)| *c == checksum));
    (out.results.into_iter().map(|(c, _)| c).collect(), checksum)
}

/// The balanced forest is unique, so both variants end at this checksum.
const CHECKSUM: u64 = 0xceda_9f60_8974_2628;

#[test]
fn new_balance_does_the_pinned_paper_work() {
    let (counts, checksum) = run(BalanceVariant::New);
    // The two ranks hold mirror halves of the brick and do equal paper
    // work. One seed construction per family of candidate leaves (Old
    // answers with 32,064 raw octants). The phase-2 walk runs in Morton
    // order on both halves, so its climbs, and its interior tests, differ.
    let ranks = [
        [
            391_764, 10_683, 16_794, 117_792, 419_307, 648, 6_340, 6_340, 420, 4_288, 24_468,
            6_148, 5_608,
        ],
        [
            391_764, 10_683, 16_794, 117_792, 419_307, 648, 6_340, 6_340, 420, 4_288, 24_464,
            6_148, 5_608,
        ],
    ];
    assert_eq!(counts, ranks);
    assert_eq!(checksum, CHECKSUM);
}

#[test]
fn old_balance_does_the_pinned_paper_work() {
    let (counts, checksum) = run(BalanceVariant::Old);
    // Phase 1 leaves the same leaves as New, so phase 2 walks alike.
    let ranks = [
        [
            5_596_416, 1_206_312, 134_616, 117_792, 5_704_200, 7_398_072, 6_340, 6_340, 32_064, 0,
            24_468, 6_148, 5_608,
        ],
        [
            5_596_416, 1_206_312, 134_616, 117_792, 5_704_200, 7_398_072, 6_340, 6_340, 32_064, 0,
            24_464, 6_148, 5_608,
        ],
    ];
    assert_eq!(counts, ranks);
    assert_eq!(checksum, CHECKSUM);
}

/// `(collective_calls, collective_bytes)` this rank entered since `before`.
fn collectives(ctx: &impl Comm, before: &CommStats) -> (u64, u64) {
    let d = ctx.stats().delta_since(before);
    (d.collective_calls, d.collective_bytes)
}

/// The collectives of one New balance, one Old balance, one ghost layer
/// and one node enumeration on the same input, per rank. The partition
/// markers are forest state that only `new_uniform` and `partition`
/// exchange, and Notify reverses the pattern point to point, so the
/// balances and the ghost layer enter no collective; the sum of the
/// independent node counts, an 8-byte reduction, is the only one.
#[test]
fn each_call_enters_the_pinned_collectives() {
    let out = Cluster::run(2, |ctx| {
        let cond = Condition::full(3);
        let mut f = fractal_forest(ctx, 2, 4);
        let mut old = f.clone();
        let s = ctx.stats();
        f.balance(ctx, cond, BalanceVariant::New, ReversalScheme::Notify);
        let new_balance = collectives(ctx, &s);
        let s = ctx.stats();
        old.balance(ctx, cond, BalanceVariant::Old, ReversalScheme::Notify);
        let old_balance = collectives(ctx, &s);
        let s = ctx.stats();
        f.ghost_layer(ctx);
        let ghost = collectives(ctx, &s);
        let s = ctx.stats();
        f.enumerate_nodes(ctx);
        let nodes = collectives(ctx, &s);
        [new_balance, old_balance, ghost, nodes]
    });
    assert_eq!(out.results, vec![[(0, 0), (0, 0), (0, 0), (1, 8)]; 2]);
}
