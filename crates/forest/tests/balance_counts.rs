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
//! leaves past the level precheck; Old runs none).
//!
//! `balance.{local,rebalance}.table_probes` is deliberately not pinned:
//! it counts the slots a linear probe inspects, which depends on the hash
//! of the table key, not on the algorithm.

#![cfg(feature = "trace")]

use forestbal_comm::{Cluster, Comm};
use forestbal_core::Condition;
use forestbal_forest::{BalanceVariant, ReversalScheme};
use forestbal_mesh::fractal_forest;
use forestbal_trace::Tracer;

/// Counters read per rank, in this order.
const COUNTERS: [&str; 12] = [
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
];

/// Per-rank values of [`COUNTERS`] and the global checksum after balance.
fn run(variant: BalanceVariant) -> (Vec<[u64; 12]>, u64) {
    let out = Cluster::run(2, move |ctx| {
        let mut f = fractal_forest(ctx, 2, 4);
        let tracer = Tracer::begin(ctx.rank());
        f.balance(ctx, Condition::full(3), variant, ReversalScheme::Notify);
        let trace = tracer.finish();
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
            391_764, 10_683, 16_794, 117_792, 419_307, 648, 6_340, 6_340, 420, 4_288, 24_468, 6_148,
        ],
        [
            391_764, 10_683, 16_794, 117_792, 419_307, 648, 6_340, 6_340, 420, 4_288, 24_464, 6_148,
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
            24_468, 6_148,
        ],
        [
            5_596_416, 1_206_312, 134_616, 117_792, 5_704_200, 7_398_072, 6_340, 6_340, 32_064, 0,
            24_464, 6_148,
        ],
    ];
    assert_eq!(counts, ranks);
    assert_eq!(checksum, CHECKSUM);
}
