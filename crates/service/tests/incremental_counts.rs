//! The work of the incremental commit, pinned as literals.
//!
//! Thirty epochs of the moving refinement front on the 3×2×1 brick (the
//! `moving_front_matches_full_across_rank_boundaries` case of
//! `differential.rs`) on two ranks, every commit incremental, under a
//! `Tracer`. The rounds, the splits and the announced leaves are pure
//! functions of the input and of the exchange protocol: a change to the
//! fixed point's worklist that makes the same splits in the same rounds
//! leaves all three unchanged. The worklist pops (`incremental.work_items`)
//! are the fixed point's own work: one per family item, each admitted
//! once per commit. The neighbor-box searches of the reverse seeding
//! (`incremental.seed_searches`) are the seeding's: one per constrained
//! direction of each seed, a complete family of merged parents seeded
//! once, and none when no leaf or ghost is fine enough to count.
//!
//! The spans inside each `incremental.round` are checked by name: the
//! round tiles into announce, patch-and-seed, fixed point and vote, and
//! the final merge runs in `incremental.splice`.

#![cfg(feature = "trace")]

use forestbal_comm::{Cluster, Comm};
use forestbal_forest::{BrickConnectivity, Forest};
use forestbal_service::{ForestService, MovingFront, ServiceConfig};
use forestbal_trace::Tracer;
use std::sync::Arc;

/// Counters read per rank, in this order.
const COUNTERS: [&str; 5] = [
    "incremental.rounds",
    "incremental.splits",
    "incremental.sent_leaves",
    "incremental.work_items",
    "incremental.seed_searches",
];

/// The spans directly inside one `incremental.round`, in order.
const ROUND: [&str; 4] = [
    "incremental.announce",
    "incremental.patch_seed",
    "incremental.fixed_point",
    "incremental.vote",
];

/// Per-rank values of [`COUNTERS`] and the global checksum after the
/// last epoch.
fn run() -> (Vec<[u64; 5]>, u64) {
    const BRICK: [usize; 3] = [3, 2, 1];
    let out = Cluster::run(2, |ctx| {
        let conn = Arc::new(BrickConnectivity::<3>::new(BRICK, [false; 3]));
        let mut front = MovingFront {
            center: [0.8, 0.6, 0.4],
            velocity: [0.05, 0.03, 0.01],
            radius: 0.15,
            max_level: 5,
            base_level: 3,
        };
        let f = Forest::new_uniform(conn, ctx, front.base_level);
        let mut cfg = ServiceConfig::new(3);
        cfg.max_level = front.max_level;
        cfg.fallback_dirty_fraction = f64::INFINITY; // always incremental
        let mut svc = ForestService::new(ctx, f, cfg);

        let tracer = Tracer::begin(ctx.rank());
        for _ in 0..30 {
            let batch = front.batch(svc.forest());
            front.step(BRICK);
            svc.submit_batch(&batch);
            assert!(!svc.commit(ctx).fallback);
        }
        let trace = tracer.finish();

        let spans = trace.structure().spans;
        let rounds: Vec<usize> = (0..spans.len())
            .filter(|&i| spans[i].1 == "incremental.round")
            .collect();
        for &i in &rounds {
            let depth = spans[i].0;
            let inner: Vec<&str> = spans[i + 1..]
                .iter()
                .take_while(|s| s.0 > depth)
                .filter(|s| s.0 == depth + 1)
                .map(|s| s.1)
                .collect();
            assert_eq!(inner, ROUND, "rank {}: round spans", ctx.rank());
        }
        let count = |name: &str| spans.iter().filter(|s| s.1 == name).count();
        assert_eq!(count("incremental.splice"), count("incremental"));

        let read = |name: &str| trace.counters.get(name).copied().unwrap_or(0);
        assert_eq!(read("incremental.rounds"), rounds.len() as u64);
        (COUNTERS.map(read), svc.forest().checksum(ctx))
    });
    let checksum = out.results[0].1;
    assert!(out.results.iter().all(|(_, c)| *c == checksum));
    (out.results.into_iter().map(|(c, _)| c).collect(), checksum)
}

#[test]
fn moving_front_commit_does_the_pinned_work() {
    let (counts, checksum) = run();
    let ranks = [[59, 345, 635, 1_835, 10_608], [59, 323, 680, 1_862, 9_100]];
    for (rank, (got, want)) in counts.iter().zip(ranks).enumerate() {
        for ((name, g), w) in COUNTERS.iter().zip(got).zip(want) {
            assert_eq!(*g, w, "rank {rank}: {name}");
        }
    }
    // The front's final forest, the same for every worklist.
    assert_eq!(checksum, 0x66c9_b32b_612b_f011);
}
