//! Differential tests: the threaded `Cluster` and the discrete-event
//! `SimCluster` run the *same* closures over the `Comm` trait, so on any
//! workload they must produce identical results and identical
//! communication counters. Only timing differs (wall clock vs virtual).

use forestbal_comm::{reverse_naive, reverse_notify, reverse_ranges, Cluster, Comm, CommStats};
use forestbal_core::Condition;
use forestbal_forest::{BalanceVariant, ReversalScheme};
use forestbal_mesh::fractal_forest;
use forestbal_sim::{SimCluster, SimConfig};
use proptest::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;
use std::sync::Arc;

/// Per-rank pseudo-random receiver sets: up to 4 distinct peers each.
fn random_receivers(p: usize, seed: u64) -> Arc<Vec<Vec<usize>>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let sets = (0..p)
        .map(|r| {
            let k = rng.random_range(0..=4.min(p.saturating_sub(1)));
            let mut rs: Vec<usize> = (0..k)
                .map(|_| rng.random_range(0..p))
                .filter(|&q| q != r)
                .collect();
            rs.sort_unstable();
            rs.dedup();
            rs
        })
        .collect();
    Arc::new(sets)
}

fn run_reversal_on<C: Comm>(
    ctx: &C,
    recv: &[Vec<usize>],
    which: u8,
    max_ranges: usize,
) -> Vec<usize> {
    let rs = &recv[ctx.rank()];
    match which {
        0 => reverse_naive(ctx, rs),
        1 => reverse_ranges(ctx, rs, max_ranges),
        _ => reverse_notify(ctx, rs),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// All three reversal schemes agree between runtimes, result and
    /// stats alike, on random communication patterns.
    #[test]
    fn reversal_differential(p in 1usize..8, seed in any::<u64>(), which in 0u8..3) {
        let recv = random_receivers(p, seed);
        let max_ranges = 2;

        let r1 = recv.clone();
        let threaded = Cluster::run(p, move |ctx| run_reversal_on(ctx, &r1, which, max_ranges));
        let r2 = recv.clone();
        let sim = SimCluster::run(p, SimConfig::default(), move |ctx| {
            run_reversal_on(ctx, &r2, which, max_ranges)
        });

        prop_assert_eq!(&threaded.results, &sim.results);
        prop_assert_eq!(&threaded.stats, &sim.stats);

        // Jitter reorders deliveries but must not change the answer or
        // the message counts (order-robustness of the algorithms).
        let r3 = recv.clone();
        let jittered = SimCluster::run(
            p,
            SimConfig::builder().seed(seed).jitter_ns(2_500).build(),
            move |ctx| run_reversal_on(ctx, &r3, which, max_ranges),
        );
        prop_assert_eq!(&threaded.results, &jittered.results);
        prop_assert_eq!(&threaded.stats, &jittered.stats);
    }

}

proptest! {
    // Fewer cases: each one runs a full threaded *and* simulated balance.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A full one-pass parallel balance of the fractal forest produces
    /// the same mesh (checksummed) and the same per-rank communication
    /// counters on both runtimes, for every variant and scheme — and the
    /// same mesh as the ripple baseline.
    #[test]
    fn balance_differential(
        p in 1usize..5,
        level in 1u8..3,
        variant_new in any::<bool>(),
        which in 0u8..3,
    ) {
        let variant = if variant_new { BalanceVariant::New } else { BalanceVariant::Old };
        let scheme = match which {
            0 => ReversalScheme::Naive,
            1 => ReversalScheme::Ranges(2),
            _ => ReversalScheme::Notify,
        };
        let spread = 3;

        let threaded = Cluster::run(p, move |ctx| {
            let mut f = fractal_forest(ctx, level, spread);
            let before = f.num_global(ctx);
            f.balance(ctx, Condition::full(3), variant, scheme);
            (before, f.checksum(ctx))
        });
        let sim = SimCluster::run(p, SimConfig::default(), move |ctx| {
            let mut f = fractal_forest(ctx, level, spread);
            let before = f.num_global(ctx);
            f.balance(ctx, Condition::full(3), variant, scheme);
            (before, f.checksum(ctx))
        });

        prop_assert_eq!(&threaded.results, &sim.results);
        prop_assert_eq!(&threaded.stats, &sim.stats);

        // The ripple baseline reaches the same mesh through its own
        // multi-round exchange, under reordered deliveries too.
        let jitter = SimConfig::builder().seed(which as u64).jitter_ns(2_500);
        let ripple = SimCluster::run(p, jitter.build(), move |ctx| {
            let mut f = fractal_forest(ctx, level, spread);
            let before = f.num_global(ctx);
            f.balance_ripple(ctx, Condition::full(3));
            (before, f.checksum(ctx))
        });
        prop_assert_eq!(&threaded.results, &ripple.results);
    }
}

/// Aggregate stats also line up (sanity on `total_stats`).
#[test]
fn totals_match_across_runtimes() {
    let p = 6;
    let recv = random_receivers(p, 7);
    let r1 = recv.clone();
    let threaded = Cluster::run(p, move |ctx| run_reversal_on(ctx, &r1, 2, 2));
    let sim = SimCluster::run(p, SimConfig::default(), move |ctx| {
        run_reversal_on(ctx, &recv, 2, 2)
    });
    let a: CommStats = threaded.total_stats();
    let b: CommStats = sim.total_stats();
    assert_eq!(a, b);
}
