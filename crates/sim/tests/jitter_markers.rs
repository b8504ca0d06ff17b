//! The marker exchange under maximal jitter: partition markers and the
//! balanced forest must be *bit-identical* across delivery schedules.
//!
//! Jitter up to thousands of times the base latency reorders nearly every
//! message arrival, so 32 random `(seed, jitter_ns)` pairs sample widely
//! separated schedules. (The `forestbal-mc` crate complements this by
//! exploring *every* schedule exhaustively at small P.)

use forestbal_core::Condition;
use forestbal_forest::{BalanceVariant, ReversalScheme};
use forestbal_mesh::fractal::fractal_forest_2d;
use forestbal_mesh::fractal_forest;
use forestbal_sim::{SimCluster, SimConfig};
use proptest::prelude::*;

/// Balance the 2D fractal forest at P = 4 and digest the outcome: the
/// full marker array plus the global checksum, per rank.
fn digest_2d(cfg: SimConfig) -> Vec<(String, u64)> {
    SimCluster::run(4, cfg, |ctx| {
        let mut f = fractal_forest_2d(ctx, 1, 2);
        f.balance(
            ctx,
            Condition::full(2),
            BalanceVariant::New,
            ReversalScheme::Notify,
        );
        f.update_markers(ctx);
        (format!("{:?}", f.markers()), f.checksum(ctx))
    })
    .results
}

/// The same digest on the 3D fractal brick.
fn digest_3d(cfg: SimConfig) -> Vec<(String, u64)> {
    SimCluster::run(4, cfg, |ctx| {
        let mut f = fractal_forest(ctx, 1, 1);
        f.balance(
            ctx,
            Condition::full(3),
            BalanceVariant::New,
            ReversalScheme::Notify,
        );
        f.update_markers(ctx);
        (format!("{:?}", f.markers()), f.checksum(ctx))
    })
    .results
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// 32 random `(seed, jitter_ns)` pairs, 2D and 3D, against the
    /// jitter-free baseline.
    #[test]
    fn markers_bit_identical_under_maximal_jitter(
        seed in any::<u64>(),
        jitter_ns in 1_000u64..10_000_000,
    ) {
        let jittered = SimConfig::builder().seed(seed).jitter_ns(jitter_ns).build();
        prop_assert_eq!(digest_2d(SimConfig::default()), digest_2d(jittered));
        prop_assert_eq!(digest_3d(SimConfig::default()), digest_3d(jittered));
    }
}
