//! Acceptance tests at the paper's rank counts: a full one-pass balance
//! of the fractal forest at P = 4096 simulated ranks, every variant and
//! reversal scheme, bit-identical across repeated seeded runs.
//!
//! These are release-mode tests (`cargo test --release -p forestbal-sim`);
//! under `debug_assertions` they are `#[ignore]`d so plain `cargo test`
//! stays fast.

use forestbal_comm::Comm;
use forestbal_core::Condition;
use forestbal_forest::{BalanceVariant, ReversalScheme};
use forestbal_mesh::fractal_forest;
use forestbal_sim::{SimCluster, SimConfig};

fn balance_at(
    p: usize,
    cfg: SimConfig,
    variant: BalanceVariant,
    scheme: ReversalScheme,
) -> (Vec<(u64, u64)>, u64, u64) {
    let out = SimCluster::run(p, cfg, move |ctx| {
        let mut f = fractal_forest(ctx, 2, 3);
        let before = f.num_global(ctx);
        f.balance(ctx, Condition::full(3), variant, scheme);
        (before, f.checksum(ctx))
    });
    let msgs = out.total_stats().messages_sent;
    let makespan = out.makespan_ns();
    (out.results, makespan, msgs)
}

#[test]
#[cfg_attr(debug_assertions, ignore = "P = 4096 is a release-mode test")]
fn p4096_balance_all_variants_and_schemes() {
    let p = 4096;
    let cfg = SimConfig::builder().seed(42).jitter_ns(750).build();
    let mut sizes: Option<(u64, u64)> = None;
    for scheme in [
        ReversalScheme::Naive,
        ReversalScheme::Ranges(25),
        ReversalScheme::Notify,
    ] {
        for variant in [BalanceVariant::Old, BalanceVariant::New] {
            let (results, makespan, msgs) = balance_at(p, cfg, variant, scheme);
            assert_eq!(results.len(), p);
            assert!(makespan > 0);
            // Every rank agrees on the global counts.
            assert!(results.windows(2).all(|w| w[0] == w[1]));
            match sizes {
                None => sizes = Some(results[0]),
                Some(s) => assert_eq!(
                    s, results[0],
                    "{variant:?}/{scheme:?} disagrees on the balanced mesh"
                ),
            }
            if matches!(scheme, ReversalScheme::Notify) {
                assert!(msgs > 0, "notify must use point-to-point messages");
            }
        }
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "P = 4096 is a release-mode test")]
fn p4096_is_bit_identical_across_runs() {
    let p = 4096;
    let jittered = SimConfig::builder().jitter_ns(1_500);
    let cfg = jittered.seed(2012).build();
    let a = balance_at(p, cfg, BalanceVariant::New, ReversalScheme::Notify);
    let b = balance_at(p, cfg, BalanceVariant::New, ReversalScheme::Notify);
    assert_eq!(a, b, "same seed must reproduce results, makespan, stats");
    // A different fault-injection seed may change the schedule but never
    // the answer.
    let c = balance_at(
        p,
        jittered.seed(7).build(),
        BalanceVariant::New,
        ReversalScheme::Notify,
    );
    assert_eq!(a.0, c.0);
}

/// Always-on smoke at P = 1024 with the cheap reversal-only workload, so
/// plain debug `cargo test` still exercises four-digit rank counts.
#[test]
fn p1024_reversal_smoke() {
    let p = 1024;
    let out = SimCluster::run(p, SimConfig::default(), move |ctx| {
        let rs = vec![(ctx.rank() + 1) % p, (ctx.rank() + 7) % p];
        forestbal_comm::reverse_notify(ctx, &rs)
    });
    assert_eq!(out.results.len(), p);
    assert!(out.results.iter().all(|s| s.len() == 2));
    assert!(out.makespan_ns() > 0);
}
