//! Differential proptests: the service's incremental (dirty-region)
//! rebalance must be **bit-identical** to a full [`Forest::balance`] of
//! the same post-edit forest — leaves and checksums — on random
//! (forest, adaptation-batch) pairs, in 2D and 3D, on the threaded
//! cluster and the deterministic simulator (with delivery jitter).
//!
//! Identity holds by construction (2:1 balance has a unique minimal
//! balanced refinement and both algorithms compute it); these tests pin
//! the construction.

use forestbal_comm::{Cluster, Comm};
use forestbal_forest::{AdaptBatch, BalanceVariant, BrickConnectivity, Forest, ReversalScheme};
use forestbal_octant::key;
use forestbal_service::{ForestService, MovingFront, ServiceConfig};
use forestbal_sim::{SimCluster, SimConfig};
use proptest::prelude::*;
use std::sync::Arc;

/// SplitMix64 — a pure hash, so every rank (and both twins) derive the
/// same pseudo-random decision for the same (seed, tree, leaf).
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn leaf_hash(seed: u64, tree: u32, k: u128) -> u64 {
    mix(seed ^ mix(tree as u64) ^ mix((k ^ (k >> 64)) as u64))
}

/// A random adaptation batch derived purely from the snapshot: ~1/8 of
/// the leaves refine, ~1/16 of the families coarsen.
fn random_batch<const D: usize>(f: &Forest<D>, seed: u64, max_level: u8) -> AdaptBatch<D> {
    let mut b = AdaptBatch::new();
    for (t, v) in f.trees() {
        for o in v.iter() {
            let h = leaf_hash(seed, t, key::pack(&o));
            match h % 16 {
                0 | 1 if o.level < max_level => b.refine(t, &o),
                2 if o.level > 0 && o.child_id() == 0 => b.coarsen(t, &o.parent()),
                _ => {}
            }
        }
    }
    b
}

/// Run `epochs` batches from `next_batch(epoch, snapshot)` through a
/// never-falling-back service (incremental path) and through a full
/// balance twin, asserting leaf-for-leaf identity each epoch. Returns
/// the final checksum for cross-runtime comparison.
fn epochs_vs_full<C: Comm, const D: usize>(
    ctx: &C,
    f: Forest<D>,
    max_level: u8,
    epochs: u32,
    mut next_batch: impl FnMut(u32, &Forest<D>) -> AdaptBatch<D>,
) -> u64 {
    let mut cfg = ServiceConfig::new(D as u8);
    cfg.max_level = max_level;
    cfg.fallback_dirty_fraction = f64::INFINITY; // always incremental
    let mut svc = ForestService::new(ctx, f, cfg);
    let mut full = svc.forest().clone();

    for e in 0..epochs {
        let batch = next_batch(e, svc.forest());
        svc.submit_batch(&batch);
        let rep = svc.commit(ctx);
        assert!(!rep.fallback);

        full.apply_edits(&batch, max_level);
        full.balance(ctx, cfg.cond, BalanceVariant::New, ReversalScheme::Notify);

        let got = svc.forest().gather(ctx);
        let want = full.gather(ctx);
        assert_eq!(got, want, "epoch {e}: incremental differs from full");
        assert_eq!(svc.forest().checksum(ctx), full.checksum(ctx));
    }
    svc.forest().checksum(ctx)
}

/// [`epochs_vs_full`] on a randomly refined forest (~1/4 of the leaves,
/// recursively) with two random batches.
fn random_epochs<C: Comm, const D: usize>(
    ctx: &C,
    conn: Arc<BrickConnectivity<D>>,
    base_level: u8,
    max_level: u8,
    seed: u64,
) -> u64 {
    let mut f = Forest::new_uniform(conn, ctx, base_level);
    f.refine(true, max_level, |t, o| {
        leaf_hash(seed ^ 0xF0F0, t, key::pack(o)).is_multiple_of(4)
    });
    epochs_vs_full(ctx, f, max_level, 2, |e, snap| {
        random_batch(snap, seed ^ (e as u64).wrapping_mul(0xA5A5), max_level)
    })
}

/// [`epochs_vs_full`] under a moving refinement front on the 3×2×1
/// brick: from epoch 14 on, families behind the front coarsen on both
/// sides of a partition boundary in the same epoch, so a merged parent
/// faces the neighbor rank's *pre-epoch* finer ghosts until the first
/// exchange patches them away.
fn front_epochs<C: Comm>(ctx: &C) -> u64 {
    const BRICK: [usize; 3] = [3, 2, 1];
    let conn = Arc::new(BrickConnectivity::<3>::new(BRICK, [false; 3]));
    let mut front = MovingFront {
        center: [0.8, 0.6, 0.4],
        velocity: [0.05, 0.03, 0.01],
        radius: 0.15,
        max_level: 5,
        base_level: 3,
    };
    let f = Forest::new_uniform(conn, ctx, front.base_level);
    epochs_vs_full(ctx, f, front.max_level, 30, |_, snap| {
        let batch = front.batch(snap);
        front.step(BRICK);
        batch
    })
}

proptest! {
    // Each case runs threaded + simulated + jittered epochs twice over
    // (incremental and full twin), so keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// 2D: random forests and batches, threaded vs simulated vs
    /// jittered delivery order — all identical to full balance.
    #[test]
    fn incremental_matches_full_2d(p in 1usize..5, seed in any::<u64>()) {
        let threaded = Cluster::run(p, move |ctx| {
            let conn = Arc::new(BrickConnectivity::<2>::new([2, 1], [false; 2]));
            random_epochs(ctx, conn, 2, 5, seed)
        });
        let sim = SimCluster::run(p, SimConfig::default(), move |ctx| {
            let conn = Arc::new(BrickConnectivity::<2>::new([2, 1], [false; 2]));
            random_epochs(ctx, conn, 2, 5, seed)
        });
        prop_assert_eq!(&threaded.results, &sim.results);

        let jittered = SimCluster::run(
            p,
            SimConfig::builder().seed(seed).jitter_ns(2_500).build(),
            move |ctx| {
                let conn = Arc::new(BrickConnectivity::<2>::new([2, 1], [false; 2]));
                random_epochs(ctx, conn, 2, 5, seed)
            },
        );
        prop_assert_eq!(&threaded.results, &jittered.results);
    }

    /// 3D: same contract on a two-tree brick.
    #[test]
    fn incremental_matches_full_3d(p in 1usize..4, seed in any::<u64>()) {
        let threaded = Cluster::run(p, move |ctx| {
            let conn = Arc::new(BrickConnectivity::<3>::new([2, 1, 1], [false; 3]));
            random_epochs(ctx, conn, 1, 4, seed)
        });
        let jittered = SimCluster::run(
            p,
            SimConfig::builder().seed(seed).jitter_ns(2_500).build(),
            move |ctx| {
                let conn = Arc::new(BrickConnectivity::<3>::new([2, 1, 1], [false; 3]));
                random_epochs(ctx, conn, 1, 4, seed)
            },
        );
        prop_assert_eq!(&threaded.results, &jittered.results);
    }
}

/// Simultaneous coarsening on both sides of a partition boundary must
/// not re-split merged parents against stale ghosts: every epoch of the
/// moving front matches the full-balance twin, threaded and simulated.
#[test]
fn moving_front_matches_full_across_rank_boundaries() {
    let serial = Cluster::run(1, front_epochs).results[0];
    for p in [2usize, 3] {
        let out = Cluster::run(p, front_epochs);
        assert!(out.results.iter().all(|&c| c == serial), "P={p}");
    }
    let sim = SimCluster::run(2, SimConfig::default(), front_epochs);
    assert!(sim.results.iter().all(|&c| c == serial), "sim P=2");
}

/// The mixed service loop — queries interleaved with adaptations — on
/// the fractal mesh, with the *default* fallback threshold: epochs that
/// trip the threshold run full balance, the rest run incrementally, and
/// every snapshot matches the full-balance twin either way.
#[test]
fn fallback_boundary_matches_full_on_fractal() {
    use forestbal_mesh::fractal_forest;
    Cluster::run(3, |ctx| {
        let f = fractal_forest(ctx, 1, 2);
        let mut cfg = ServiceConfig::new(3);
        cfg.max_level = 5;
        let mut svc = ForestService::new(ctx, f, cfg);
        let mut full = svc.forest().clone();
        let mut saw_fallback = false;
        let mut saw_incremental = false;
        for e in 0..4u64 {
            // Epoch size swings across the 10% threshold: big batches
            // on even epochs, a single leaf on odd ones.
            let batch = if e % 2 == 0 {
                random_batch(svc.forest(), mix(e), cfg.max_level)
            } else {
                let mut b = AdaptBatch::new();
                let first = svc.forest().trees().next().map(|(t, v)| (t, v.get(0)));
                if let Some((t, o)) = first {
                    if o.level < cfg.max_level {
                        b.refine(t, &o);
                    }
                }
                b
            };
            svc.submit_batch(&batch);
            let rep = svc.commit(ctx);
            saw_fallback |= rep.fallback;
            saw_incremental |= !rep.fallback;

            full.apply_edits(&batch, cfg.max_level);
            full.balance(ctx, cfg.cond, BalanceVariant::New, ReversalScheme::Notify);
            assert_eq!(svc.forest().gather(ctx), full.gather(ctx), "epoch {e}");
            assert_eq!(svc.forest().checksum(ctx), full.checksum(ctx));
        }
        assert!(saw_fallback, "large batches must trip the threshold");
        assert!(saw_incremental, "small batches must stay incremental");
    });
}
