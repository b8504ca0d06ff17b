//! Cross-crate integration tests: full AMR pipelines through the public
//! facade — refine, balance, coarsen, repartition, ghost exchange — the
//! way a downstream application would drive the library.

use forestbal::forest::serial::is_forest_balanced;
use forestbal::prelude::*;
use std::sync::Arc;

#[test]
fn adapt_balance_partition_cycle() {
    // Three AMR cycles: refine near a moving front, balance, partition.
    let conn = Arc::new(BrickConnectivity::<2>::new([2, 2], [false, false]));
    let out = Cluster::run(4, |ctx| {
        let mut f = Forest::new_uniform(Arc::clone(&conn), ctx, 2);
        let mut counts = Vec::new();
        for cycle in 0..3u32 {
            // A front sweeping diagonally through tree `cycle`.
            f.refine(true, 4 + cycle as u8, move |t, o| {
                t == cycle && (o.coords[0] - o.coords[1]).abs() < o.len()
            });
            f.balance(
                ctx,
                Condition::full(2),
                BalanceVariant::New,
                ReversalScheme::Notify,
            );
            f.partition_uniform(ctx);
            counts.push(f.num_global(ctx));
            // Partition quality: within one leaf of ideal.
            let ideal = counts.last().unwrap() / 4;
            assert!(
                (f.num_local() as i64 - ideal as i64).abs() <= 4,
                "cycle {cycle}: {} local vs ideal {ideal}",
                f.num_local()
            );
        }
        let g = f.gather(ctx);
        assert!(is_forest_balanced(f.connectivity(), &g, Condition::full(2)));
        (counts, f.checksum(ctx))
    });
    // All ranks agree at every cycle.
    for r in &out.results {
        assert_eq!(r.0, out.results[0].0);
        assert_eq!(r.1, out.results[0].1);
    }
    // The mesh grew across cycles.
    let c = &out.results[0].0;
    assert!(c[2] > c[0]);
}

#[test]
fn coarsen_then_rebalance_stays_consistent() {
    let conn = Arc::new(BrickConnectivity::<2>::unit());
    Cluster::run(2, |ctx| {
        let mut f = Forest::new_uniform(Arc::clone(&conn), ctx, 3);
        f.refine(true, 6, |_, o| o.coords == [0, 0]);
        f.balance(
            ctx,
            Condition::full(2),
            BalanceVariant::New,
            ReversalScheme::Notify,
        );
        let balanced = f.num_global(ctx);
        // Coarsen everything coarsenable away from the corner...
        f.coarsen(|_, o| o.coords[0] > (1 << 22) && o.coords[1] > (1 << 22));
        let coarsened = f.num_global(ctx);
        assert!(coarsened < balanced);
        // ...then re-balance; the result must again satisfy 2:1.
        f.balance(
            ctx,
            Condition::full(2),
            BalanceVariant::New,
            ReversalScheme::Notify,
        );
        let g = f.gather(ctx);
        assert!(is_forest_balanced(f.connectivity(), &g, Condition::full(2)));
    });
}

/// Does `g` of tree `tg` share a boundary object with a local leaf?
fn touches_local(f: &Forest<2>, tg: TreeId, g: &Octant<2>) -> bool {
    forestbal::octant::directions::<2>().any(|dir| {
        f.connectivity()
            .transform(tg, &g.neighbor(&dir))
            .is_some_and(|(t2, n)| {
                f.trees()
                    .any(|(t, v)| t == t2 && v.iter().any(|l| l.overlaps(&n)))
            })
    })
}

#[test]
fn ghosts_after_balance_match_adjacency() {
    let conn = Arc::new(BrickConnectivity::<2>::new([2, 1], [false, false]));
    Cluster::run(3, |ctx| {
        let mut f = Forest::new_uniform(Arc::clone(&conn), ctx, 2);
        f.refine(true, 5, |t, o| t == 0 && o.coords[0] + o.len() == (1 << 24));
        f.balance(
            ctx,
            Condition::full(2),
            BalanceVariant::New,
            ReversalScheme::Notify,
        );
        let ghosts = f.ghost_layer(ctx);
        let global = f.gather(ctx);
        for (t, owner, g) in ghosts.iter() {
            assert_ne!(owner, ctx.rank());
            assert!(
                global[&t].binary_search(&g).is_ok(),
                "ghost must be a global leaf"
            );
            assert!(touches_local(&f, t, &g), "ghost {g:?} does not touch rank");
        }
        // 2:1 balance holds between local leaves and ghosts (the property
        // a numerical code relies on): any ghost sharing a constrained
        // boundary with a local leaf differs by at most one level.
        for (t, _, g) in ghosts.iter() {
            for (t2, v) in f.trees() {
                if t2 != t {
                    continue;
                }
                for o in v.iter().filter(|o| !o.overlaps(&g)) {
                    // Closed boxes sharing at least a corner point.
                    let touch = (0..2).all(|i| {
                        o.coords[i] <= g.coords[i] + g.len() && g.coords[i] <= o.coords[i] + o.len()
                    });
                    if touch {
                        assert!(
                            (o.level as i16 - g.level as i16).abs() <= 1,
                            "ghost {g:?} vs local {o:?} violate 2:1"
                        );
                    }
                }
            }
        }
    });
}

#[test]
fn old_and_new_variants_agree_on_ice_sheet() {
    use forestbal::mesh::{ice_sheet_forest, IceSheetParams};
    let params = IceSheetParams {
        nx: 2,
        ny: 2,
        base_level: 1,
        max_level: 4,
        seed: 9,
    };
    let run = |variant: BalanceVariant| {
        Cluster::run(3, move |ctx| {
            let mut f = ice_sheet_forest(ctx, params);
            f.partition_uniform(ctx);
            f.balance(ctx, Condition::full(3), variant, ReversalScheme::Notify);
            (f.num_global(ctx), f.checksum(ctx))
        })
        .results[0]
    };
    assert_eq!(run(BalanceVariant::Old), run(BalanceVariant::New));
}

#[test]
fn ripple_one_pass_and_serial_all_agree_on_fractal() {
    use forestbal::mesh::fractal_forest;
    let run = |ripple: bool| {
        Cluster::run(4, move |ctx| {
            let mut f = fractal_forest(ctx, 1, 3);
            if ripple {
                f.balance_ripple(ctx, Condition::full(3));
            } else {
                f.balance(
                    ctx,
                    Condition::full(3),
                    BalanceVariant::New,
                    ReversalScheme::Notify,
                );
            }
            (f.num_global(ctx), f.checksum(ctx))
        })
        .results[0]
    };
    assert_eq!(run(true), run(false));
}

#[test]
fn weighted_partition_after_balance() {
    // Weight leaves by fineness (a proxy for per-element solver cost);
    // finer regions end up spread across more ranks.
    let conn = Arc::new(BrickConnectivity::<2>::unit());
    Cluster::run(4, |ctx| {
        let mut f = Forest::new_uniform(Arc::clone(&conn), ctx, 2);
        f.refine(true, 6, |_, o| o.coords[0] == 0 && o.coords[1] == 0);
        f.balance(
            ctx,
            Condition::full(2),
            BalanceVariant::New,
            ReversalScheme::Notify,
        );
        let before = f.checksum(ctx);
        f.partition_weighted(ctx, |_, o| 1 + (o.level as u64).pow(2));
        assert_eq!(f.checksum(ctx), before, "partition must preserve content");
        // Every rank owns something.
        assert!(f.num_local() > 0);
    });
}

#[test]
fn all_reversal_schemes_agree_end_to_end() {
    // Seeded hash refinement: the same global mesh on every rank count.
    fn split(t: TreeId, o: &Octant<2>) -> bool {
        let mut h = 77 ^ u64::from(t).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        for &c in &o.coords {
            h ^= u64::from(c as u32).wrapping_mul(0xff51_afd7_ed55_8ccd);
            h = h.rotate_left(29);
        }
        h ^= u64::from(o.level).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        (h.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 32).is_multiple_of(5)
    }
    let conn = Arc::new(BrickConnectivity::<2>::new([3, 1], [false, false]));
    let mut sums = Vec::new();
    for scheme in [
        ReversalScheme::Naive,
        ReversalScheme::Ranges(1),
        ReversalScheme::Ranges(25),
        ReversalScheme::Notify,
    ] {
        let conn = Arc::clone(&conn);
        let out = Cluster::run(5, move |ctx| {
            let mut f = Forest::new_uniform(Arc::clone(&conn), ctx, 2);
            f.refine(true, 5, split);
            f.balance(ctx, Condition::full(2), BalanceVariant::New, scheme);
            f.checksum(ctx)
        });
        sums.push(out.results[0]);
    }
    assert!(
        sums.windows(2).all(|w| w[0] == w[1]),
        "schemes disagree: {sums:?}"
    );
}
