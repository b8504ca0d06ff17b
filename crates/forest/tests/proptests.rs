//! Property tests for the distributed forest: the parallel one-pass
//! balance must match the serial oracle for arbitrary refinements, rank
//! counts, variants, and reversal schemes; the ghost layer must match a
//! brute-force oracle over the gathered forest.

use forestbal_comm::{Cluster, Comm};
use forestbal_core::Condition;
use forestbal_forest::serial::is_forest_balanced;
use forestbal_forest::{
    serial_forest_balance, AdaptBatch, BalanceVariant, BrickConnectivity, Forest, GlobalPos,
    ReversalScheme, TreeId,
};
use forestbal_octant::{codim, directions, Octant, PackedOctant, MAX_LEVEL};
use forestbal_sim::{SimCluster, SimConfig};
use proptest::prelude::*;
use std::sync::Arc;

/// Deterministic pseudo-random refinement predicate from a seed.
fn pseudo_refine<const D: usize>(seed: u64, t: TreeId, o: &Octant<D>, denom: u64) -> bool {
    let mut h = seed ^ (t as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for &c in &o.coords {
        h ^= (c as u64).wrapping_mul(0xff51_afd7_ed55_8ccd);
        h = h.rotate_left(31);
    }
    h ^= o.level as u64;
    h = h.wrapping_mul(0x2545_f491_4f6c_dd1d);
    (h >> 33).is_multiple_of(denom)
}

/// Random octant from a seed word: a random descent from the root,
/// sometimes translated across a tree boundary afterwards (negative or
/// past-the-root coordinates), as the ripple and ghost senders produce.
fn pseudo_octant<const D: usize>(mut h: u64) -> Octant<D> {
    let mut step = move || {
        h ^= h << 13;
        h ^= h >> 7;
        h ^= h << 17;
        h
    };
    let mut o = Octant::<D>::root();
    for _ in 0..step() % 8 {
        o = o.child((step() % Octant::<D>::NUM_CHILDREN as u64) as usize);
    }
    if step().is_multiple_of(3) {
        let mut dir = [0i8; D];
        for d in dir.iter_mut() {
            *d = (step() % 3) as i8 - 1;
        }
        o = o.neighbor(&dir);
    }
    o
}

/// The batch key codec and the tree-run wire framing round-trip an
/// arbitrary `(tree, octant)` record stream: batch pack/unpack agrees
/// with the scalar codec, `RunEncoder` → `for_each_run` reproduces the
/// records grouped into runs at tree switches, and the byte budget is
/// exactly one key per octant plus 8 framing bytes per run.
fn wire_roundtrip<const D: usize>(seeds: &[u64]) -> Result<(), String> {
    use forestbal_forest::codec::{self, RunEncoder};
    use forestbal_octant::{key, pack_batch, unpack_batch};
    let recs: Vec<(TreeId, Octant<D>)> = seeds
        .iter()
        .map(|&h| (((h >> 48) % 5) as TreeId, pseudo_octant::<D>(h)))
        .collect();
    let octs: Vec<Octant<D>> = recs.iter().map(|r| r.1).collect();

    let mut keys = Vec::new();
    pack_batch(&octs, &mut keys);
    let scalar: Vec<u128> = octs.iter().map(key::pack).collect();
    prop_assert_eq!(&keys, &scalar, "batch pack diverged from scalar");
    let mut back = Vec::new();
    unpack_batch(&keys, &mut back);
    prop_assert_eq!(&back, &octs, "batch unpack is not the inverse");

    let mut buf = Vec::new();
    let mut enc = RunEncoder::new();
    for (&(t, _), &k) in recs.iter().zip(&keys) {
        enc.push::<D>(&mut buf, t, k);
    }
    enc.finish(&mut buf);
    let mut runs = 0usize;
    let mut decoded: Vec<(TreeId, u128)> = Vec::new();
    codec::for_each_run::<D>(&buf, |t, ks| {
        runs += 1;
        assert!(!ks.is_empty(), "empty run emitted");
        decoded.extend(ks.iter().map(|&k| (t, k)));
    });
    let want: Vec<(TreeId, u128)> = recs.iter().zip(&keys).map(|(&(t, _), &k)| (t, k)).collect();
    prop_assert_eq!(decoded, want);
    let switches =
        recs.windows(2).filter(|w| w[0].0 != w[1].0).count() + usize::from(!recs.is_empty());
    prop_assert_eq!(runs, switches, "runs must split exactly at tree switches");
    prop_assert_eq!(buf.len(), keys.len() * codec::key_size::<D>() + 8 * runs);
    Ok(())
}

// ---- Ghost-layer oracle on *adapted* forests ---------------------------
//
// The layer a rank collects must be exactly the remote leaves of the
// gathered forest whose insulation layer (their `3^D - 1` same-size
// neighbors, across tree boundaries and periodic wraps) overlaps one of
// the rank's leaves — no entry missing, none extra, each with its true
// owner. The construction runs the other way round (local leaves are
// scanned and *sent*, interior ones rejected in O(1)), so a rejection that
// dropped a boundary leaf shows up as a missing ghost on the far side.
// Checked on the threaded runtime and the simulator, which must also
// agree with each other.

/// A periodic single tree, a multi-tree brick and a masked L-brick.
fn bricks<const D: usize>() -> Vec<(&'static str, BrickConnectivity<D>)> {
    let two_by: [usize; D] = std::array::from_fn(|i| if i == 0 { 2 } else { 1 });
    let ell: [usize; D] = std::array::from_fn(|i| if i < 2 { 2 } else { 1 });
    vec![
        ("periodic", BrickConnectivity::new([1; D], [true; D])),
        ("multi", BrickConnectivity::new(two_by, [false; D])),
        (
            "ell",
            BrickConnectivity::masked(ell, [false; D], |c| !(c[0] == 1 && c[1] == 1)),
        ),
    ]
}

/// `(tree, owner, leaf)` entries in layer order.
type Entries<const D: usize> = Vec<(TreeId, usize, Octant<D>)>;

/// One rank's ghost layer beside the brute-force oracle over `gather()`.
fn layer_and_oracle<const D: usize>(
    ctx: &impl Comm,
    conn: &Arc<BrickConnectivity<D>>,
    seed: u64,
    denom: u64,
    levels: (u8, u8),
) -> (Entries<D>, Entries<D>) {
    let mut f = Forest::new_uniform(Arc::clone(conn), ctx, levels.0);
    f.refine(true, levels.1, |t, o| pseudo_refine(seed, t, o, denom));
    let ghosts = f.ghost_layer(ctx);
    let got: Entries<D> = ghosts.iter().collect();

    let overlaps_local = |t: TreeId, n: &Octant<D>| {
        f.trees()
            .filter(|&(tt, _)| tt == t)
            .any(|(_, v)| v.iter().any(|l| l.overlaps(n)))
    };
    let mut want: Entries<D> = Vec::new();
    for (&t, leaves) in &f.gather(ctx) {
        for g in leaves {
            let owner = f.owner_of(GlobalPos {
                tree: t,
                index: g.index(),
            });
            let reaches_me = owner != ctx.rank()
                && directions::<D>().any(|dir| {
                    conn.transform(t, &g.neighbor(&dir))
                        .is_some_and(|(t2, n2)| overlaps_local(t2, &n2))
                });
            if reaches_me {
                want.push((t, owner, *g));
            }
        }
    }
    (got, want)
}

/// `levels` is `(uniform base, refinement cap)`; the base keeps every
/// rank of the largest cluster non-empty.
fn ghosts_match_oracle<const D: usize>(seed: u64, denom: u64, levels: (u8, u8)) {
    for (name, conn) in bricks::<D>() {
        let conn = Arc::new(conn);
        for p in [1usize, 2, 3, 5] {
            let c = Arc::clone(&conn);
            let threaded =
                Cluster::run(p, move |ctx| layer_and_oracle(ctx, &c, seed, denom, levels));
            let c = Arc::clone(&conn);
            let sim = SimCluster::run(p, SimConfig::default(), move |ctx| {
                layer_and_oracle(ctx, &c, seed, denom, levels)
            });
            for (rank, (got, want)) in threaded.results.iter().enumerate() {
                assert_eq!(got, want, "{name} P={p} rank {rank} seed {seed}");
                assert_eq!(p > 1, !got.is_empty(), "{name} P={p} rank {rank}");
            }
            assert_eq!(
                threaded.results, sim.results,
                "{name} P={p}: threaded vs sim"
            );
        }
    }
}

proptest! {
    // Each case spawns clusters; keep the counts modest.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn parallel_matches_serial_oracle(
        seed in any::<u64>(),
        p in 1usize..7,
        k in 1u8..=2,
        denom in 3u64..6,
        variant_new in any::<bool>(),
        nx in 1usize..3,
        periodic in any::<bool>(),
    ) {
        let cond = Condition::new(k, 2).unwrap();
        let variant = if variant_new { BalanceVariant::New } else { BalanceVariant::Old };
        let conn = Arc::new(BrickConnectivity::<2>::new([nx, 1], [periodic && nx > 1, false]));
        let conn2 = Arc::clone(&conn);
        let out = Cluster::run(p, move |ctx| {
            let mut f = Forest::new_uniform(Arc::clone(&conn2), ctx, 1);
            f.refine(true, 5, |t, o| pseudo_refine(seed, t, o, denom));
            let input = f.gather(ctx);
            f.balance(ctx, cond, variant, ReversalScheme::Notify);
            (input, f.gather(ctx))
        });
        let (input, got) = &out.results[0];
        for (i2, g2) in &out.results {
            prop_assert_eq!(i2, input, "ranks disagree on input");
            prop_assert_eq!(g2, got, "ranks disagree on result");
        }
        let want = serial_forest_balance(&conn, input, cond);
        prop_assert!(is_forest_balanced(&conn, got, cond));
        for (t, v) in &want {
            prop_assert_eq!(
                got.get(t),
                Some(v),
                "seed={} p={} k={} variant={:?}", seed, p, k, variant
            );
        }
    }

    #[test]
    fn ripple_matches_one_pass_random(
        seed in any::<u64>(),
        p in 1usize..6,
        denom in 3u64..6,
    ) {
        let cond = Condition::full(2);
        let conn = Arc::new(BrickConnectivity::<2>::new([2, 1], [false, false]));
        let run = |ripple: bool| {
            let conn = Arc::clone(&conn);
            Cluster::run(p, move |ctx| {
                let mut f = Forest::new_uniform(Arc::clone(&conn), ctx, 1);
                f.refine(true, 5, |t, o| pseudo_refine(seed, t, o, denom));
                if ripple {
                    f.balance_ripple(ctx, cond);
                } else {
                    f.balance(ctx, cond, BalanceVariant::New, ReversalScheme::Notify);
                }
                f.checksum(ctx)
            })
            .results[0]
        };
        prop_assert_eq!(run(true), run(false), "seed={} p={}", seed, p);
    }

    #[test]
    fn wire_codec_roundtrip_random_2d(seeds in proptest::collection::vec(any::<u64>(), 0..200)) {
        wire_roundtrip::<2>(&seeds)?;
    }

    #[test]
    fn wire_codec_roundtrip_random_3d(seeds in proptest::collection::vec(any::<u64>(), 0..200)) {
        wire_roundtrip::<3>(&seeds)?;
    }

    #[test]
    fn partition_preserves_content_random(
        seed in any::<u64>(),
        p in 1usize..8,
        weight_pow in 0u32..3,
    ) {
        let conn = Arc::new(BrickConnectivity::<2>::new([2, 2], [false, false]));
        let conn2 = Arc::clone(&conn);
        let out = Cluster::run(p, move |ctx| {
            let mut f = Forest::new_uniform(Arc::clone(&conn2), ctx, 1);
            f.refine(true, 4, |t, o| pseudo_refine(seed, t, o, 4));
            let before = f.checksum(ctx);
            f.partition_weighted(ctx, |_, o| 1 + (o.level as u64).pow(weight_pow));
            let after = f.checksum(ctx);
            (before, after, f.num_local())
        });
        for (b, a, n) in &out.results {
            prop_assert_eq!(b, a, "content changed");
            if weight_pow == 0 {
                // Uniform weights: counts within 1 of each other.
                let total: usize = out.results.iter().map(|r| r.2).sum();
                prop_assert!(n.abs_diff(total / p) <= 1);
            }
        }
    }
}

proptest! {
    // Each case spawns 24 clusters; keep the counts modest.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn ghost_layer_matches_oracle_2d(seed in any::<u64>(), denom in 2u64..5) {
        ghosts_match_oracle::<2>(seed, denom, (2, 5));
    }

    #[test]
    fn ghost_layer_matches_oracle_3d(seed in any::<u64>(), denom in 3u64..6) {
        ghosts_match_oracle::<3>(seed, denom, (1, 3));
    }
}

// ---- Merged parents need no family item of their own -----------------
//
// The incremental commit (`Forest::balance_incremental`) pushes no family
// item for a leaf a coarsen created: its pre-edit children's items were
// already enforced by the balanced pre-edit forest, and those are
// stronger. Only a leaf the same batch coarsened can still be too
// coarse for it, and that leaf's own reverse seed finds the constraint.

/// On a random balanced forest (every brick of [`bricks`], one rank, a
/// random k) and a random batch of coarsens and refines, the family item
/// `parent(m)` of every merged parent `m` forces only other merged
/// parents: the current leaf containing its same-level box in a
/// constrained direction is either at least as fine as `parent(m)` or
/// itself one of the batch's merged parents.
fn merged_parent_items_force_nothing<const D: usize>(seed: u64, denom: u64) {
    let k = 1 + (seed % D as u64) as u8;
    let cond = Condition::new(k, D as u8).unwrap();
    for (name, conn) in bricks::<D>() {
        let conn = Arc::new(conn);
        Cluster::run(1, |ctx| {
            let mut f = Forest::new_uniform(Arc::clone(&conn), ctx, 1);
            f.refine(true, 4, |t, o| pseudo_refine(seed, t, o, denom));
            f.balance(ctx, cond, BalanceVariant::New, ReversalScheme::Notify);
            let mut batch = AdaptBatch::new();
            for (t, leaves) in f.trees() {
                for o in leaves.iter() {
                    if o.level > 0 && o.child_id() == 0 && pseudo_refine(seed ^ 1, t, &o, 2) {
                        batch.coarsen(t, &o.parent());
                    } else if pseudo_refine(seed ^ 2, t, &o, 5) {
                        batch.refine(t, &o);
                    }
                }
            }
            let dirty = f.apply_edits(&batch, 5);
            let leaves: Vec<(TreeId, Vec<u128>)> =
                f.trees().map(|(t, v)| (t, v.keys().to_vec())).collect();
            let merged: Vec<(TreeId, u128)> = dirty
                .iter_coarsened()
                .flat_map(|(t, keys)| keys.iter().map(move |&k| (t, k)))
                .collect();
            for &(t, m) in &merged {
                let m = PackedOctant::<D>(m);
                if m.level() == 0 {
                    continue;
                }
                let p = m.parent();
                for dir in directions::<D>().filter(|dir| cond.constrains(codim(dir))) {
                    let Some((t2, n)) = conn.transform_key(t, p.neighbor(&dir)) else {
                        continue;
                    };
                    let v = &leaves.iter().find(|(u, _)| *u == t2).expect("one rank").1;
                    // The leaf containing the box, unless the box is
                    // subdivided.
                    let i = v.partition_point(|&k| k <= n.0);
                    let Some(c) = i.checked_sub(1).map(|i| PackedOctant::<D>(v[i])) else {
                        continue;
                    };
                    if c.contains(n) && c.level() < p.level() {
                        assert!(
                            merged.contains(&(t2, c.0)),
                            "{name} seed {seed}: merged {m:?} of tree {t} forces {c:?} of tree {t2}"
                        );
                    }
                }
            }
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn merged_parent_items_force_nothing_2d(seed in any::<u64>(), denom in 2u64..5) {
        merged_parent_items_force_nothing::<2>(seed, denom);
    }

    #[test]
    fn merged_parent_items_force_nothing_3d(seed in any::<u64>(), denom in 3u64..6) {
        merged_parent_items_force_nothing::<3>(seed, denom);
    }
}

// ---- Frame changes on keys --------------------------------------------
//
// The forest routes every neighbor across tree boundaries with
// `transform_key` (top bit-plane rewrite); the struct `transform` is its
// coordinate reference.

/// A random octant of some tree, hugging one corner of the root at most
/// levels (so faces, edges and corners of trees are touched often), down
/// to `MAX_LEVEL`.
fn corner_hugger<const D: usize>(mut h: u64) -> Octant<D> {
    let mut step = move || {
        h ^= h << 13;
        h ^= h >> 7;
        h ^= h << 17;
        h
    };
    let nc = Octant::<D>::NUM_CHILDREN as u64;
    let corner = (step() % nc) as usize;
    let mut o = Octant::<D>::root();
    for _ in 0..step() % (MAX_LEVEL as u64 + 1) {
        let id = if step().is_multiple_of(4) {
            (step() % nc) as usize
        } else {
            corner
        };
        o = o.child(id);
    }
    o
}

/// Key and struct transform agree, `None` included, on every neighbor of
/// random octants of every tree of the three bricks.
fn key_transform_matches_struct<const D: usize>(seed: u64) {
    for (name, conn) in bricks::<D>() {
        let (mut crossed, mut outside) = (0usize, 0usize);
        for t in 0..conn.num_trees() as TreeId {
            for i in 0..64u64 {
                let o = corner_hugger::<D>(
                    seed ^ (i + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ t as u64,
                );
                for dir in directions::<D>() {
                    let n = o.neighbor(&dir);
                    let want = conn.transform(t, &n);
                    let got = conn.transform_key(t, PackedOctant::new(&n));
                    assert_eq!(
                        got.map(|(t2, k)| (t2, k.octant())),
                        want,
                        "{name} tree {t} {o:?} dir {dir:?}"
                    );
                    crossed += usize::from(!n.is_inside_root() && want.is_some());
                    outside += usize::from(want.is_none());
                }
            }
        }
        assert!(crossed > 0, "{name}: no neighbor crossed a tree boundary");
        assert_eq!(outside > 0, name != "periodic", "{name}: boundary coverage");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn key_transform_matches_struct_2d(seed in any::<u64>()) {
        key_transform_matches_struct::<2>(seed);
    }

    #[test]
    fn key_transform_matches_struct_3d(seed in any::<u64>()) {
        key_transform_matches_struct::<3>(seed);
    }
}
