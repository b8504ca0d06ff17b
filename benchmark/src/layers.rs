//! Per-layer measurements of the traced run that are not spans of the
//! workload itself: kernel replays of the workload's own leaves through
//! the public functions of `octant` and `core`, and probes of `par`,
//! `sim`, `comm` and `mesh` that are the same for every workload.

use crate::ops::cond;
use crate::stats::{median, Rng, Samples};
use forestbal::comm::{Cluster, Comm};
use forestbal::core::{
    balance_subtree_new_with_stats_scratch, balance_subtree_old_ext_scratch, find_seeds,
    insulation_layer, is_balanced_pair, reconstruct_from_seeds, BalanceScratch,
};
use forestbal::forest::{BalanceVariant, ReversalScheme, TreeId};
use forestbal::mesh::{fractal_forest, ice_sheet_forest, IceSheetParams};
use forestbal::octant::{
    directions, linearize, pack_batch, sort_keys_with, unpack_batch, Octant, OctantTable,
    SortScratch,
};
use forestbal::sim::{FatTreeParams, NetworkSpec, SimCluster, SimConfig};
use forestbal_par::Pool;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Repetitions of each replayed kernel; the series' median is reported.
const REPLAY_REPS: usize = 5;

fn time<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64(), out)
}

/// Replay rank 0's pre-balance leaves through `octant` and `core`.
pub fn kernel_replays(leaves: &[(TreeId, Vec<Octant<3>>)], seed: u64, out: &mut Samples) {
    let trees: Vec<&Vec<Octant<3>>> = leaves
        .iter()
        .map(|(_, v)| v)
        .filter(|v| !v.is_empty())
        .collect();
    assert!(
        !trees.is_empty(),
        "the workload handed over no leaves to replay"
    );
    let mut rng = Rng::new(seed);

    // --- octant: key sort, table, batch codecs, linearize -------------
    let mut keys = Vec::new();
    for v in &trees {
        pack_batch(v, &mut keys);
    }
    rng.shuffle(&mut keys);
    let mut sort = SortScratch::new();
    for _ in 0..REPLAY_REPS {
        let mut k = keys.clone();
        let (secs, ()) = time(|| sort_keys_with::<3>(black_box(&mut k), &mut sort));
        out.push("octant.sort_keys_s", secs);
        black_box(k);
    }
    out.push("octant.sort_keys_n", keys.len() as f64);
    out.push(
        "octant.radix_passes",
        sort.radix_passes as f64 / sort.radix_sorts.max(1) as f64,
    );

    for _ in 0..REPLAY_REPS {
        // A fresh table per repetition: a reused one keeps the largest
        // capacity it ever had, and the probe counts would not repeat.
        let mut table = OctantTable::<3>::new();
        let (mut build, mut query, mut ops) = (0.0, 0.0, 0u64);
        let mut spent = (0, 0);
        for v in &trees {
            build += time(|| {
                table.reset_for(v.len());
                for o in v.iter() {
                    table.insert(black_box(o));
                }
            })
            .0;
            let before = (table.probe_count(), table.lookup_count());
            query += time(|| {
                let mut hits = 0usize;
                for o in v.iter() {
                    hits += usize::from(table.contains(black_box(o)));
                    if o.level > 0 {
                        hits += usize::from(table.contains(black_box(&o.parent())));
                    }
                }
                black_box(hits);
            })
            .0;
            spent.0 += table.probe_count() - before.0;
            spent.1 += table.lookup_count() - before.1;
            ops += 2 * v.len() as u64;
        }
        out.push("octant.table_build_s", build);
        out.push("octant.table_query_ns", query * 1e9 / ops as f64);
        out.push(
            "octant.table_probes_per_op",
            spent.0 as f64 / spent.1.max(1) as f64,
        );
    }

    for _ in 0..REPLAY_REPS {
        let (mut pack, mut unpack) = (0.0, 0.0);
        for v in &trees {
            let mut packed = Vec::with_capacity(v.len());
            pack += time(|| pack_batch(black_box(v), &mut packed)).0;
            let mut back = Vec::with_capacity(v.len());
            unpack += time(|| unpack_batch(black_box(&packed), &mut back)).0;
            assert_eq!(&back, *v, "unpack_batch is not the inverse of pack_batch");
        }
        out.push("octant.pack_batch_s", pack);
        out.push("octant.unpack_batch_s", unpack);
    }

    for _ in 0..REPLAY_REPS {
        let mut secs = 0.0;
        for v in &trees {
            // Leaves and their parents, shuffled: linearize must give the
            // leaves back.
            let mut mixed: Vec<Octant<3>> = v.to_vec();
            mixed.extend(v.iter().filter(|o| o.level > 0).map(|o| o.parent()));
            rng.shuffle(&mut mixed);
            secs += time(|| linearize(black_box(&mut mixed))).0;
            assert_eq!(&mixed, *v, "linearize lost the leaves");
        }
        out.push("octant.linearize_s", secs);
    }

    // --- core: subtree balance, old and new ---------------------------
    let mut scratch = BalanceScratch::<3>::new();
    for _ in 0..REPLAY_REPS.min(3) {
        let (mut new_s, mut old_s) = (0.0, 0.0);
        let mut sums = [0u64; 5];
        for v in &trees {
            let root = v[0].nearest_common_ancestor(&v[v.len() - 1]);
            let (secs, (new_out, new_stats)) = time(|| {
                balance_subtree_new_with_stats_scratch(&root, black_box(v), cond(), &mut scratch)
            });
            new_s += secs;
            let (secs, (old_out, old_stats)) = time(|| {
                balance_subtree_old_ext_scratch(&root, black_box(v), &[], cond(), &mut scratch)
            });
            old_s += secs;
            assert_eq!(new_out, old_out, "old and new subtree balance differ");
            sums[0] += new_stats.hash_queries;
            sums[1] += old_stats.hash_queries;
            sums[2] += new_stats.sorted_len as u64;
            sums[3] += old_stats.sorted_len as u64;
            sums[4] += new_stats.output_len as u64;
        }
        out.push("core.subtree_new_s", new_s);
        out.push("core.subtree_old_s", old_s);
        out.push("core.subtree_new_hash_queries", sums[0] as f64);
        out.push("core.subtree_old_hash_queries", sums[1] as f64);
        out.push("core.subtree_new_sorted_len", sums[2] as f64);
        out.push("core.subtree_old_sorted_len", sums[3] as f64);
        out.push("core.subtree_output_len", sums[4] as f64);
    }

    // --- core: the O(1) remote decisions ------------------------------
    // Pairs of a leaf and the insulation layer of its Morton successor:
    // close in space, as the responder sees them.
    let sampled: Vec<Octant<3>> = trees
        .iter()
        .flat_map(|v| v.iter().copied())
        .take(50_000)
        .collect();
    for _ in 0..REPLAY_REPS {
        let mut pairs = 0u64;
        let (secs, balanced) = time(|| {
            let mut balanced = 0u64;
            for w in sampled.windows(2) {
                for r in &insulation_layer(&w[1]) {
                    if !r.overlaps(&w[0]) {
                        pairs += 1;
                        balanced += u64::from(is_balanced_pair(black_box(&w[0]), r, cond()));
                    }
                }
            }
            balanced
        });
        black_box(balanced);
        out.push("core.pair_decision_ns", secs * 1e9 / pairs.max(1) as f64);
    }

    // A fine leaf against a coarse octant two levels up, one step away:
    // the query a remote rank answers with seeds.
    let queries: Vec<(Octant<3>, Octant<3>)> = sampled
        .iter()
        .filter(|o| o.level >= 3)
        .flat_map(|o| {
            let coarse = o.ancestor(o.level - 2);
            directions::<3>()
                .map(move |d| (*o, coarse.neighbor(&d)))
                .filter(|(_, r)| r.is_inside_root())
        })
        .take(200_000)
        .collect();
    for _ in 0..REPLAY_REPS {
        let (secs, answers) = time(|| {
            queries
                .iter()
                .map(|(o, r)| find_seeds(black_box(o), r, cond()))
                .collect::<Vec<_>>()
        });
        out.push(
            "core.find_seeds_ns",
            secs * 1e9 / queries.len().max(1) as f64,
        );
        let seeds: usize = answers.iter().flatten().map(Vec::len).sum();
        out.push(
            "core.seeds_per_query",
            seeds as f64 / queries.len().max(1) as f64,
        );
        let (secs, rebuilt) = time(|| {
            let mut rebuilt = 0usize;
            for ((_, r), seeds) in queries.iter().zip(&answers) {
                if let Some(seeds) = seeds {
                    rebuilt += reconstruct_from_seeds(r, black_box(seeds), cond()).len();
                }
            }
            rebuilt
        });
        black_box(rebuilt);
        out.push("core.reconstruct_s", secs);
    }
}

/// Probes that do not depend on the workload.
pub fn layer_probes(smoke: bool, out: &mut Samples) {
    par_probes(smoke, out);
    sim_probes(smoke, out);
    mesh_probes(smoke, out);
}

fn par_probes(smoke: bool, out: &mut Samples) {
    let (one, two) = (Arc::new(Pool::new(1)), Arc::new(Pool::new(2)));
    for _ in 0..REPLAY_REPS {
        let calls = 2_000;
        let (secs, ()) = time(|| {
            for _ in 0..calls {
                two.run(64, |task, worker| {
                    black_box((task, worker));
                });
            }
        });
        out.push("par.dispatch_ns", secs * 1e9 / calls as f64);
    }

    // One rank, so the pool has the cores to itself.
    let level = if smoke { 1 } else { 2 };
    let results = Cluster::run(1, |ctx| {
        let f = fractal_forest(ctx, level, 4);
        let mut keys: Vec<u128> = f
            .trees_packed()
            .flat_map(|(_, k)| k.iter().copied())
            .collect();
        Rng::new(1).shuffle(&mut keys);
        let mut series = Samples::default();
        for _ in 0..REPLAY_REPS {
            for (pool, sort_name, bal_name) in [
                (&one, "par.sort_w1_s", "par.balance_w1_s"),
                (&two, "par.sort_w2_s", "par.balance_w2_s"),
            ] {
                let mut k = keys.clone();
                let mut scratch = SortScratch::new();
                let (secs, ()) =
                    time(|| pool.install(|| sort_keys_with::<3>(&mut k, &mut scratch)));
                series.push(sort_name, secs);
                let mut g = f.clone();
                let (secs, _) = time(|| {
                    pool.install(|| {
                        g.balance(ctx, cond(), BalanceVariant::New, ReversalScheme::Notify)
                    })
                });
                series.push(bal_name, secs);
            }
        }
        series
    })
    .results;
    let series = &results[0];
    out.push(
        "par.sort_speedup_w2",
        series.median("par.sort_w1_s") / series.median("par.sort_w2_s"),
    );
    out.push(
        "par.balance_speedup_w2",
        series.median("par.balance_w1_s") / series.median("par.balance_w2_s"),
    );
}

fn sim_probes(smoke: bool, out: &mut Samples) {
    let (ranks, level) = if smoke { (64, 2) } else { (1024, 3) };
    for _ in 0..3 {
        let (secs, _) = time(|| SimCluster::run(ranks, SimConfig::default(), |_| ()));
        out.push("sim.spawn_s", secs);
    }
    // One balance under the simulator: the slowest rank's virtual
    // reversal time and rank 0's host time, barrier to barrier.
    let balance = |scheme: ReversalScheme, config: SimConfig| {
        SimCluster::run(ranks, config, |ctx| {
            let mut f = fractal_forest(ctx, level, 2);
            ctx.barrier();
            let t = Instant::now();
            let report = f.balance_with_report(ctx, cond(), BalanceVariant::New, scheme);
            ctx.barrier();
            let host_s = t.elapsed().as_secs_f64();
            let reversal_ns = ctx.allreduce_max(report.timings.reversal.as_nanos() as u64);
            (reversal_ns, host_s)
        })
    };
    let flat = SimConfig::default;
    let naive = balance(ReversalScheme::Naive, flat());
    out.push("comm.reversal_virtual_ns.naive", naive.results[0].0 as f64);
    let ranges = balance(ReversalScheme::Ranges(4), flat());
    out.push(
        "comm.reversal_virtual_ns.ranges",
        ranges.results[0].0 as f64,
    );
    let notify = balance(ReversalScheme::Notify, flat());
    let (reversal_ns, host_s) = notify.results[0];
    out.push("comm.reversal_virtual_ns.notify", reversal_ns as f64);
    out.push("sim.makespan_ns", notify.makespan_ns() as f64);
    out.push("sim.host_us_per_rank", host_s * 1e6 / ranks as f64);
    let fat_tree = SimConfig::builder()
        .network(NetworkSpec::FatTree(FatTreeParams::default()))
        .build();
    let contended = balance(ReversalScheme::Notify, fat_tree);
    out.push("sim.fattree_link_waits", contended.net.link_waits as f64);
    out.push(
        "sim.fattree_link_wait_ns",
        contended.net.link_wait_ns as f64,
    );
}

fn mesh_probes(smoke: bool, out: &mut Samples) {
    let (level, n, deep) = if smoke { (2, 4, 4) } else { (3, 8, 6) };
    let results = Cluster::run(2, |ctx| {
        let mut series = Samples::default();
        for _ in 0..3 {
            ctx.barrier();
            let (secs, f) = time(|| {
                let f = fractal_forest(ctx, level, 4);
                ctx.barrier();
                f
            });
            series.push("mesh.fractal_generate_s", secs);
            drop(f);
            let (secs, f) = time(|| {
                let params = IceSheetParams {
                    nx: n,
                    ny: n,
                    base_level: 2,
                    max_level: deep,
                    seed: 2012,
                };
                let f = ice_sheet_forest(ctx, params);
                ctx.barrier();
                f
            });
            series.push("mesh.ice_generate_s", secs);
            drop(f);
        }
        series
    })
    .results;
    for name in ["mesh.fractal_generate_s", "mesh.ice_generate_s"] {
        out.push(name, median(results[0].get(name)));
    }
}
