//! Experiment drivers, one per evaluation table/figure.
//!
//! Absolute numbers are laptop-scale (simulated ranks are threads); the
//! quantities mirrored from the paper are the *shapes*: per-phase time
//! normalized by octants per rank (weak scaling, Figure 15), per-phase
//! time versus rank count (strong scaling, Figure 17), message counts and
//! volumes for the reversal schemes (§V), operation counts for the
//! subtree algorithms (§III), and distance-independence of seed-based
//! responses (§IV).

use forestbal_comm::{reverse_naive, reverse_notify, reverse_ranges, Cluster, Comm, CommStats};
use forestbal_core::{
    balance_subtree_new_with_stats_scratch, balance_subtree_old_ext_scratch, find_seeds,
    reconstruct_from_seeds, BalanceScratch, BalanceStats, Condition,
};
use forestbal_forest::{BalanceReport, BalanceVariant, Forest, ReversalScheme};
use forestbal_mesh::{fractal_forest, ice_sheet_forest, IceSheetParams};
use forestbal_octant::{
    complete_subtree, linearize, sort_keys_with, sort_octants_with, Octant, OctantSet, OctantTable,
    SortScratch,
};
use forestbal_service::{clustered_batch, ForestService, Request, RequestClass, ServiceConfig};
use forestbal_sim::{FatTreeParams, NetStats, NetworkSpec, SimCluster, SimConfig};
use forestbal_trace::{bucket_bounds, ClusterTrace, Histogram, RankTrace, Tracer, HIST_BUCKETS};
use std::time::Instant;

/// One row of a scaling study: both variants on the same mesh. Timings
/// are cluster maxima; volumes are cluster sums.
#[derive(Clone, Debug)]
pub struct ScalingRow {
    /// Simulated rank count.
    pub ranks: usize,
    /// Refinement level parameter of the workload.
    pub level: u8,
    /// Global octants before balance.
    pub octants_in: u64,
    /// Global octants after balance.
    pub octants_out: u64,
    /// Old-variant report (cluster-aggregated).
    pub old: BalanceReport,
    /// New-variant report (cluster-aggregated).
    pub new: BalanceReport,
}

fn run_balance_3d(
    p: usize,
    variant: BalanceVariant,
    build: impl Fn(&forestbal_comm::RankCtx) -> Forest<3> + Sync,
) -> (u64, u64, BalanceReport) {
    let out = Cluster::run(p, |ctx| {
        let mut f = build(ctx);
        let before = f.num_global(ctx);
        ctx.barrier();
        let rep = f.balance_with_report(ctx, Condition::full(3), variant, ReversalScheme::Notify);
        let after = f.num_global(ctx);
        (before, after, rep)
    });
    let before = out.results[0].0;
    let after = out.results[0].1;
    let rep = out
        .results
        .iter()
        .map(|r| r.2)
        .fold(BalanceReport::default(), |a, b| a.combine(&b));
    (before, after, rep)
}

/// Weak scaling (Figures 14/15): the fractal forest, level growing with
/// the rank count to hold octants-per-rank roughly constant.
pub fn weak_scaling_experiment(points: &[(usize, u8)], spread: u8) -> Vec<ScalingRow> {
    points
        .iter()
        .map(|&(p, level)| {
            let (i1, o1, old) = run_balance_3d(p, BalanceVariant::Old, |ctx| {
                fractal_forest(ctx, level, spread)
            });
            let (i2, o2, new) = run_balance_3d(p, BalanceVariant::New, |ctx| {
                fractal_forest(ctx, level, spread)
            });
            assert_eq!(i1, i2);
            assert_eq!(o1, o2, "variants disagree on the balanced mesh size");
            ScalingRow {
                ranks: p,
                level,
                octants_in: i1,
                octants_out: o1,
                old,
                new,
            }
        })
        .collect()
}

/// Strong scaling (Figures 16/17): a fixed synthetic ice-sheet mesh,
/// repartitioned and balanced on increasing rank counts.
pub fn strong_scaling_experiment(ranks: &[usize], params: IceSheetParams) -> Vec<ScalingRow> {
    ranks
        .iter()
        .map(|&p| {
            let build = |ctx: &forestbal_comm::RankCtx| {
                let mut f = ice_sheet_forest(ctx, params);
                f.partition_uniform(ctx);
                f
            };
            let (i1, o1, old) = run_balance_3d(p, BalanceVariant::Old, build);
            let (i2, o2, new) = run_balance_3d(p, BalanceVariant::New, build);
            assert_eq!(i1, i2);
            assert_eq!(o1, o2, "variants disagree on the balanced mesh size");
            ScalingRow {
                ranks: p,
                level: params.max_level,
                octants_in: i1,
                octants_out: o1,
                old,
                new,
            }
        })
        .collect()
}

/// One reversal scheme's cost on one pattern.
#[derive(Clone, Copy, Debug)]
pub struct ReversalCost {
    /// Slowest-rank wall clock.
    pub seconds: f64,
    /// Cluster-total communication counters.
    pub stats: CommStats,
}

/// One row of the pattern-reversal study (§V / Figures 12, 13, 15e).
#[derive(Clone, Debug)]
pub struct NotifyRow {
    /// Simulated rank count.
    pub ranks: usize,
    /// Figure 12's Allgather/Allgatherv scheme.
    pub naive: ReversalCost,
    /// The fixed-size Ranges encoding.
    pub ranges: ReversalCost,
    /// The paper's Notify algorithm (Figure 13).
    pub notify: ReversalCost,
}

/// Compare the three reversal schemes on a curve-local pattern where each
/// rank addresses its `fanout` nearest successors (the typical shape of
/// balance queries along the space-filling curve).
///
/// Timing comes from the reversal spans the schemes themselves record
/// (`reverse_naive`/`reverse_ranges`/`reverse_notify`), so the measured
/// interval is exactly the algorithm, not the harness around it. Without
/// the `trace` feature the spans are compiled out and seconds read 0.
pub fn notify_experiment(ranks: &[usize], fanout: usize, max_ranges: usize) -> Vec<NotifyRow> {
    ranks
        .iter()
        .map(|&p| {
            let receivers_of = move |r: usize| -> Vec<usize> {
                (1..=fanout)
                    .map(|i| (r + i) % p)
                    .filter(|&q| q != r)
                    .collect()
            };
            let timed = |which: u8| -> ReversalCost {
                let out = Cluster::run(p, |ctx| {
                    let rs = receivers_of(ctx.rank());
                    ctx.barrier();
                    let tracer = Tracer::begin(ctx.rank());
                    let senders = match which {
                        0 => reverse_naive(ctx, &rs),
                        1 => reverse_ranges(ctx, &rs, max_ranges),
                        _ => reverse_notify(ctx, &rs),
                    };
                    assert!(!senders.is_empty() || p == 1);
                    tracer.finish()
                });
                let span = ["reverse_naive", "reverse_ranges", "reverse_notify"][which as usize];
                let seconds = out
                    .results
                    .iter()
                    .map(|rt| rt.phase_total_ns(span) as f64 / 1e9)
                    .fold(0.0, f64::max);
                ReversalCost {
                    seconds,
                    stats: out.total_stats(),
                }
            };
            NotifyRow {
                ranks: p,
                naive: timed(0),
                ranges: timed(1),
                notify: timed(2),
            }
        })
        .collect()
}

/// One (rank count, scheme) point of the simulated reversal scaling
/// study: the same pattern as [`notify_experiment`] but on the
/// discrete-event simulator, so `ranks` can reach the paper's §V scale
/// (thousands to tens of thousands) and `makespan_ns` is deterministic
/// virtual cluster time instead of noisy wall clock.
#[derive(Clone, Debug)]
pub struct SimReversalRow {
    /// Simulated rank count.
    pub ranks: usize,
    /// `"naive"`, `"ranges"`, or `"notify"`.
    pub scheme: &'static str,
    /// Virtual time when the last rank finished, in nanoseconds.
    pub makespan_ns: u64,
    /// Cluster-total communication counters.
    pub stats: CommStats,
}

/// Run the three reversal schemes on the curve-local `fanout`-successor
/// pattern under the simulator, one row per `(P, scheme)`.
pub fn sim_reversal_scaling(
    ranks: &[usize],
    fanout: usize,
    max_ranges: usize,
    cfg: SimConfig,
) -> Vec<SimReversalRow> {
    let mut rows = Vec::new();
    for &p in ranks {
        let receivers_of = move |r: usize| -> Vec<usize> {
            (1..=fanout)
                .map(|i| (r + i) % p)
                .filter(|&q| q != r)
                .collect()
        };
        for (scheme, which) in [("naive", 0u8), ("ranges", 1), ("notify", 2)] {
            let out = SimCluster::run(p, cfg, move |ctx| {
                let rs = receivers_of(ctx.rank());
                ctx.barrier();
                let senders = match which {
                    0 => reverse_naive(ctx, &rs),
                    1 => reverse_ranges(ctx, &rs, max_ranges),
                    _ => reverse_notify(ctx, &rs),
                };
                assert!(!senders.is_empty() || p == 1);
            });
            rows.push(SimReversalRow {
                ranks: p,
                scheme,
                makespan_ns: out.makespan_ns(),
                stats: out.total_stats(),
            });
        }
    }
    rows
}

/// One (rank count, variant, scheme) point of the simulated balance
/// scaling study (§VI at Jaguar-like rank counts).
#[derive(Clone, Debug)]
pub struct SimBalanceRow {
    /// Simulated rank count.
    pub ranks: usize,
    /// Balance variant under test.
    pub variant: BalanceVariant,
    /// `"naive"`, `"ranges"`, or `"notify"`.
    pub scheme: &'static str,
    /// Global octants before balance.
    pub octants_in: u64,
    /// Global octants after balance.
    pub octants_out: u64,
    /// Cluster-combined per-phase report; timings are per-rank *virtual
    /// time* maxima (measured through `Comm::now_ns`).
    pub report: BalanceReport,
    /// Virtual time when the last rank finished, in nanoseconds.
    pub makespan_ns: u64,
    /// Cluster-total communication counters.
    pub stats: CommStats,
}

/// Run a full one-pass balance of the fractal forest on the simulator for
/// every `(P, variant, scheme)` combination. All rows for a given `P`
/// must agree on the balanced mesh size (asserted), so this doubles as a
/// large-P cross-check of the schemes against each other.
pub fn sim_balance_scaling(
    ranks: &[usize],
    level: u8,
    spread: u8,
    max_ranges: usize,
    cfg: SimConfig,
) -> Vec<SimBalanceRow> {
    let mut rows = Vec::new();
    for &p in ranks {
        let mut sizes: Option<(u64, u64)> = None;
        for (scheme_name, scheme) in [
            ("naive", ReversalScheme::Naive),
            ("ranges", ReversalScheme::Ranges(max_ranges)),
            ("notify", ReversalScheme::Notify),
        ] {
            for variant in [BalanceVariant::Old, BalanceVariant::New] {
                let out = SimCluster::run(p, cfg, move |ctx| {
                    let mut f = fractal_forest(ctx, level, spread);
                    let before = f.num_global(ctx);
                    ctx.barrier();
                    let rep = f.balance_with_report(ctx, Condition::full(3), variant, scheme);
                    let after = f.num_global(ctx);
                    (before, after, rep)
                });
                let (before, after, _) = out.results[0];
                match sizes {
                    None => sizes = Some((before, after)),
                    Some(s) => assert_eq!(
                        s,
                        (before, after),
                        "P={p}: {scheme_name}/{variant:?} disagrees on mesh size"
                    ),
                }
                let report = out
                    .results
                    .iter()
                    .map(|r| r.2)
                    .fold(BalanceReport::default(), |a, b| a.combine(&b));
                rows.push(SimBalanceRow {
                    ranks: p,
                    variant,
                    scheme: scheme_name,
                    octants_in: before,
                    octants_out: after,
                    report,
                    makespan_ns: out.makespan_ns(),
                    stats: out.total_stats(),
                });
            }
        }
    }
    rows
}

/// One (rank count, scheme, network) point of the paper-scale virtual
/// weak-scaling study (Figure 15 at the paper's Jaguar rank counts).
#[derive(Clone, Debug)]
pub struct WeakScaleRow {
    /// Simulated rank count.
    pub ranks: usize,
    /// Base refinement level from [`weakscale_level`].
    pub level: u8,
    /// `"naive"`, `"ranges"`, or `"notify"`.
    pub scheme: &'static str,
    /// `"flat"` or `"fattree"` — the network cost model of this row.
    pub network: &'static str,
    /// Global octants before balance.
    pub octants_in: u64,
    /// Global octants after balance.
    pub octants_out: u64,
    /// Cluster-combined per-phase report (virtual-time maxima).
    pub report: BalanceReport,
    /// Virtual time when the last rank finished.
    pub makespan_ns: u64,
    /// Cluster-total communication counters.
    pub stats: CommStats,
    /// The network model's own traffic/contention counters.
    pub net: NetStats,
}

/// Base refinement level for a weak-scaling point: the smallest level
/// whose uniform 6·8^level base mesh averages at least one octant per
/// rank. The fractal refinement then multiplies local counts by ~18x,
/// so per-rank leaf counts land around 20-150 — deliberately small,
/// since the simulator serializes all P ranks' computation onto one
/// host and the P = 112,128 point must stay tractable. Levels are
/// integers while P grows freely, so the per-rank count is not constant
/// across P; reported times should be normalized by octants-per-rank as
/// in the paper's Figure 15.
pub fn weakscale_level(p: usize) -> u8 {
    let mut level = 1u8;
    while 6u128 << (3 * level as u32) < p as u128 {
        level += 1;
    }
    level
}

/// The paper-scale virtual weak-scaling study: the fractal forest,
/// one-pass balance (New variant), every reversal scheme, under both the
/// flat α-β network and a contended fat tree — at rank counts up to the
/// paper's full-machine P = 112,128. All rows for a given P must agree
/// on the balanced mesh size (asserted): the network model prices
/// communication but must never change results.
pub fn weakscale_experiment(
    ranks: &[usize],
    spread: u8,
    max_ranges: usize,
    cfg: SimConfig,
) -> Vec<WeakScaleRow> {
    let mut rows = Vec::new();
    for &p in ranks {
        let level = weakscale_level(p);
        let mut sizes: Option<(u64, u64)> = None;
        for (net_name, network) in [
            ("flat", NetworkSpec::Flat),
            ("fattree", NetworkSpec::FatTree(FatTreeParams::default())),
        ] {
            let cfg = cfg.with_network(network);
            for (scheme_name, scheme) in [
                ("naive", ReversalScheme::Naive),
                ("ranges", ReversalScheme::Ranges(max_ranges)),
                ("notify", ReversalScheme::Notify),
            ] {
                // Progress on stderr: the `--big` point simulates 112k
                // ranks per row and runs for minutes.
                eprintln!("weakscale: P={p} level={level} {net_name}/{scheme_name} ...");
                let t0 = Instant::now();
                let out = SimCluster::run(p, cfg, move |ctx| {
                    let mut f = fractal_forest(ctx, level, spread);
                    let before = f.num_global(ctx);
                    ctx.barrier();
                    let rep =
                        f.balance_with_report(ctx, Condition::full(3), BalanceVariant::New, scheme);
                    let after = f.num_global(ctx);
                    (before, after, rep)
                });
                eprintln!(
                    "weakscale: P={p} {net_name}/{scheme_name} done in {:.1}s (host wall clock)",
                    t0.elapsed().as_secs_f64()
                );
                let (before, after, _) = out.results[0];
                match sizes {
                    None => sizes = Some((before, after)),
                    Some(s) => assert_eq!(
                        s,
                        (before, after),
                        "P={p}: {scheme_name}/{net_name} disagrees on mesh size"
                    ),
                }
                let report = out
                    .results
                    .iter()
                    .map(|r| r.2)
                    .fold(BalanceReport::default(), |a, b| a.combine(&b));
                rows.push(WeakScaleRow {
                    ranks: p,
                    level,
                    scheme: scheme_name,
                    network: net_name,
                    octants_in: before,
                    octants_out: after,
                    report,
                    makespan_ns: out.makespan_ns(),
                    stats: out.total_stats(),
                    net: out.net,
                });
            }
        }
    }
    rows
}

/// One traced simulated balance run: the usual scaling-row summary plus
/// every rank's full trace, ready for chrome-trace export.
#[derive(Clone, Debug)]
pub struct TracedSimBalance {
    /// The scaling-row summary (same fields as [`sim_balance_scaling`]).
    pub row: SimBalanceRow,
    /// Per-rank traces: spans in virtual time, counters, histograms.
    pub trace: ClusterTrace,
}

/// One point of [`sim_balance_scaling`] with per-rank tracing armed
/// around the balance call. Span timestamps are the simulator's *virtual*
/// clock, and virtual time only advances inside communication calls, so
/// the four phase spans (plus `markers`) partition the enclosing
/// `balance` span exactly — no harness time leaks in.
pub fn sim_balance_traced(
    p: usize,
    level: u8,
    spread: u8,
    variant: BalanceVariant,
    scheme: ReversalScheme,
    cfg: SimConfig,
) -> TracedSimBalance {
    let out = SimCluster::run(p, cfg, move |ctx| {
        let mut f = fractal_forest(ctx, level, spread);
        let before = f.num_global(ctx);
        ctx.barrier();
        let tracer = Tracer::begin(ctx.rank());
        let rep = f.balance_with_report(ctx, Condition::full(3), variant, scheme);
        let tr = tracer.finish();
        let after = f.num_global(ctx);
        (before, after, rep, tr)
    });
    let (before, after) = (out.results[0].0, out.results[0].1);
    let report = out
        .results
        .iter()
        .map(|r| r.2)
        .fold(BalanceReport::default(), |a, b| a.combine(&b));
    let scheme_name = match scheme {
        ReversalScheme::Naive => "naive",
        ReversalScheme::Ranges(_) => "ranges",
        ReversalScheme::Notify => "notify",
    };
    let row = SimBalanceRow {
        ranks: p,
        variant,
        scheme: scheme_name,
        octants_in: before,
        octants_out: after,
        report,
        makespan_ns: out.makespan_ns(),
        stats: out.total_stats(),
    };
    let trace = ClusterTrace::new(out.results.into_iter().map(|r| r.3).collect());
    TracedSimBalance { row, trace }
}

/// Thread-parallel 2:1 verification of a sorted linear octree — lets the
/// benchmark harness validate multi-million-leaf outputs without paying
/// the serial oracle's cost. Leaves are checked in contiguous chunks, one
/// scoped thread per available core.
pub fn par_is_balanced<const D: usize>(
    leaves: &[Octant<D>],
    root: &Octant<D>,
    cond: Condition,
) -> bool {
    let containing = |q: &Octant<D>| -> Option<&Octant<D>> {
        let i = leaves.partition_point(|x| x <= q);
        (i > 0 && leaves[i - 1].contains(q)).then(|| &leaves[i - 1])
    };
    let check = |o: &Octant<D>| {
        forestbal_octant::directions::<D>().all(|dir| {
            if !cond.constrains(forestbal_octant::codim(&dir)) {
                return true;
            }
            let n = o.neighbor(&dir);
            if !root.contains(&n) {
                return true;
            }
            match containing(&n) {
                Some(c) => c.level + 1 >= o.level,
                None => true,
            }
        })
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let chunk = leaves.len().div_ceil(threads).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = leaves
            .chunks(chunk)
            .map(|c| {
                let check = &check;
                s.spawn(move || c.iter().all(check))
            })
            .collect();
        handles.into_iter().all(|h| h.join().unwrap())
    })
}

/// One row of the ripple-vs-one-pass ablation (§II-B).
#[derive(Clone, Debug)]
pub struct RippleRow {
    /// Simulated rank count.
    pub ranks: usize,
    /// Slowest-rank time of the one-pass algorithm.
    pub one_pass_seconds: f64,
    /// Slowest-rank time of the multi-round ripple baseline.
    pub ripple_seconds: f64,
    /// Communication rounds the ripple needed to converge.
    pub ripple_rounds: u32,
    /// Cluster-total p2p messages of the one-pass algorithm.
    pub one_pass_msgs: u64,
    /// Cluster-total p2p messages of the ripple baseline.
    pub ripple_msgs: u64,
}

/// Compare the one-pass algorithm against the multi-round ripple baseline
/// on the fractal workload: the ripple needs a number of communication
/// rounds that grows with the refinement's reach, the one-pass algorithm
/// always uses a single query/response round.
///
/// Both sides are timed through their own trace spans (`"balance"` and
/// `"ripple"`), so the harness (mesh construction, checksum) stays outside
/// the measured interval by construction.
pub fn ripple_ablation_experiment(ranks: &[usize], level: u8, spread: u8) -> Vec<RippleRow> {
    let span_secs = |rt: &RankTrace, name: &str| rt.phase_total_ns(name) as f64 / 1e9;
    ranks
        .iter()
        .map(|&p| {
            let one = Cluster::run(p, |ctx| {
                let mut f = fractal_forest(ctx, level, spread);
                ctx.barrier();
                let tracer = Tracer::begin(ctx.rank());
                f.balance(
                    ctx,
                    Condition::full(3),
                    BalanceVariant::New,
                    ReversalScheme::Notify,
                );
                (tracer.finish(), f.checksum(ctx))
            });
            let rip = Cluster::run(p, |ctx| {
                let mut f = fractal_forest(ctx, level, spread);
                ctx.barrier();
                let tracer = Tracer::begin(ctx.rank());
                let stats = f.balance_ripple(ctx, Condition::full(3));
                (tracer.finish(), f.checksum(ctx), stats.rounds)
            });
            assert_eq!(one.results[0].1, rip.results[0].1, "baselines disagree");
            RippleRow {
                ranks: p,
                one_pass_seconds: one
                    .results
                    .iter()
                    .map(|r| span_secs(&r.0, "balance"))
                    .fold(0.0, f64::max),
                ripple_seconds: rip
                    .results
                    .iter()
                    .map(|r| span_secs(&r.0, "ripple"))
                    .fold(0.0, f64::max),
                ripple_rounds: rip.results.iter().map(|r| r.2).max().unwrap(),
                one_pass_msgs: one.total_stats().messages_sent,
                ripple_msgs: rip.total_stats().messages_sent,
            }
        })
        .collect()
}

/// One row of the serial subtree-balance study (§III / Figures 6-8).
#[derive(Clone, Debug)]
pub struct SubtreeRow {
    /// Leaves in the input octree.
    pub input_len: usize,
    /// Old algorithm wall clock.
    pub old_seconds: f64,
    /// New algorithm wall clock.
    pub new_seconds: f64,
    /// Old algorithm operation counts.
    pub old_stats: BalanceStats,
    /// New algorithm operation counts.
    pub new_stats: BalanceStats,
}

/// Generate a complete, adapted 3D input octree of roughly `target`
/// leaves by completing around pseudo-random deep pins.
pub fn adapted_subtree_input(target: usize, seed: u64) -> Vec<Octant<3>> {
    let root = Octant::<3>::root();
    let mut pins = Vec::new();
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    // Each deep pin completes to ~ depth * 7 octants.
    let n_pins = (target / 40).max(1);
    for _ in 0..n_pins {
        let mut o = root;
        let depth = 4 + (next() % 4) as u8;
        for _ in 0..depth {
            o = o.child((next() % 8) as usize);
        }
        pins.push(o);
    }
    linearize(&mut pins);
    complete_subtree(&root, &pins)
}

/// Compare the old and new subtree balance on adapted inputs.
pub fn subtree_experiment(targets: &[usize]) -> Vec<SubtreeRow> {
    let root = Octant::<3>::root();
    let cond = Condition::full(3);
    targets
        .iter()
        .map(|&n| {
            let input = adapted_subtree_input(n, 0x5eed ^ n as u64);
            let t0 = Instant::now();
            let (out_old, old_stats) = balance_subtree_old_ext_scratch(
                &root,
                &input,
                &[],
                cond,
                &mut BalanceScratch::new(),
            );
            let old_seconds = t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            let (out_new, new_stats) = balance_subtree_new_with_stats_scratch(
                &root,
                &input,
                cond,
                &mut BalanceScratch::new(),
            );
            let new_seconds = t0.elapsed().as_secs_f64();
            assert_eq!(out_old, out_new, "algorithms disagree");
            assert!(par_is_balanced(&out_new, &root, cond), "output unbalanced");
            SubtreeRow {
                input_len: input.len(),
                old_seconds,
                new_seconds,
                old_stats,
                new_stats,
            }
        })
        .collect()
}

/// One row of the packed-key kernel study: struct sort vs packed radix,
/// `HashSet` octant set vs open-addressing [`OctantTable`], and fresh vs
/// reused [`BalanceScratch`], all on the same adapted 3D input.
#[derive(Clone, Debug)]
pub struct KernelRow {
    /// Leaves in the (complete, linear) input octree.
    pub input_len: usize,
    /// `sort_unstable` on the shuffled struct array.
    pub sort_struct_seconds: f64,
    /// Packed-key LSD radix sort on the same shuffled array.
    pub sort_radix_seconds: f64,
    /// Packed-path sort on already-sorted input (the early-out).
    pub sort_presorted_seconds: f64,
    /// Radix passes one shuffled sort performed (trivial passes skipped).
    pub radix_passes: u64,
    /// Building a `HashSet`-backed [`OctantSet`] from the input.
    pub set_build_seconds: f64,
    /// Building a pre-sized [`OctantTable`] from the input.
    pub table_build_seconds: f64,
    /// Membership queries (half hits, half misses) against the set.
    pub set_query_seconds: f64,
    /// The same queries against the table.
    pub table_query_seconds: f64,
    /// Mean linear-probe steps per table operation.
    pub table_probes_per_op: f64,
    /// Table regrowths during the build (0 = pre-sizing sufficed).
    pub table_grows: u64,
    /// The new kernel as it stood before the packed fast path (`HashSet`
    /// membership, struct sort), end to end.
    pub balance_hashset_seconds: f64,
    /// New-kernel subtree balance allocating fresh per call.
    pub balance_fresh_seconds: f64,
    /// The same balance through one reused scratch arena.
    pub balance_scratch_seconds: f64,
}

/// The pre-packed-path new kernel, pinned as an end-to-end baseline (the
/// same reference the differential tests in `forestbal-core` check the
/// packed kernels against, stats and all).
fn reference_balance_new<const D: usize>(
    root: &Octant<D>,
    input: &[Octant<D>],
    cond: Condition,
) -> (Vec<Octant<D>>, BalanceStats) {
    use forestbal_core::{complete_reduced, precludes, reduce, remove_precluded};
    use std::collections::VecDeque;
    let mut stats = BalanceStats::default();
    let interior: Vec<Octant<D>> = input
        .iter()
        .copied()
        .filter(|o| o.level > root.level)
        .collect();
    let r = reduce(&interior);
    let mut rnew: OctantSet<D> = OctantSet::default();
    let mut rprec: OctantSet<D> = OctantSet::default();
    let mut work: VecDeque<Octant<D>> = r.iter().copied().collect();

    while let Some(o) = work.pop_front() {
        if o.level <= root.level + 1 {
            continue;
        }
        for s0 in &forestbal_core::coarse_neighborhood(&o, cond) {
            if s0.level <= root.level || !root.contains(s0) {
                continue;
            }
            let s = s0.sibling(0);
            stats.hash_queries += 1;
            if rnew.contains(&s) {
                continue;
            }
            stats.binary_searches += 1;
            let pos = r.partition_point(|t| t <= &s);
            if pos > 0 {
                let t = r[pos - 1];
                if t == s {
                    continue;
                }
                if precludes(&t, &s) {
                    rprec.insert(t);
                } else if precludes(&s, &t) {
                    rprec.insert(s);
                }
            }
            if precludes(&s, &o) {
                rprec.insert(s);
            }
            rnew.insert(s);
            work.push_back(s);
        }
    }

    let mut rfinal: Vec<Octant<D>> = Vec::new();
    rfinal.extend(r.iter().filter(|t| !rprec.contains(t)));
    rfinal.extend(rnew.iter().filter(|t| !rprec.contains(t)));
    stats.sorted_len = rfinal.len();
    rfinal.sort_unstable();
    remove_precluded(&mut rfinal);
    let out = complete_reduced(root, &rfinal);
    stats.output_len = out.len();
    (out, stats)
}

/// Deterministic Fisher-Yates shuffle (xorshift; the workspace builds
/// offline without `rand` in the hot path).
fn shuffle<T>(v: &mut [T], seed: u64) {
    let mut state = seed | 1;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for i in (1..v.len()).rev() {
        let j = (rng() % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
}

fn timed(reps: usize, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..reps {
        f();
    }
    t0.elapsed().as_secs_f64() / reps as f64
}

/// Best-of-`reps` timing: the minimum single-call time is far more robust
/// to scheduler noise than the mean, which matters for the end-to-end
/// balance comparison where each call runs only a handful of times.
fn timed_min(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Micro-benchmark the packed-key building blocks against the structures
/// they replaced, on adapted 3D inputs of roughly the given sizes. Every
/// fast path is differentially checked against its baseline in the same
/// run, so a row is also a correctness witness.
pub fn kernel_experiment(targets: &[usize]) -> Vec<KernelRow> {
    use std::hint::black_box;
    let root = Octant::<3>::root();
    let cond = Condition::full(3);
    targets
        .iter()
        .map(|&n| {
            let input = adapted_subtree_input(n, 0xbeef ^ n as u64);
            let mut shuffled = input.clone();
            shuffle(&mut shuffled, 0x5eed ^ n as u64);
            let reps = (100_000 / input.len().max(1)).clamp(2, 25);

            // --- sort: struct comparison vs packed radix vs presorted ---
            let mut buf = shuffled.clone();
            let sort_struct_seconds = timed(reps, || {
                buf.copy_from_slice(&shuffled);
                black_box(&mut buf).sort_unstable();
            });
            let struct_sorted = buf.clone();
            let mut sort = SortScratch::new();
            let passes_before = sort.radix_passes;
            let sorts_before = sort.radix_sorts;
            let sort_radix_seconds = timed(reps, || {
                buf.copy_from_slice(&shuffled);
                sort_octants_with(black_box(&mut buf), &mut sort);
            });
            assert_eq!(buf, struct_sorted, "radix sort diverged from sort_unstable");
            let radix_passes =
                (sort.radix_passes - passes_before) / (sort.radix_sorts - sorts_before).max(1);
            let sort_presorted_seconds = timed(reps, || {
                sort_octants_with(black_box(&mut buf), &mut sort);
            });

            // --- membership: HashSet octant set vs open-addressing table ---
            // Queries are half hits (the leaves themselves) and half
            // misses (each leaf's first child), the mix the kernels see.
            let misses: Vec<Octant<3>> = input.iter().map(|o| o.child(0)).collect();
            let mut set = OctantSet::default();
            let set_build_seconds = timed(reps, || {
                set = OctantSet::default();
                for o in &input {
                    set.insert(*o);
                }
            });
            let mut table = OctantTable::<3>::new();
            let table_build_seconds = timed(reps, || {
                table.reset_for(input.len());
                for o in &input {
                    table.insert(o);
                }
            });
            for (o, m) in input.iter().zip(&misses) {
                assert_eq!(set.contains(o), table.contains(o));
                assert_eq!(set.contains(m), table.contains(m));
            }
            let set_query_seconds = timed(reps, || {
                let mut hits = 0usize;
                for o in input.iter().chain(&misses) {
                    hits += usize::from(set.contains(black_box(o)));
                }
                black_box(hits);
            }) / (2 * input.len()) as f64;
            let probes_before = table.probe_count();
            let lookups_before = table.lookup_count();
            let table_query_seconds = timed(reps, || {
                let mut hits = 0usize;
                for o in input.iter().chain(&misses) {
                    hits += usize::from(table.contains(black_box(o)));
                }
                black_box(hits);
            }) / (2 * input.len()) as f64;
            let table_probes_per_op = (table.probe_count() - probes_before) as f64
                / (table.lookup_count() - lookups_before).max(1) as f64;

            // --- full kernel: HashSet baseline vs packed, fresh vs reused ---
            let bal_reps = reps.min(5);
            let mut base_out = (Vec::new(), BalanceStats::default());
            let balance_hashset_seconds = timed_min(bal_reps, || {
                base_out = reference_balance_new(&root, black_box(&input), cond);
            });
            let mut fresh_out = (Vec::new(), BalanceStats::default());
            let balance_fresh_seconds = timed_min(bal_reps, || {
                fresh_out = balance_subtree_new_with_stats_scratch(
                    &root,
                    black_box(&input),
                    cond,
                    &mut BalanceScratch::new(),
                );
            });
            assert_eq!(fresh_out, base_out, "packed kernel diverged from baseline");
            let mut scratch = BalanceScratch::<3>::new();
            let mut scratch_out = (Vec::new(), BalanceStats::default());
            let balance_scratch_seconds = timed_min(bal_reps, || {
                scratch_out = balance_subtree_new_with_stats_scratch(
                    &root,
                    black_box(&input),
                    cond,
                    &mut scratch,
                );
            });
            assert_eq!(scratch_out, fresh_out, "scratch path diverged");

            KernelRow {
                input_len: input.len(),
                sort_struct_seconds,
                sort_radix_seconds,
                sort_presorted_seconds,
                radix_passes,
                set_build_seconds,
                table_build_seconds,
                set_query_seconds,
                table_query_seconds,
                table_probes_per_op,
                table_grows: table.grow_count(),
                balance_hashset_seconds,
                balance_fresh_seconds,
                balance_scratch_seconds,
            }
        })
        .collect()
}

/// The intra-rank parallelism study: the deterministic hot kernels at
/// one pool width vs the session's configured width, on the same input.
/// Bit-identity across widths is asserted inside the run (sorted output
/// equality, forest checksum equality), so the row is also a witness of
/// the `forestbal-par` determinism contract.
#[derive(Clone, Debug)]
pub struct ParKernelRow {
    /// Pool width of the parallel columns (1 = everything serial).
    pub threads: usize,
    /// Packed 3D keys in the sort input.
    pub keys: usize,
    /// Packed radix key sort, forced one thread (best of reps).
    pub sort_serial_seconds: f64,
    /// The same sort through the configured pool.
    pub sort_par_seconds: f64,
    /// Fractal-forest one-pass balance (new variant), forced one thread.
    pub balance_serial_seconds: f64,
    /// The same balance through the configured pool.
    pub balance_par_seconds: f64,
    /// Global octants after balance (identical across widths).
    pub octants_out: u64,
    /// Forest checksum after balance (identical across widths).
    pub forest_checksum: u64,
}

/// Measure [`ParKernelRow`]: a shuffled key sort of at least
/// `keys_target` packed keys and a single-rank multi-tree balance, each
/// serial vs the current global pool. On a single-core host the parallel
/// columns report overhead, not speedup — the row still proves the
/// determinism contract, which is what CI gates on unconditionally.
pub fn par_kernel_experiment(keys_target: usize, level: u8, spread: u8) -> ParKernelRow {
    use forestbal_octant::key;
    use forestbal_par::Pool;
    use std::hint::black_box;
    use std::sync::Arc;

    let pool = forestbal_par::current();
    let threads = pool.threads();
    let serial = Arc::new(Pool::new(1));

    // --- parallel radix key sort vs one thread ---
    // Adapted subtrees under distinct seeds, concatenated until the key
    // count clears the target (one subtree tops out well below it), then
    // shuffled. A sort input need not be a linear octree.
    let mut keys: Vec<u128> = Vec::new();
    let mut seed = 0u64;
    while keys.len() < keys_target {
        let part = adapted_subtree_input(keys_target.min(100_000), 0xfee1 ^ seed);
        keys.extend(part.iter().map(key::pack));
        seed += 1;
    }
    keys.truncate(keys_target);
    shuffle(&mut keys, 0x5eed ^ keys_target as u64);

    let reps = 5;
    let mut sort = SortScratch::new();
    let mut buf = keys.clone();
    let sort_serial_seconds = timed_min(reps, || {
        buf.copy_from_slice(&keys);
        serial.install(|| sort_keys_with::<3>(black_box(&mut buf), &mut sort));
    });
    let serial_sorted = buf.clone();
    let sort_par_seconds = timed_min(reps, || {
        buf.copy_from_slice(&keys);
        pool.install(|| sort_keys_with::<3>(black_box(&mut buf), &mut sort));
    });
    assert_eq!(buf, serial_sorted, "parallel radix diverged from serial");

    // --- end-to-end balance, one rank, many trees ---
    // Phase 1 and phase 4 parallelize per tree / per query, so the
    // fractal forest (multiple root bricks) is the representative mesh.
    let run = |width_pool: &Arc<Pool>| -> (f64, u64, u64) {
        let p = width_pool.clone();
        let out = Cluster::run(1, move |ctx| {
            p.install(|| {
                let mut best = f64::INFINITY;
                let mut after = 0u64;
                let mut sum = 0u64;
                for _ in 0..3 {
                    let mut f = fractal_forest(ctx, level, spread);
                    let t0 = Instant::now();
                    f.balance(
                        ctx,
                        Condition::full(3),
                        BalanceVariant::New,
                        ReversalScheme::Notify,
                    );
                    best = best.min(t0.elapsed().as_secs_f64());
                    after = f.num_global(ctx);
                    sum = f.checksum(ctx);
                }
                (best, after, sum)
            })
        });
        out.results[0]
    };
    let (balance_serial_seconds, out_serial, sum_serial) = run(&serial);
    let (balance_par_seconds, out_par, sum_par) = run(&pool);
    assert_eq!(out_serial, out_par, "pool width changed the balanced mesh");
    assert_eq!(
        sum_serial, sum_par,
        "pool width changed the forest checksum"
    );

    ParKernelRow {
        threads,
        keys: keys.len(),
        sort_serial_seconds,
        sort_par_seconds,
        balance_serial_seconds,
        balance_par_seconds,
        octants_out: out_par,
        forest_checksum: sum_par,
    }
}

/// One row of the wire-format study: bytes per octant, tree-run framing
/// overhead, and memcpy encode/decode throughput for the packed-key codec
/// (`forestbal_forest::codec`), on a deterministic balanced forest.
///
/// The checksum is the forest checksum of the balanced mesh the row was
/// measured on. It is independent of the `simd` feature by construction
/// (the BMI2 batch codecs are bit-identical to the scalar fallback), so
/// CI compares it across feature configurations.
#[derive(Clone, Debug)]
pub struct WireRow {
    /// Spatial dimension of the forest.
    pub dim: usize,
    /// Bytes per octant on the wire (`codec::key_size`): 8 in 2D, 16 in 3D.
    pub key_bytes: usize,
    /// Leaves serialized.
    pub octants: usize,
    /// Tree runs in the encoded stream (each costs 8 bytes of framing).
    pub runs: usize,
    /// Total encoded bytes: `octants * key_bytes + 8 * runs`.
    pub wire_bytes: usize,
    /// Serializing the local forest (runs + memcpy of the SoA keys).
    pub encode_seconds: f64,
    /// Decoding back to per-tree octant vectors (memcpy + batch unpack).
    pub decode_seconds: f64,
    /// Forest checksum of the balanced mesh (feature-independent).
    pub checksum: u64,
}

fn wire_row<const D: usize>(
    build: impl Fn(&forestbal_comm::RankCtx) -> Forest<D> + Sync,
) -> WireRow {
    use std::hint::black_box;
    let out = Cluster::run(1, |ctx| {
        let mut f = build(ctx);
        f.balance_with_report(
            ctx,
            Condition::full(D as u8),
            BalanceVariant::New,
            ReversalScheme::Notify,
        );
        let bytes = f.serialize_local();
        let octants = f.num_local();
        let runs = f.trees_packed().count();
        assert_eq!(
            bytes.len(),
            octants * forestbal_forest::codec::key_size::<D>() + 8 * runs,
            "wire format drifted from key_size + run framing"
        );
        // Differential: the decoded forest is the forest.
        let back = Forest::<D>::deserialize_leaves(&bytes);
        for (t, v) in f.trees() {
            assert_eq!(back[&t], v.iter().collect::<Vec<_>>());
        }
        let reps = (200_000 / octants.max(1)).clamp(3, 50);
        let encode_seconds = timed(reps, || {
            black_box(f.serialize_local());
        });
        let decode_seconds = timed(reps, || {
            black_box(Forest::<D>::deserialize_leaves(black_box(&bytes)));
        });
        WireRow {
            dim: D,
            key_bytes: forestbal_forest::codec::key_size::<D>(),
            octants,
            runs,
            wire_bytes: bytes.len(),
            encode_seconds,
            decode_seconds,
            checksum: f.checksum(ctx),
        }
    });
    out.results.into_iter().next().unwrap()
}

/// Measure the packed wire format on deterministic balanced fractal
/// forests, one row per dimension. Rows double as correctness witnesses:
/// the byte budget is asserted exactly and the decode is compared leaf by
/// leaf against the source forest.
pub fn wire_experiment() -> Vec<WireRow> {
    vec![
        // 2D: a 2x2 brick with an asymmetric corner refinement, so the
        // stream carries several tree runs and the checksum does not
        // collapse by symmetry.
        wire_row::<2>(|ctx| {
            let conn = std::sync::Arc::new(forestbal_forest::BrickConnectivity::<2>::new(
                [2, 2],
                [false; 2],
            ));
            let mut f = Forest::new_uniform(conn, ctx, 3);
            f.refine(true, 7, |t, o| {
                (t == 0 && o.child_id() == 3) || (t == 3 && o.child_id() == 0)
            });
            f
        }),
        wire_row::<3>(|ctx| fractal_forest(ctx, 3, 2)),
    ]
}

/// One row of the seed-vs-auxiliary study (§IV / Figures 4b and 9).
#[derive(Clone, Debug)]
pub struct SeedsRow {
    /// Scale separation: levels between the fine source octant and the
    /// coarse query octant (the "distance" the old algorithm bridges with
    /// auxiliary octants).
    pub scale_levels: u8,
    /// Auxiliary-cascade reconstruction wall clock.
    pub old_seconds: f64,
    /// Seed-based reconstruction wall clock.
    pub new_seconds: f64,
    /// Leaves reconstructed inside the query octant.
    pub overlap_len: usize,
    /// Seed octants sent (<= 3^(d-1)).
    pub seed_count: usize,
}

/// Reconstruct `T_k(o) ∩ r` for a source octant `o` of increasing depth
/// hugging the query octant `r`: the old way (auxiliary-octant cascade
/// from the raw octant across the scale gap) does work growing with the
/// separation, the new way (λ seeds) only pays for the overlap itself.
pub fn seeds_distance_experiment(depths: &[u8], reps: usize) -> Vec<SeedsRow> {
    let cond = Condition::full(2);
    let root = Octant::<2>::root();
    let r = root.child(1); // query octant: level 1, right half-ish
    let left = root.child(0);
    depths
        .iter()
        .map(|&depth| {
            assert!(depth > r.level + 1 && depth <= forestbal_octant::MAX_LEVEL);
            // Source: depth-level octant hugging r's left edge.
            let mut o = left;
            while o.level < depth {
                o = o.child(1); // x-high, y-low corner
            }
            assert!(!o.overlaps(&r));

            let t0 = Instant::now();
            let mut old_out = Vec::new();
            for _ in 0..reps {
                old_out = balance_subtree_old_ext_scratch(
                    &r,
                    &[],
                    &[o],
                    cond,
                    &mut BalanceScratch::new(),
                )
                .0;
            }
            let old_seconds = t0.elapsed().as_secs_f64() / reps as f64;

            let t0 = Instant::now();
            let mut new_out = Vec::new();
            let mut seed_count = 0;
            for _ in 0..reps {
                match find_seeds(&o, &r, cond) {
                    Some(seeds) => {
                        seed_count = seeds.len();
                        new_out = reconstruct_from_seeds(&r, &seeds, cond);
                    }
                    None => {
                        seed_count = 0;
                        new_out = vec![r];
                    }
                }
            }
            let new_seconds = t0.elapsed().as_secs_f64() / reps as f64;
            assert_eq!(old_out, new_out, "depth {depth}: reconstructions differ");
            SeedsRow {
                scale_levels: depth - r.level,
                old_seconds,
                new_seconds,
                overlap_len: new_out.len(),
                seed_count,
            }
        })
        .collect()
}

/// Latency summary of one service request class, reduced from the
/// cluster-merged log2 histogram: the reported percentiles are the
/// *upper bounds* of the bucket containing that percentile.
#[derive(Clone, Copy, Debug, Default)]
pub struct LatencySummary {
    /// Samples recorded across all ranks.
    pub count: u64,
    /// Upper bound of the median's bucket, nanoseconds.
    pub p50_ns: u64,
    /// Upper bound of the 99th percentile's bucket, nanoseconds.
    pub p99_ns: u64,
}

fn hist_summary(h: &Histogram) -> LatencySummary {
    let count = h.count();
    let quantile = |frac: f64| -> u64 {
        if count == 0 {
            return 0;
        }
        let target = ((frac * count as f64).ceil() as u64).max(1);
        let mut acc = 0u64;
        for (b, c) in h.nonzero() {
            acc += c;
            if acc >= target {
                return bucket_bounds(b).1;
            }
        }
        bucket_bounds(HIST_BUCKETS - 1).1
    };
    LatencySummary {
        count,
        p50_ns: quantile(0.50),
        p99_ns: quantile(0.99),
    }
}

/// One row of the Local-rebalance study (the incremental-epoch service):
/// the same clustered refine batch committed against the same balanced
/// snapshot twice — by the dirty-region incremental rebalance and by a
/// full balance. Timings are cluster maxima, best of the repetitions,
/// and the two result forests are asserted checksum-identical before
/// the row is produced. The latency summaries come from a separate
/// short service epoch loop (queries interleaved with commits) over the
/// same snapshot.
#[derive(Clone, Debug)]
pub struct LocalRow {
    /// Simulated (threaded) rank count.
    pub ranks: usize,
    /// Workload mesh: `"fractal"` or `"ice_sheet"`.
    pub mesh: &'static str,
    /// Global leaves in the balanced base snapshot.
    pub leaves: u64,
    /// Global dirty leaves produced by the batch.
    pub dirty_global: u64,
    /// `dirty_global / leaves` — the knob under study.
    pub dirty_frac: f64,
    /// Full balance of the edited forest (scratch-reusing), seconds.
    pub full_seconds: f64,
    /// Incremental rebalance of the same edit, seconds.
    pub incremental_seconds: f64,
    /// `full_seconds / incremental_seconds`.
    pub speedup: f64,
    /// Incremental communication rounds to quiescence.
    pub rounds: u32,
    /// Leaves split by the incremental ripple (cluster sum).
    pub splits: u64,
    /// Checksum of the rebalanced forest (identical both ways).
    pub checksum: u64,
    /// Point-location latency from the service epoch loop.
    pub point_locate: LatencySummary,
    /// Neighbor-query latency from the service epoch loop.
    pub neighbor_query: LatencySummary,
    /// Commit latency from the service epoch loop.
    pub commit: LatencySummary,
}

/// Draw a pseudo-random local leaf, weighted by leaves per tree.
fn sample_leaf(f: &Forest<3>, s: &mut u64) -> Option<(u32, Octant<3>)> {
    let n = f.num_local();
    if n == 0 {
        return None;
    }
    let mut pick = (xorshift64(s) as usize) % n;
    for (t, v) in f.trees() {
        if pick < v.len() {
            return Some((t, v.get(pick)));
        }
        pick -= v.len();
    }
    None
}

fn xorshift64(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

fn local_point(
    p: usize,
    mesh: &'static str,
    target_frac: f64,
    reps: usize,
    build: impl Fn(&forestbal_comm::RankCtx) -> Forest<3> + Sync,
) -> LocalRow {
    let cond = Condition::full(3);
    let out = Cluster::run(p, |ctx| {
        let mut base = build(ctx);
        let mut scratch = BalanceScratch::new();
        base.balance_with_report_scratch(
            ctx,
            cond,
            BalanceVariant::New,
            ReversalScheme::Notify,
            &mut scratch,
        );
        let ghosts = base.ghost_layer(ctx);
        let leaves = base.num_global(ctx);

        // Refining one leaf replaces it with 8 children, so the edit
        // dirties ~8 leaves per request; size the per-rank budget so the
        // measured dirty fraction lands near the target.
        let budget = ((target_frac * base.num_local() as f64) / 8.0).ceil() as usize;
        let seed = 0x10CA_1BA1 ^ ((ctx.rank() as u64) << 32);
        let batch = clustered_batch(&base, seed, budget, forestbal_octant::MAX_LEVEL);

        let mut inc_best = u64::MAX;
        let mut full_best = u64::MAX;
        let mut dirty_global = 0u64;
        let mut rounds = 0u32;
        let mut splits = 0u64;
        let mut checksum = 0u64;
        for _ in 0..reps {
            // Incremental arm: clone the snapshot and its ghost layer,
            // apply the edits (untimed — both arms pay it identically),
            // then time only the rebalance.
            let mut fi = base.clone();
            let mut gi = ghosts.clone();
            let dirty = fi.apply_edits(&batch, forestbal_octant::MAX_LEVEL);
            dirty_global = ctx.allreduce_sum(dirty.len() as u64);
            ctx.barrier();
            let t0 = Instant::now();
            let rep = fi.balance_incremental(ctx, cond, &dirty, &mut gi);
            inc_best = inc_best.min(ctx.allreduce_max(t0.elapsed().as_nanos() as u64));
            rounds = rep.rounds;
            splits = ctx.allreduce_sum(rep.splits);

            // Full arm: identical edit, full balance with a warm scratch.
            let mut ff = base.clone();
            ff.apply_edits(&batch, forestbal_octant::MAX_LEVEL);
            ctx.barrier();
            let t0 = Instant::now();
            ff.balance_with_report_scratch(
                ctx,
                cond,
                BalanceVariant::New,
                ReversalScheme::Notify,
                &mut scratch,
            );
            full_best = full_best.min(ctx.allreduce_max(t0.elapsed().as_nanos() as u64));

            checksum = fi.checksum(ctx);
            assert_eq!(
                checksum,
                ff.checksum(ctx),
                "{mesh}: incremental rebalance diverged from full balance"
            );
        }

        // A short service epoch loop over the same snapshot feeds the
        // per-class latency histograms: queries against the immutable
        // snapshot between commits, one clustered batch per epoch.
        let mut cfg = ServiceConfig::new(3);
        cfg.fallback_dirty_fraction = f64::INFINITY; // always incremental
        let mut svc = ForestService::new(ctx, base.clone(), cfg);
        let mut qseed = seed ^ 0x9E37_79B9;
        for e in 0..3u64 {
            for _ in 0..64 {
                if let Some((t, o)) = sample_leaf(svc.forest(), &mut qseed) {
                    svc.submit(
                        ctx,
                        Request::PointLocate {
                            tree: t,
                            point: o.coords,
                        },
                    );
                    let axis = (xorshift64(&mut qseed) % 3) as usize;
                    let sign = if xorshift64(&mut qseed) & 1 == 0 {
                        1
                    } else {
                        -1
                    };
                    svc.submit(
                        ctx,
                        Request::NeighborQuery {
                            tree: t,
                            octant: o,
                            axis,
                            sign,
                        },
                    );
                }
            }
            let b = clustered_batch(
                svc.forest(),
                seed ^ (e + 1).wrapping_mul(0xA5A5),
                budget,
                forestbal_octant::MAX_LEVEL,
            );
            svc.submit_batch(&b);
            svc.commit(ctx);
        }

        // Cluster-merge the query/commit histograms (raw buckets over
        // allgather), so every rank reports identical summaries.
        const CLASSES: [RequestClass; 3] = [
            RequestClass::PointLocate,
            RequestClass::NeighborQuery,
            RequestClass::Commit,
        ];
        let mut bytes = Vec::with_capacity(CLASSES.len() * HIST_BUCKETS * 8);
        for class in CLASSES {
            for b in svc.latency(class).buckets {
                bytes.extend_from_slice(&b.to_le_bytes());
            }
        }
        let all = ctx.allgather(bytes);
        let mut merged = [Histogram::default(); 3];
        for r in all.iter() {
            for (i, h) in merged.iter_mut().enumerate() {
                for b in 0..HIST_BUCKETS {
                    let off = (i * HIST_BUCKETS + b) * 8;
                    h.buckets[b] += u64::from_le_bytes(r[off..off + 8].try_into().unwrap());
                }
            }
        }

        LocalRow {
            ranks: p,
            mesh,
            leaves,
            dirty_global,
            dirty_frac: dirty_global as f64 / leaves.max(1) as f64,
            full_seconds: full_best as f64 * 1e-9,
            incremental_seconds: inc_best as f64 * 1e-9,
            speedup: full_best as f64 / (inc_best as f64).max(1.0),
            rounds,
            splits,
            checksum,
            point_locate: hist_summary(&merged[0]),
            neighbor_query: hist_summary(&merged[1]),
            commit: hist_summary(&merged[2]),
        }
    });
    out.results.into_iter().next().expect("at least one rank")
}

/// The Local-rebalance study: the same clustered edit committed by full
/// balance and by the incremental dirty-region rebalance, at dirty
/// fractions near 0.1%, 1% and 10%, on the fractal mesh and the masked
/// ice-sheet mesh.
pub fn local_experiment(p: usize, reps: usize, big: bool) -> Vec<LocalRow> {
    let fracs = [0.001, 0.01, 0.10];
    let (flevel, fspread) = if big { (3, 4) } else { (2, 4) };
    let ice = if big {
        IceSheetParams {
            nx: 8,
            ny: 8,
            max_level: 7,
            ..IceSheetParams::default()
        }
    } else {
        IceSheetParams::default()
    };
    let mut rows = Vec::new();
    for frac in fracs {
        rows.push(local_point(p, "fractal", frac, reps, |ctx| {
            fractal_forest(ctx, flevel, fspread)
        }));
    }
    for frac in fracs {
        rows.push(local_point(p, "ice_sheet", frac, reps, move |ctx| {
            ice_sheet_forest(ctx, ice)
        }));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adapted_input_is_complete_and_scales() {
        let a = adapted_subtree_input(200, 1);
        let b = adapted_subtree_input(2000, 1);
        assert!(forestbal_octant::is_complete(&a, &Octant::root()));
        assert!(b.len() > a.len());
    }

    #[test]
    fn subtree_rows_report_savings() {
        let rows = subtree_experiment(&[400]);
        let r = &rows[0];
        assert!(r.new_stats.hash_queries < r.old_stats.hash_queries);
        assert!(r.new_stats.sorted_len < r.old_stats.sorted_len);
        assert_eq!(r.new_stats.output_len, r.old_stats.output_len);
    }

    #[test]
    fn kernel_rows_are_self_checking() {
        // The driver asserts radix == sort_unstable, table == set, and
        // scratch == fresh internally; here we check the counters land.
        // The target sits above `RADIX_MIN_LEN` so the shuffled sort
        // takes the radix path, not the small-input comparison fallback.
        let rows = kernel_experiment(&[2000]);
        let r = &rows[0];
        assert!(r.input_len > forestbal_octant::RADIX_MIN_LEN);
        assert!(r.radix_passes >= 1, "shuffled input must need radix work");
        assert_eq!(r.table_grows, 0, "pre-sized table must not regrow");
        assert!(r.table_probes_per_op >= 1.0);
        assert!(r.sort_presorted_seconds <= r.sort_radix_seconds);
    }

    #[test]
    fn seeds_rows_agree_across_distance() {
        let rows = seeds_distance_experiment(&[5, 8], 1);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.overlap_len > 1, "deep hugger must split the query octant");
            assert!(r.seed_count >= 1);
        }
        // Deeper source means a richer overlap.
        assert!(rows[1].overlap_len > rows[0].overlap_len);
    }

    #[test]
    fn notify_experiment_small() {
        let rows = notify_experiment(&[4, 6], 2, 2);
        for r in &rows {
            // Notify sends P log2 P messages; naive sends none (pure
            // collectives).
            assert_eq!(r.naive.stats.messages_sent, 0);
            assert!(r.notify.stats.messages_sent > 0);
        }
    }

    #[test]
    fn sim_reversal_rows_are_deterministic() {
        let cfg = SimConfig::default().with_seed(9).with_jitter(300);
        let a = sim_reversal_scaling(&[32], 3, 2, cfg);
        let b = sim_reversal_scaling(&[32], 3, 2, cfg);
        assert_eq!(a.len(), 3);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.makespan_ns, y.makespan_ns, "{}", x.scheme);
            assert_eq!(x.stats, y.stats, "{}", x.scheme);
        }
        // Notify must beat the naive collectives in virtual time at a
        // local pattern (the paper's core claim).
        let naive = a.iter().find(|r| r.scheme == "naive").unwrap();
        let notify = a.iter().find(|r| r.scheme == "notify").unwrap();
        assert!(notify.makespan_ns < naive.makespan_ns);
    }

    #[test]
    fn sim_balance_rows_agree_on_sizes() {
        let rows = sim_balance_scaling(&[4], 2, 3, 2, SimConfig::default());
        assert_eq!(rows.len(), 6);
        for r in &rows {
            assert_eq!(r.octants_in, rows[0].octants_in);
            assert_eq!(r.octants_out, rows[0].octants_out);
            assert!(r.makespan_ns > 0);
            assert!(r.report.timings.total.as_nanos() > 0);
        }
    }

    #[test]
    fn traced_sim_balance_phases_partition_exactly() {
        let t = sim_balance_traced(
            8,
            2,
            3,
            BalanceVariant::New,
            ReversalScheme::Notify,
            SimConfig::default(),
        );
        assert_eq!(t.trace.ranks.len(), 8);
        assert_eq!(t.row.octants_out, t.row.octants_in.max(t.row.octants_out));
        for rt in &t.trace.ranks {
            // Virtual time only advances inside communication, so the
            // phase spans tile the enclosing balance span with no gaps.
            let parts: u64 = [
                "markers",
                "local_balance",
                "query_response",
                "reversal",
                "rebalance",
            ]
            .iter()
            .map(|n| rt.phase_total_ns(n))
            .sum();
            assert_eq!(parts, rt.phase_total_ns("balance"), "rank {}", rt.rank);
        }
    }

    #[test]
    fn ripple_ablation_smoke() {
        let rows = ripple_ablation_experiment(&[2, 4], 1, 3);
        for r in &rows {
            assert!(r.ripple_rounds >= 1);
            assert!(r.ripple_msgs > 0 || r.ranks == 1);
        }
    }

    #[test]
    fn weak_scaling_smoke() {
        let rows = weak_scaling_experiment(&[(1, 1), (2, 1)], 3);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.octants_out >= r.octants_in);
            assert!(r.new.timings.total <= r.old.timings.total * 20, "sanity");
        }
    }

    #[test]
    fn strong_scaling_smoke() {
        let params = IceSheetParams {
            nx: 2,
            ny: 2,
            base_level: 1,
            max_level: 4,
            seed: 1,
        };
        let rows = strong_scaling_experiment(&[1, 2], params);
        assert_eq!(rows[0].octants_in, rows[1].octants_in);
        assert_eq!(rows[0].octants_out, rows[1].octants_out);
    }
}
