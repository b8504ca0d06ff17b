//! Experiment drivers, one per evaluation table/figure.
//!
//! Every driver returns [`BenchRecord`]s — the rows the `timings` binary
//! prints as `BENCH` lines and projects into its tables; derived fields
//! (speedups, per-octant normalizations) are computed here, once.
//!
//! The scaling studies run on either [`Runtime`]: threaded ranks time
//! host wall clock, laptop-scale, while simulated ranks (userspace fibers
//! on x86_64 Linux) time deterministic virtual communication cost up to
//! the paper's rank counts. The quantities mirrored from the paper are the
//! *shapes*: per-phase time normalized by octants per rank (weak scaling,
//! Figure 15), per-phase time versus rank count (strong scaling, Figure
//! 17), message counts and volumes for the reversal schemes (§V),
//! operation counts for the subtree algorithms (§III), and
//! distance-independence of seed-based responses (§IV).

use crate::report::BenchRecord;
use forestbal_comm::{reverse_naive, reverse_notify, reverse_ranges, Cluster, Comm, CommStats};
use forestbal_core::oracle::{is_balanced_tree, oracle_balanced_pair};
use forestbal_core::{
    balance_subtree_new_keys, balance_subtree_new_with_stats_scratch,
    balance_subtree_old_ext_scratch, find_seeds, is_balanced_pair, reconstruct_from_seeds,
    BalanceScratch, BalanceStats, Condition,
};
use forestbal_forest::BalanceVariant::{self, New, Old};
use forestbal_forest::{BalanceReport, BalanceTimings, Forest, ReversalScheme};
use forestbal_mesh::{fractal_forest, ice_sheet_forest, IceSheetParams};
use forestbal_octant::{
    complete_subtree, key, linearize, morton, pack_batch, sort_keys_with, sort_octants_with,
    unpack_batch, MortonIndex, Octant, OctantTable, PackedOctant, SortScratch,
};
use forestbal_service::{clustered_batch, ForestService, Request, ServiceConfig};
use forestbal_sim::{NetStats, NetworkSpec, SimCluster, SimConfig};
use forestbal_trace::{bucket_bounds, ClusterTrace, Histogram, RankTrace, Tracer, HIST_BUCKETS};
use std::time::{Duration, Instant};

/// The timed phases of a balance call by field-name stem.
type PhaseTime = fn(&BalanceTimings) -> Duration;
const PHASES: [(&str, PhaseTime); 5] = [
    ("total", |t| t.total),
    ("local_balance", |t| t.local_balance),
    ("reversal", |t| t.reversal),
    ("query_response", |t| t.query_response),
    ("rebalance", |t| t.rebalance),
];

/// Where a study runs its ranks.
#[derive(Clone, Copy, Debug)]
pub enum Runtime {
    /// One OS thread per rank ([`Cluster`]): times are host wall clock.
    Threads,
    /// The discrete-event simulator ([`SimCluster`]): times are
    /// deterministic virtual time, and rows also carry the makespan and
    /// (balance rows) the network's [`NetStats`].
    Sim(SimConfig),
}

impl Runtime {
    /// The rows' `network`: `threads`, or the simulated network's name.
    fn name(&self) -> &'static str {
        match self {
            Runtime::Threads => "threads",
            Runtime::Sim(cfg) => match cfg.network {
                NetworkSpec::Flat => "flat",
                NetworkSpec::FatTree(_) => "fattree",
            },
        }
    }
}

/// The mesh a balance study refines.
#[derive(Clone, Copy, Debug)]
pub enum Mesh {
    /// The fractal forest of Figure 14 at base level `level(P)`, refined
    /// `spread` levels deeper: the mesh grows with P (weak scaling).
    Fractal {
        /// Base level at a rank count.
        level: fn(usize) -> u8,
        /// Levels of refinement below the base.
        spread: u8,
    },
    /// The synthetic ice sheet of Figure 16, partitioned uniformly: one
    /// mesh at every P (strong scaling).
    IceSheet(IceSheetParams),
}

impl Mesh {
    /// The `level` a row at `p` ranks reports.
    fn level(&self, p: usize) -> u8 {
        match *self {
            Mesh::Fractal { level, .. } => level(p),
            Mesh::IceSheet(ice) => ice.max_level,
        }
    }

    fn build<C: Comm>(&self, ctx: &C) -> Forest<3> {
        match *self {
            Mesh::Fractal { level, spread } => fractal_forest(ctx, level(ctx.size()), spread),
            Mesh::IceSheet(ice) => {
                let mut f = ice_sheet_forest(ctx, ice);
                f.partition_uniform(ctx);
                f
            }
        }
    }
}

/// A balance scaling study (§VI, Figures 15 and 17): at every rank count,
/// on every runtime and under every reversal scheme, one one-pass corner
/// balance of `mesh` per variant, folded into one row.
///
/// A row names its point (`ranks level scheme network`) and mesh, then
/// holds one block per variant: the makespan (simulator), the slowest
/// rank's time per phase, time per octant per rank (Figure 15's
/// normalization), cluster traffic, `NetStats` (simulator) and, traced,
/// the merged trace counters. One variant writes its block unprefixed;
/// Old vs New writes `old_` and `new_` blocks, then the Old → New factor
/// per phase and the query/response volumes. EXPERIMENTS.md lists the
/// fields.
///
/// Every run at one rank count must agree on the mesh sizes (asserted):
/// neither the variant, the scheme nor the runtime may change results,
/// and balance only refines.
pub struct Scaling {
    /// The rows' `bench` name.
    pub bench: &'static str,
    /// The mesh balanced at every point.
    pub mesh: Mesh,
    /// Rank counts, one or more rows each.
    pub ranks: Vec<usize>,
    /// Runtimes, one row per rank count each.
    pub runtimes: Vec<Runtime>,
    /// Reversal schemes, one row per rank count and runtime each.
    pub schemes: &'static [ReversalScheme],
    /// One variant, or `[Old, New]`.
    pub variants: &'static [BalanceVariant],
    /// Arm a per-rank tracer around each balance: its cluster trace is
    /// returned and its per-span `trace_phase` rows follow the row.
    pub trace: bool,
}

/// One balance of a grid point, folded over ranks: timings are the
/// slowest rank's, volumes and traffic cluster sums.
struct BalanceRun {
    octants_in: u64,
    octants_out: u64,
    report: BalanceReport,
    stats: CommStats,
    /// Simulator only: the makespan and the network's counters.
    sim: Option<(u64, NetStats)>,
    trace: Option<ClusterTrace>,
}

/// One rank's share of a measured balance of `mesh`: global octants
/// before and after, this rank's report and, if `trace`, its trace.
fn balance_rank(
    ctx: &impl Comm,
    mesh: Mesh,
    variant: BalanceVariant,
    scheme: ReversalScheme,
    trace: bool,
) -> (u64, u64, BalanceReport, Option<RankTrace>) {
    let mut f = mesh.build(ctx);
    let before = f.num_global(ctx);
    ctx.barrier();
    let tracer = trace.then(|| Tracer::begin(ctx.rank()));
    let report = f.balance_with_report(ctx, Condition::full(3), variant, scheme);
    let trace = tracer.map(Tracer::finish);
    (before, f.num_global(ctx), report, trace)
}

impl Scaling {
    /// Run every point of the grid: the rows in grid order and, with
    /// `trace` armed, each balance's per-rank traces.
    pub fn run(&self) -> (Vec<BenchRecord>, Vec<ClusterTrace>) {
        assert!(
            matches!(self.variants, [_] | [Old, New]),
            "a study balances one variant or compares Old with New"
        );
        let (mut rows, mut traces) = (Vec::new(), Vec::new());
        for &p in &self.ranks {
            let mut sizes = None;
            for &runtime in &self.runtimes {
                for &scheme in self.schemes {
                    let runs: Vec<BalanceRun> = self
                        .variants
                        .iter()
                        .map(|&variant| {
                            let run = self.balance(p, runtime, scheme, variant);
                            let got = (run.octants_in, run.octants_out);
                            assert!(got.1 >= got.0, "balance only refines");
                            let (net, name) = (runtime.name(), scheme_name(scheme));
                            let want = *sizes.get_or_insert(got);
                            assert_eq!(want, got, "P={p}: {net}/{name}/{variant:?} mesh size");
                            run
                        })
                        .collect();
                    rows.push(self.row(p, runtime, scheme, &runs));
                    for trace in runs.into_iter().filter_map(|run| run.trace) {
                        rows.extend(trace.phase_aggregates().into_iter().map(|a| {
                            BenchRecord::new("trace_phase")
                                .s("phase", a.name)
                                .u("ranks", a.ranks as u64)
                                .u("spans", a.spans)
                                .u("min_ns", a.min_ns)
                                .u("median_ns", a.median_ns)
                                .u("max_ns", a.max_ns)
                        }));
                        traces.push(trace);
                    }
                }
            }
        }
        (rows, traces)
    }

    fn balance(
        &self,
        p: usize,
        runtime: Runtime,
        scheme: ReversalScheme,
        variant: BalanceVariant,
    ) -> BalanceRun {
        let (mesh, trace) = (self.mesh, self.trace);
        // Progress on stderr: a point at P = 112,128 runs for minutes.
        let (bench, net, name) = (self.bench, runtime.name(), scheme_name(scheme));
        eprintln!("{bench}: P={p} {net}/{name}/{variant:?}");
        let (results, stats, sim) = match runtime {
            Runtime::Threads => {
                let out = Cluster::run(p, |ctx| balance_rank(ctx, mesh, variant, scheme, trace));
                let stats = out.total_stats();
                (out.results, stats, None)
            }
            Runtime::Sim(cfg) => {
                let out = SimCluster::run(p, cfg, |ctx| {
                    balance_rank(ctx, mesh, variant, scheme, trace)
                });
                let (stats, sim) = (out.total_stats(), (out.makespan_ns(), out.net));
                (out.results, stats, Some(sim))
            }
        };
        let report = results
            .iter()
            .fold(BalanceReport::default(), |a, r| a.combine(&r.2));
        let (octants_in, octants_out) = (results[0].0, results[0].1);
        let ranks: Vec<RankTrace> = results.into_iter().filter_map(|r| r.3).collect();
        let trace = trace.then(|| ClusterTrace::new(ranks));
        BalanceRun {
            octants_in,
            octants_out,
            report,
            stats,
            sim,
            trace,
        }
    }

    /// The row of one point: `runs` in `self.variants` order.
    fn row(
        &self,
        p: usize,
        runtime: Runtime,
        scheme: ReversalScheme,
        runs: &[BalanceRun],
    ) -> BenchRecord {
        let octants_out = runs[0].octants_out;
        let per_rank = octants_out as f64 / p as f64;
        let mut rec = BenchRecord::new(self.bench)
            .u("ranks", p as u64)
            .u("level", self.mesh.level(p) as u64)
            .s("scheme", scheme_name(scheme))
            .s("network", runtime.name())
            .u("octants_in", runs[0].octants_in)
            .u("octants_out", octants_out)
            .f("octants_per_rank", per_rank);
        let prefixes: &[&str] = if runs.len() == 1 {
            &[""]
        } else {
            &["old_", "new_"]
        };
        for (prefix, run) in prefixes.iter().zip(runs) {
            rec = run.fields(rec, prefix, per_rank);
        }
        if let [old, new] = runs {
            let (old, new) = (&old.report, &new.report);
            for (phase, get) in PHASES {
                let nanos = |r: &BalanceReport| get(&r.timings).as_nanos() as f64;
                rec = rec.f(&format!("{phase}_speedup"), nanos(old) / nanos(new));
            }
            rec = rec
                .u("old_query_bytes", old.query_bytes)
                .u("old_response_bytes", old.response_bytes)
                .u("new_query_bytes", new.query_bytes)
                .u("new_response_bytes", new.response_bytes)
                // Not finite (JSON `null`) where the new variant sent nothing.
                .f(
                    "response_reduction",
                    old.response_bytes as f64 / new.response_bytes as f64,
                );
        }
        rec
    }
}

impl BalanceRun {
    /// Append this run's block of a row, every key behind `prefix`.
    fn fields(&self, mut rec: BenchRecord, prefix: &str, per_rank: f64) -> BenchRecord {
        let key = |name: &str| format!("{prefix}{name}");
        let t = &self.report.timings;
        if let Some((makespan_ns, _)) = self.sim {
            rec = rec.u(&key("makespan_ns"), makespan_ns);
        }
        for (phase, get) in PHASES {
            rec = rec.u(&key(&format!("{phase}_ns")), get(t).as_nanos() as u64);
        }
        rec = rec
            .f(
                &key("total_ns_per_octant"),
                t.total.as_nanos() as u64 as f64 / per_rank,
            )
            .u(&key("messages"), self.stats.messages_sent)
            .u(&key("p2p_bytes"), self.stats.bytes_sent)
            .u(&key("collective_bytes"), self.stats.collective_bytes);
        if let Some((_, net)) = self.sim {
            for (name, v) in [
                ("net_p2p_messages", net.p2p_messages),
                ("net_intra_node", net.intra_node_messages),
                ("net_inter_node", net.inter_node_messages),
                ("net_inter_pod", net.inter_pod_messages),
                ("net_link_waits", net.link_waits),
                ("net_link_wait_ns", net.link_wait_ns),
                ("net_max_link_wait_ns", net.max_link_wait_ns),
                ("net_collectives", net.collectives),
            ] {
                rec = rec.u(&key(name), v);
            }
        }
        for (name, v) in self.trace.iter().flat_map(ClusterTrace::merged_counters) {
            rec = rec.u(&key(name), v);
        }
        rec
    }
}

/// Slowest rank's total time inside spans named `span`.
fn slowest_span_ns<'a>(traces: impl Iterator<Item = &'a RankTrace>, span: &str) -> u64 {
    traces.map(|rt| rt.phase_total_ns(span)).max().unwrap_or(0)
}

/// A reversal scheme's row label.
fn scheme_name(scheme: ReversalScheme) -> &'static str {
    match scheme {
        ReversalScheme::Naive => "naive",
        ReversalScheme::Ranges(_) => "ranges",
        ReversalScheme::Notify => "notify",
    }
}

/// One rank's share of [`reversal_experiment`], traced.
fn reverse_rank(ctx: &impl Comm, scheme: ReversalScheme, fanout: usize) -> RankTrace {
    let (r, p) = (ctx.rank(), ctx.size());
    let rs: Vec<usize> = (1..=fanout)
        .map(|i| (r + i) % p)
        .filter(|&q| q != r)
        .collect();
    ctx.barrier();
    let tracer = Tracer::begin(ctx.rank());
    let senders = match scheme {
        ReversalScheme::Naive => reverse_naive(ctx, &rs),
        ReversalScheme::Ranges(max_ranges) => reverse_ranges(ctx, &rs, max_ranges),
        ReversalScheme::Notify => reverse_notify(ctx, &rs),
    };
    assert!(!senders.is_empty() || p == 1);
    tracer.finish()
}

/// Compare the reversal schemes of §V (Figures 12, 13, 15e) on the
/// curve-local pattern in which each rank addresses its `fanout` nearest
/// successors (the typical shape of balance queries along the
/// space-filling curve), one row per (P, scheme):
/// `ranks scheme network`, `makespan_ns` on the simulator, then
/// `reversal_ns`, the slowest rank's time in the span the scheme records
/// itself (exactly the algorithm; 0 without the `trace` feature), and
/// cluster-total `messages p2p_bytes collective_bytes`.
pub fn reversal_experiment(
    bench: &str,
    runtime: Runtime,
    ranks: &[usize],
    schemes: &[ReversalScheme],
    fanout: usize,
) -> Vec<BenchRecord> {
    let mut rows = Vec::new();
    for &p in ranks {
        for &scheme in schemes {
            let (traces, stats, makespan_ns) = match runtime {
                Runtime::Threads => {
                    let out = Cluster::run(p, |ctx| reverse_rank(ctx, scheme, fanout));
                    let stats = out.total_stats();
                    (out.results, stats, None)
                }
                Runtime::Sim(cfg) => {
                    let out = SimCluster::run(p, cfg, |ctx| reverse_rank(ctx, scheme, fanout));
                    let (stats, makespan_ns) = (out.total_stats(), out.makespan_ns());
                    (out.results, stats, Some(makespan_ns))
                }
            };
            let name = scheme_name(scheme);
            let mut rec = BenchRecord::new(bench)
                .u("ranks", p as u64)
                .s("scheme", name)
                .s("network", runtime.name());
            if let Some(makespan_ns) = makespan_ns {
                rec = rec.u("makespan_ns", makespan_ns);
            }
            let span = format!("reverse_{name}");
            rows.push(
                rec.u("reversal_ns", slowest_span_ns(traces.iter(), &span))
                    .u("messages", stats.messages_sent)
                    .u("p2p_bytes", stats.bytes_sent)
                    .u("collective_bytes", stats.collective_bytes),
            );
        }
    }
    rows
}

/// Compare the one-pass algorithm against the multi-round ripple baseline
/// on the fractal workload (§II-B): the ripple needs a number of
/// communication rounds that grows with the refinement's reach, the
/// one-pass algorithm always uses a single query/response round. Times
/// are slowest-rank, messages cluster totals.
///
/// Both sides are timed through their own trace spans (`"balance"` and
/// `"ripple"`), so the harness (mesh construction, checksum) stays outside
/// the measured interval by construction.
pub fn ripple_ablation_experiment(ranks: &[usize], level: u8, spread: u8) -> Vec<BenchRecord> {
    let row = |&p: &usize| {
        // (slowest-rank seconds, checksum, rounds, cluster-total messages)
        let run = |ripple: bool| {
            let out = Cluster::run(p, |ctx| {
                let mut f = fractal_forest(ctx, level, spread);
                let cond = Condition::full(3);
                ctx.barrier();
                let tracer = Tracer::begin(ctx.rank());
                let rounds = if ripple {
                    f.balance_ripple(ctx, cond).rounds
                } else {
                    f.balance(ctx, cond, BalanceVariant::New, ReversalScheme::Notify);
                    1
                };
                (tracer.finish(), f.checksum(ctx), rounds)
            });
            let span = if ripple { "ripple" } else { "balance" };
            let seconds = slowest_span_ns(out.results.iter().map(|r| &r.0), span) as f64 / 1e9;
            let rounds = out.results.iter().map(|r| r.2).max().unwrap() as u64;
            let messages = out.total_stats().messages_sent;
            (seconds, out.results[0].1, rounds, messages)
        };
        let (one_pass_s, sum_one, _, one_pass_messages) = run(false);
        let (ripple_s, sum_ripple, ripple_rounds, ripple_messages) = run(true);
        assert_eq!(sum_one, sum_ripple, "baselines disagree");
        BenchRecord::new("ripple")
            .u("ranks", p as u64)
            .f("one_pass_s", one_pass_s)
            .f("ripple_s", ripple_s)
            .u("ripple_rounds", ripple_rounds)
            .u("one_pass_messages", one_pass_messages)
            .u("ripple_messages", ripple_messages)
    };
    ranks.iter().map(row).collect()
}

/// Generate a complete, adapted 3D input octree of roughly `target`
/// leaves by completing around pseudo-random deep pins.
pub fn adapted_subtree_input(target: usize, seed: u64) -> Vec<Octant<3>> {
    let root = Octant::<3>::root();
    let mut pins = Vec::new();
    let mut state = seed | 1;
    let mut next = || xorshift64(&mut state);
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

/// Compare the old and new subtree balance on adapted inputs (§III /
/// Figures 6-8): wall clock and operation counts, one row per input.
pub fn subtree_experiment(targets: &[usize]) -> Vec<BenchRecord> {
    let root = Octant::<3>::root();
    let cond = Condition::full(3);
    targets
        .iter()
        .map(|&n| {
            let input = adapted_subtree_input(n, 0x5eed ^ n as u64);
            let (mut old, mut new) = Default::default();
            let old_seconds = timed(1, || {
                let mut scratch = BalanceScratch::new();
                old = balance_subtree_old_ext_scratch(&root, &input, &[], cond, &mut scratch);
            });
            let new_seconds = timed(1, || {
                let mut scratch = BalanceScratch::new();
                new = balance_subtree_new_with_stats_scratch(&root, &input, cond, &mut scratch);
            });
            let ((out_old, old_stats), (out_new, new_stats)) = (old, new);
            assert_eq!(out_old, out_new, "algorithms disagree");
            assert!(is_balanced_tree(&out_new, &root, cond), "output unbalanced");
            BenchRecord::new("subtree")
                .u("input_len", input.len() as u64)
                .u("output_len", new_stats.output_len as u64)
                .f("old_s", old_seconds)
                .f("new_s", new_seconds)
                .speedup("speedup", "old_s", "new_s")
                .u("old_hash_queries", old_stats.hash_queries)
                .u("new_hash_queries", new_stats.hash_queries)
                .u("old_sorted_len", old_stats.sorted_len as u64)
                .u("new_sorted_len", new_stats.sorted_len as u64)
        })
        .collect()
}

/// Deterministic Fisher-Yates shuffle (xorshift; the workspace builds
/// offline without `rand` in the hot path).
fn shuffle<T>(v: &mut [T], seed: u64) {
    let mut state = seed | 1;
    for i in (1..v.len()).rev() {
        let j = (xorshift64(&mut state) % (i as u64 + 1)) as usize;
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

/// Micro-benchmark the packed-key building blocks on adapted 3D inputs of
/// roughly the given sizes: struct `sort_unstable` vs packed LSD radix
/// (and its presorted early-out), build and query of the pre-sized
/// open-addressing [`OctantTable`] (queries are half hits, half misses),
/// Morton indices through the struct vs through the key, and the new
/// kernel end to end with a fresh vs a reused [`BalanceScratch`] (both
/// through the struct wrapper) and as the key kernel on the packed input
/// (`balance_keys_s`). Every
/// pair is checked equal in the same run, so a row is also a correctness
/// witness.
pub fn kernel_experiment(targets: &[usize]) -> Vec<BenchRecord> {
    use std::hint::black_box;
    let root = Octant::<3>::root();
    let cond = Condition::full(3);
    let threads = forestbal_par::current().threads() as u64;
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
            let (hits, passes) = (sort.presorted_hits, sort.radix_passes);
            let sort_presorted_seconds = timed(reps, || {
                sort_octants_with(black_box(&mut buf), &mut sort);
            });
            assert_eq!(
                (sort.presorted_hits - hits, sort.radix_passes),
                (reps as u64, passes),
                "every timed presorted call must take the early-out"
            );

            // --- membership: build and query of the open-addressing table ---
            // Queries are half hits (the leaves themselves) and half
            // misses (each leaf's first child), the mix the kernels see.
            let misses: Vec<Octant<3>> = input.iter().map(|o| o.child(0)).collect();
            let mut table = OctantTable::<3>::new();
            let table_build_seconds = timed(reps, || {
                table.reset_for(input.len());
                for o in &input {
                    table.insert(o);
                }
            });
            let probes_before = table.probe_count();
            let lookups_before = table.lookup_count();
            let mut hits = 0usize;
            let table_query_seconds = timed(reps, || {
                hits = 0;
                for o in input.iter().chain(&misses) {
                    hits += usize::from(table.contains(black_box(o)));
                }
            }) / (2 * input.len()) as f64;
            assert_eq!(hits, input.len(), "leaves are members, their children not");
            let table_probes_per_op = (table.probe_count() - probes_before) as f64
                / (table.lookup_count() - lookups_before).max(1) as f64;

            // --- Morton indices: through the struct vs through the key ---
            // Both start from the same struct octants and fold results
            // into a checksum, so each pair is also checked equal. The
            // packed index column includes the pack: one dilation either
            // way, which is what keeps the two within a small factor.
            let per_octant_ns = |seconds: f64| -> f64 { seconds * 1e9 / input.len() as f64 };
            let mut keys = Vec::new();
            pack_batch(&input, &mut keys);
            let indices: Vec<MortonIndex> = input.iter().map(Octant::index).collect();
            let mut sums = [0u128; 6];
            let interleave_struct_ns = per_octant_ns(timed(reps, || {
                sums[0] = input
                    .iter()
                    .fold(0, |h, o| h ^ morton::interleave(black_box(&o.coords)));
            }));
            let interleave_packed_ns = per_octant_ns(timed(reps, || {
                sums[1] = input
                    .iter()
                    .fold(0, |h, o| h ^ PackedOctant::new(black_box(o)).index());
            }));
            let deinterleave_struct_ns = per_octant_ns(timed(reps, || {
                sums[2] = indices.iter().fold(0, |h, &i| {
                    h ^ morton::deinterleave::<3>(black_box(i))[0] as u128
                });
            }));
            let deinterleave_packed_ns = per_octant_ns(timed(reps, || {
                sums[3] = keys.iter().fold(0, |h, &k| {
                    h ^ key::unpack::<3>(black_box(k)).coords[0] as u128
                });
            }));
            let index_struct_ns = per_octant_ns(timed(reps, || {
                sums[4] = input.iter().fold(0, |h, o| {
                    let o = black_box(o);
                    h ^ o.index() ^ o.last_index()
                });
            }));
            let index_packed_ns = per_octant_ns(timed(reps, || {
                sums[5] = input.iter().fold(0, |h, o| {
                    let p = PackedOctant::new(black_box(o));
                    h ^ p.index() ^ p.last_index()
                });
            }));
            assert_eq!(sums[0], sums[1], "interleave: struct and key disagree");
            assert_eq!(sums[2], sums[3], "deinterleave: struct and key disagree");
            assert_eq!(sums[4], sums[5], "index range: struct and key disagree");

            // --- full kernel: fresh vs reused scratch ---
            let bal_reps = reps.min(5);
            let mut fresh_out = (Vec::new(), BalanceStats::default());
            let balance_fresh_seconds = timed_min(bal_reps, || {
                fresh_out = balance_subtree_new_with_stats_scratch(
                    &root,
                    black_box(&input),
                    cond,
                    &mut BalanceScratch::new(),
                );
            });
            // The struct wrapper and the key kernel on the packed input
            // itself (as the forest runs it, no pack or unpack around the
            // call) share one scratch and alternate, so a slow phase of the
            // host hits both columns alike.
            let mut scratch = BalanceScratch::<3>::new();
            let root_key = PackedOctant::new(&root);
            let mut scratch_out = (Vec::new(), BalanceStats::default());
            let mut keys_out = (Vec::new(), BalanceStats::default());
            let (mut balance_scratch_seconds, mut balance_keys_seconds) = (f64::MAX, f64::MAX);
            for _ in 0..bal_reps {
                balance_scratch_seconds = balance_scratch_seconds.min(timed(1, || {
                    scratch_out = balance_subtree_new_with_stats_scratch(
                        &root,
                        black_box(&input),
                        cond,
                        &mut scratch,
                    );
                }));
                balance_keys_seconds = balance_keys_seconds.min(timed(1, || {
                    keys_out =
                        balance_subtree_new_keys(root_key, black_box(&keys), cond, &mut scratch);
                }));
            }
            assert_eq!(scratch_out, fresh_out, "scratch path diverged");
            let mut unpacked = Vec::new();
            unpack_batch(&keys_out.0, &mut unpacked);
            assert_eq!((unpacked, keys_out.1), scratch_out, "key kernel diverged");

            BenchRecord::new("kernel")
                .u("threads", threads)
                .u("input_len", input.len() as u64)
                .f("sort_struct_s", sort_struct_seconds)
                .f("sort_radix_s", sort_radix_seconds)
                .f("sort_presorted_s", sort_presorted_seconds)
                .speedup("radix_speedup", "sort_struct_s", "sort_radix_s")
                .u("radix_passes", radix_passes)
                .f("table_build_s", table_build_seconds)
                .f("table_query_s", table_query_seconds)
                .f("table_probes_per_op", table_probes_per_op)
                .u("table_grows", table.grow_count())
                .f("interleave_struct_ns", interleave_struct_ns)
                .f("interleave_packed_ns", interleave_packed_ns)
                .f("deinterleave_struct_ns", deinterleave_struct_ns)
                .f("deinterleave_packed_ns", deinterleave_packed_ns)
                .f("index_struct_ns", index_struct_ns)
                .f("index_packed_ns", index_packed_ns)
                .f("balance_fresh_s", balance_fresh_seconds)
                .f("balance_scratch_s", balance_scratch_seconds)
                .f("balance_keys_s", balance_keys_seconds)
        })
        .collect()
}

/// The intra-rank parallelism study: a shuffled key sort of at least
/// `keys_target` packed keys and a single-rank multi-tree balance, each
/// forced onto one thread vs through the current global pool (best of
/// reps). Bit-identity across widths is asserted inside the run (sorted
/// output equality, forest checksum equality), so the row is also a
/// witness of the `forestbal-par` determinism contract. On a single-core
/// host the parallel columns report overhead, not speedup — the row
/// still proves the contract, which is what CI gates on unconditionally.
pub fn par_kernel_experiment(keys_target: usize, level: u8, spread: u8) -> Vec<BenchRecord> {
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
    let (serial_mesh, par_mesh) = ((out_serial, sum_serial), (out_par, sum_par));
    assert_eq!(
        serial_mesh, par_mesh,
        "pool width changed the balanced mesh"
    );

    vec![BenchRecord::new("kernel_par")
        .u("threads", threads as u64)
        .u("keys", keys.len() as u64)
        .f("sort_serial_s", sort_serial_seconds)
        .f("sort_par_s", sort_par_seconds)
        .speedup("par_radix_speedup", "sort_serial_s", "sort_par_s")
        .f("balance_serial_s", balance_serial_seconds)
        .f("balance_par_s", balance_par_seconds)
        .speedup("par_balance_speedup", "balance_serial_s", "balance_par_s")
        .u("octants_out", out_par)
        .u("forest_checksum", sum_par)]
}

fn wire_row<const D: usize>(
    build: impl Fn(&forestbal_comm::RankCtx) -> Forest<D> + Sync,
) -> BenchRecord {
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
        BenchRecord::new("kernel_wire")
            .u("threads", forestbal_par::current().threads() as u64)
            .u("dim", D as u64)
            .u("key_bytes", forestbal_forest::codec::key_size::<D>() as u64)
            .u("octants", octants as u64)
            .u("runs", runs as u64)
            .u("wire_bytes", bytes.len() as u64)
            .f(
                "bytes_per_octant",
                bytes.len() as f64 / octants.max(1) as f64,
            )
            .f("encode_s", encode_seconds)
            .f("decode_s", decode_seconds)
            .u("forest_checksum", f.checksum(ctx))
    });
    out.results.into_iter().next().unwrap()
}

/// Measure the packed wire format (`forestbal_forest::codec`) on
/// deterministic balanced fractal forests, one row per dimension: bytes
/// per octant, tree-run framing overhead, and memcpy encode/decode
/// throughput. Rows double as correctness witnesses: the byte budget is
/// asserted exactly and the decode is compared leaf by leaf against the
/// source forest.
///
/// `forest_checksum` is the checksum of the balanced mesh the row was
/// measured on. It does not depend on the `trace` feature or the pool
/// width, so CI compares it across those configurations.
pub fn wire_experiment() -> Vec<BenchRecord> {
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

/// Reconstruct `T_k(o) ∩ r` for a source octant `o` of increasing depth
/// hugging the query octant `r`: the old way (auxiliary-octant cascade
/// from the raw octant across the scale gap) does work growing with the
/// separation, the new way (λ seeds) only pays for the overlap itself
/// (§IV / Figures 4b and 9). `scale_levels` is the level gap between the
/// fine source octant and the coarse query octant, `seed_count` the
/// seeds sent (≤ 3^(d−1)), `overlap_len` the leaves reconstructed.
pub fn seeds_distance_experiment(depths: &[u8], reps: usize) -> Vec<BenchRecord> {
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

            let mut old_out = Vec::new();
            let old_seconds = timed(reps, || {
                let mut scratch = BalanceScratch::new();
                old_out = balance_subtree_old_ext_scratch(&r, &[], &[o], cond, &mut scratch).0;
            });
            let (mut new_out, mut seed_count) = (Vec::new(), 0);
            let new_seconds = timed(reps, || {
                let seeds = find_seeds(&o, &r, cond);
                seed_count = seeds.as_ref().map_or(0, |s| s.len());
                new_out = seeds.map_or(vec![r], |s| reconstruct_from_seeds(&r, &s, cond));
            });
            assert_eq!(old_out, new_out, "depth {depth}: reconstructions differ");
            BenchRecord::new("seeds")
                .u("scale_levels", (depth - r.level) as u64)
                .u("overlap_len", new_out.len() as u64)
                .u("seed_count", seed_count as u64)
                .f("old_s", old_seconds)
                .f("new_s", new_seconds)
                .speedup("speedup", "old_s", "new_s")
        })
        .collect()
}

/// The cost of one remote balance decision (§IV, Table II): the O(1)
/// λ/`Carry3` test of [`is_balanced_pair`] against constructing the
/// ripple cone ([`oracle_balanced_pair`]), over 21 non-overlapping 3D
/// pairs with a deep source octant. The two must agree on every pair.
pub fn decision_experiment() -> Vec<BenchRecord> {
    use std::hint::black_box;
    let root = Octant::<3>::root();
    let cond = Condition::full(3);
    let mut o = root.child(0);
    for _ in 0..6 {
        o = o.child(7);
    }
    let pairs: Vec<(Octant<3>, Octant<3>)> = (1..8)
        .flat_map(|i| {
            let c = root.child(i);
            [c, c.child(0), c.child(7).child(2)]
        })
        .map(|r| (o, r))
        .collect();
    assert!(pairs.iter().all(|(o, r)| !o.overlaps(r)));

    let mut lambda = Vec::new();
    let lambda_seconds = timed(10_000, || {
        lambda.clear();
        lambda.extend(
            pairs
                .iter()
                .map(|(o, r)| is_balanced_pair(black_box(o), black_box(r), cond)),
        );
    });
    let mut oracle = Vec::new();
    let oracle_seconds = timed(1, || {
        oracle.extend(
            pairs
                .iter()
                .map(|(o, r)| oracle_balanced_pair(&root, black_box(o), black_box(r), cond)),
        );
    });
    assert_eq!(lambda, oracle, "λ decision diverged from the ripple oracle");

    let per_pair_ns = |seconds: f64| seconds * 1e9 / pairs.len() as f64;
    vec![BenchRecord::new("decision")
        .u("pairs", pairs.len() as u64)
        .u("unbalanced", lambda.iter().filter(|&&b| !b).count() as u64)
        .f("oracle_ns_per_pair", per_pair_ns(oracle_seconds))
        .f("lambda_ns_per_pair", per_pair_ns(lambda_seconds))
        .speedup("speedup", "oracle_ns_per_pair", "lambda_ns_per_pair")]
}

/// Reduce a cluster-merged log2 latency histogram to `(samples, p50,
/// p99)` in nanoseconds; the percentiles are the *upper bounds* of the
/// bucket containing them.
fn hist_summary(h: &Histogram) -> [u64; 3] {
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
    [count, quantile(0.50), quantile(0.99)]
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

/// The service latency histograms the `local` rows summarize, by
/// field-name stem.
const CLASSES: [(&str, &str); 3] = [
    ("point_locate", "service.point_locate_ns"),
    ("neighbor_query", "service.neighbor_query_ns"),
    ("commit", "service.commit_ns"),
];

fn local_point(
    p: usize,
    mesh: &'static str,
    target_frac: f64,
    reps: usize,
    build: impl Fn(&forestbal_comm::RankCtx) -> Forest<3> + Sync,
) -> BenchRecord {
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

        // A short service epoch loop over the same snapshot, traced,
        // feeds the per-class latency histograms: queries against the
        // immutable snapshot between commits, one clustered batch per
        // epoch.
        let mut cfg = ServiceConfig::new(3);
        cfg.fallback_dirty_fraction = f64::INFINITY; // always incremental
        let mut svc = ForestService::new(ctx, base.clone(), cfg);
        let tracer = Tracer::begin(ctx.rank());
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
        let trace = tracer.finish();

        let rec = BenchRecord::new("local")
            .u("ranks", p as u64)
            .s("mesh", mesh)
            .u("leaves", leaves)
            .u("dirty_global", dirty_global)
            .f("dirty_frac", dirty_global as f64 / leaves.max(1) as f64)
            .f("full_s", full_best as f64 * 1e-9)
            .f("incremental_s", inc_best as f64 * 1e-9)
            .f("speedup", full_best as f64 / (inc_best as f64).max(1.0))
            .u("rounds", rounds as u64)
            .u("splits", splits)
            .u("forest_checksum", checksum);
        let hists = CLASSES.map(|(_, name)| trace.histograms.get(name).copied());
        (rec, hists.map(Option::unwrap_or_default))
    });
    // Every rank built the same record; the latency histograms are
    // per rank and merge into cluster-wide summaries.
    let mut rec = out.results[0].0.clone();
    for (i, (name, _)) in CLASSES.iter().enumerate() {
        let mut merged = Histogram::default();
        for (_, hists) in &out.results {
            merged.merge(&hists[i]);
        }
        let [n, p50, p99] = hist_summary(&merged);
        rec = rec
            .u(&format!("{name}_n"), n)
            .u(&format!("{name}_p50_ns"), p50)
            .u(&format!("{name}_p99_ns"), p99);
    }
    rec
}

/// The Local-rebalance study (the incremental-epoch service): the same
/// clustered refine batch committed against the same balanced snapshot
/// twice — by the dirty-region incremental rebalance and by a full
/// balance — at dirty fractions near 0.1%, 1%, 10%, 20% and 40% (the
/// last two look for the crossover of the two), on the fractal
/// mesh and the masked ice-sheet mesh. Timings are cluster maxima, best
/// of the repetitions, and the two result forests are asserted
/// checksum-identical before the row is produced. The latency fields
/// are the `service.*_ns` trace histograms of a separate short, traced
/// service epoch loop (queries interleaved with commits) over the same
/// snapshot. `fractal` is the `(level,
/// spread)` of the fractal mesh.
pub fn local_experiment(
    p: usize,
    reps: usize,
    (flevel, fspread): (u8, u8),
    ice: IceSheetParams,
) -> Vec<BenchRecord> {
    let fracs = [0.001, 0.01, 0.10, 0.20, 0.40];
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
    fn subtree_rows_pin_operation_counts() {
        // The `--exp subtree` inputs: the kernels' `BalanceStats` are a
        // pure function of the input, so the paper's saving (§III) is
        // pinned as literals, (old, new) per input.
        let want = [
            ((149_696, 7_039), (2_776, 314)),
            ((512_544, 32_150), (11_408, 1_263)),
            ((2_299_040, 165_766), (56_400, 6_243)),
        ];
        let rows = subtree_experiment(&[500, 5_000, 50_000]);
        for (r, (queries, sorted)) in rows.iter().zip(want) {
            let got = |old: &str, new: &str| (r.u64(old), r.u64(new));
            assert_eq!(got("old_hash_queries", "new_hash_queries"), queries);
            assert_eq!(got("old_sorted_len", "new_sorted_len"), sorted);
            assert!(r.u64("output_len") >= r.u64("input_len"));
        }
    }

    #[test]
    fn kernel_rows_are_self_checking() {
        // `kernel_experiment` asserts radix == sort_unstable, table
        // membership, scratch == fresh and that every timed presorted sort
        // took the early-out; here we check the counters land.
        // The target sits above `RADIX_MIN_LEN` so the shuffled sort
        // takes the radix path, not the small-input comparison fallback.
        let rows = kernel_experiment(&[2000]);
        let r = &rows[0];
        assert!(r.u64("input_len") as usize > forestbal_octant::RADIX_MIN_LEN);
        assert!(
            r.u64("radix_passes") >= 1,
            "shuffled input must need radix work"
        );
        assert_eq!(r.u64("table_grows"), 0, "pre-sized table must not regrow");
        assert!(r.f64("table_probes_per_op") >= 1.0);
    }

    #[test]
    fn seeds_rows_agree_across_distance() {
        let rows = seeds_distance_experiment(&[5, 8], 1);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(
                r.u64("overlap_len") > 1,
                "deep hugger must split the query octant"
            );
            assert!(r.u64("seed_count") >= 1);
        }
        // Deeper source means a richer overlap.
        assert!(rows[1].u64("overlap_len") > rows[0].u64("overlap_len"));
    }

    #[test]
    fn decision_row_covers_both_outcomes() {
        let r = &decision_experiment()[0];
        assert_eq!(r.u64("pairs"), 21);
        // The deep source forces some coarse neighbors to split and
        // leaves distant ones alone.
        assert!((1..21).contains(&r.u64("unbalanced")));
    }

    const SCHEMES: &[ReversalScheme] = &[
        ReversalScheme::Naive,
        ReversalScheme::Ranges(2),
        ReversalScheme::Notify,
    ];
    const OLD_NEW: &[BalanceVariant] = &[BalanceVariant::Old, BalanceVariant::New];
    const FRACTAL: Mesh = Mesh::Fractal {
        level: |_| 2,
        spread: 3,
    };
    const ICE: IceSheetParams = IceSheetParams {
        nx: 2,
        ny: 2,
        base_level: 1,
        max_level: 4,
        seed: 1,
    };

    /// An untraced Old-vs-New study of every scheme.
    fn study(mesh: Mesh, ranks: Vec<usize>, runtimes: Vec<Runtime>) -> Vec<BenchRecord> {
        let s = Scaling {
            bench: "study",
            mesh,
            ranks,
            runtimes,
            schemes: SCHEMES,
            variants: OLD_NEW,
            trace: false,
        };
        s.run().0
    }

    #[test]
    fn notify_experiment_small() {
        let rows = reversal_experiment("notify", Runtime::Threads, &[4, 6], SCHEMES, 2);
        assert_eq!(rows.len(), 6);
        for r in &rows {
            // Notify sends P log2 P messages; naive sends none (pure
            // collectives).
            match r.str("scheme") {
                "naive" => assert_eq!(r.u64("messages"), 0),
                "notify" => assert!(r.u64("messages") > 0),
                _ => {}
            }
        }
    }

    #[test]
    fn sim_reversal_rows_are_deterministic() {
        let cfg = SimConfig::builder().seed(9).jitter_ns(300).build();
        let run = || reversal_experiment("sim_reversal", Runtime::Sim(cfg), &[32], SCHEMES, 3);
        let a = run();
        assert_eq!(a.len(), 3);
        // Makespan and every traffic counter repeat exactly.
        assert_eq!(a, run());
        // Notify must beat the naive collectives in virtual time at a
        // local pattern (the paper's core claim).
        let makespan = |scheme: &str| {
            let row = a.iter().find(|r| r.str("scheme") == scheme).unwrap();
            row.u64("makespan_ns")
        };
        assert!(makespan("notify") < makespan("naive"));
    }

    #[test]
    fn sim_balance_rows_agree_on_sizes() {
        // The runtime is a dimension that moves only time: the same
        // (mesh, P, variant, scheme) on threads and on the simulator
        // balances to the same mesh with the same traffic.
        let sim = Runtime::Sim(SimConfig::default());
        for mesh in [FRACTAL, Mesh::IceSheet(ICE)] {
            let rows = study(mesh, vec![4], vec![Runtime::Threads, sim]);
            assert_eq!(rows.len(), 6);
            for r in &rows {
                assert_eq!(r.u64("octants_in"), rows[0].u64("octants_in"));
                assert_eq!(r.u64("octants_out"), rows[0].u64("octants_out"));
                assert!(r.u64("octants_out") > r.u64("octants_in"));
                assert!(r.u64("old_total_ns") > 0 && r.u64("new_total_ns") > 0);
            }
            let (threads, simulated) = rows.split_at(3);
            for (t, s) in threads.iter().zip(simulated) {
                assert_eq!((t.str("network"), s.str("network")), ("threads", "flat"));
                assert!(t.keys().all(|k| !k.ends_with("makespan_ns")));
                assert!(s.u64("old_makespan_ns") > 0 && s.u64("new_makespan_ns") > 0);
                for field in [
                    "old_messages",
                    "old_p2p_bytes",
                    "new_messages",
                    "new_p2p_bytes",
                    "old_response_bytes",
                    "new_response_bytes",
                ] {
                    assert_eq!(t.u64(field), s.u64(field), "{}: {field}", s.str("scheme"));
                }
            }
        }
    }

    #[test]
    fn traced_sim_balance_phases_partition_exactly() {
        let (rows, traces) = Scaling {
            bench: "trace_balance",
            mesh: FRACTAL,
            ranks: vec![8],
            runtimes: vec![Runtime::Sim(SimConfig::default())],
            schemes: &[ReversalScheme::Notify],
            variants: &[BalanceVariant::New],
            trace: true,
        }
        .run();
        let trace = &traces[0];
        assert_eq!(trace.ranks.len(), 8);
        assert_eq!(rows[0].bench(), "trace_balance");
        assert!(rows[1..].iter().all(|r| r.bench() == "trace_phase"));
        // The phase spans that tile a rank's `balance` span.
        let phases = [
            "markers",
            "local_balance",
            "query_response",
            "reversal",
            "rebalance",
        ];
        for rt in &trace.ranks {
            // Virtual time only advances inside communication, so the
            // phase spans tile the enclosing balance span with no gaps;
            // the slowest balance span is the reported total, and the
            // merged counters close the row.
            let parts: u64 = phases.iter().map(|n| rt.phase_total_ns(n)).sum();
            assert_eq!(parts, rt.phase_total_ns("balance"), "rank {}", rt.rank);
        }
        if cfg!(feature = "trace") {
            let slowest = trace.ranks.iter().map(|rt| rt.phase_total_ns("balance"));
            assert_eq!(slowest.max(), Some(rows[0].u64("total_ns")));
            assert!(rows[0].u64("balance.query_bytes") > 0);
        }
    }

    #[test]
    fn ripple_ablation_smoke() {
        let rows = ripple_ablation_experiment(&[2, 4], 1, 3);
        for r in &rows {
            assert!(r.u64("ripple_rounds") >= 1);
            assert!(r.u64("ripple_messages") > 0);
        }
    }

    #[test]
    fn weak_scaling_smoke() {
        let rows = Scaling {
            bench: "weak",
            mesh: Mesh::Fractal {
                level: |_| 1,
                spread: 3,
            },
            ranks: vec![1, 2],
            runtimes: vec![Runtime::Threads],
            schemes: &[ReversalScheme::Notify],
            variants: OLD_NEW,
            trace: false,
        }
        .run()
        .0;
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.u64("octants_out") >= r.u64("octants_in"));
            assert!(r.f64("total_speedup") >= 0.05, "sanity");
        }
    }

    #[test]
    fn strong_scaling_smoke() {
        let rows = study(Mesh::IceSheet(ICE), vec![1, 2], vec![Runtime::Threads]);
        // One mesh at every P.
        assert_eq!(rows[0].u64("octants_in"), rows[5].u64("octants_in"));
        assert_eq!(rows[0].u64("octants_out"), rows[5].u64("octants_out"));
        assert_eq!(rows[0].u64("level"), 4);
    }
}
