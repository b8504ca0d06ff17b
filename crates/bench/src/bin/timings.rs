//! `timings` — regenerate the paper's evaluation tables and figures.
//!
//! Named after the p4est `timings` example the paper invokes ("The code
//! to reproduce our results ... can be invoked by the timings example").
//!
//! ```text
//! timings [--exp NAME] [--max-ranks N] [--big] [--threads N] [--trace-out trace.json]
//! ```
//!
//! `NAME` is one of the sections of [`EXPS`] or `all` (an unknown name
//! prints the list). `--threads N` fixes the intra-rank
//! fork-join pool width (`forestbal-par`) for every experiment in the
//! run; the default is `FORESTBAL_THREADS`, else the host's core count.
//! Results are bit-identical at every width by the pool's determinism
//! contract — `--exp kernel` measures and asserts exactly that.
//!
//! Each section prints tables whose rows mirror a figure of the paper
//! (see EXPERIMENTS.md for the mapping and for paper-vs-measured notes)
//! followed by the same rows as machine-readable `BENCH {...}` JSON
//! lines: every table is a projection of those rows through a column
//! list. Absolute times are laptop-scale; shapes are the deliverable.
//!
//! `--exp simscale` and `--exp weakscale` run on the discrete-event
//! simulator at the paper's rank counts and report deterministic
//! *virtual* time. They are not part of `all` — run them explicitly (and
//! in release mode).
//!
//! `--trace-out <path>` (simscale only) additionally runs one traced
//! P = 1024 balance and writes a chrome://tracing / Perfetto trace-event
//! JSON file with one process per simulated rank; see EXPERIMENTS.md for
//! the viewing recipe.

use forestbal_bench::experiments::*;
use forestbal_bench::report::{BenchRecord, Col, Fmt, Table, Value};
use forestbal_forest::{BalanceVariant, ReversalScheme};
use forestbal_mesh::IceSheetParams;
use forestbal_sim::{FatTreeParams, FlatAlphaBeta, NetworkSpec, SimConfig};

// --- Cell formats ----------------------------------------------------

/// Integers and strings as they are.
fn plain(r: &BenchRecord, key: &str) -> String {
    match r.get(key) {
        Value::U64(v) => v.to_string(),
        Value::Str(v) => v.clone(),
        Value::F64(v) => panic!("field {key:?} = {v} needs a float format"),
    }
}

/// A float times `10^E`, with `D` decimals.
fn scaled<const E: i32, const D: usize>(r: &BenchRecord, key: &str) -> String {
    format!("{:.*}", D, r.f64(key) * 10f64.powi(E))
}
const MS: Fmt = scaled::<3, 3>; // of seconds
const US: Fmt = scaled::<6, 1>;
const NS: Fmt = scaled::<9, 1>;

/// An integer over `10^E`, with `D` decimals.
fn over<const E: i32, const D: usize>(r: &BenchRecord, key: &str) -> String {
    format!("{:.*}", D, r.u64(key) as f64 / 10f64.powi(E))
}
const US_OF_NS: Fmt = over::<3, 1>;
const MS_OF_NS: Fmt = over::<6, 3>;
const S_OF_NS: Fmt = over::<9, 4>;

/// A ratio like "3.40x"; "-" where its denominator was zero.
fn times(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.2}x")
    } else {
        "-".to_string()
    }
}

/// A ratio field.
fn ratio(r: &BenchRecord, key: &str) -> String {
    times(r.f64(key))
}

/// A fraction as a whole percentage.
fn percent(r: &BenchRecord, key: &str) -> String {
    format!("{:.0}%", 100.0 * r.f64(key))
}

/// A checksum as 16 hex digits.
fn hex(r: &BenchRecord, key: &str) -> String {
    format!("{:016x}", r.u64(key))
}

/// Integer nanoseconds as seconds per (million octants per rank):
/// Figure 15's y-axis.
fn per_moct_rank(r: &BenchRecord, key: &str) -> String {
    format!(
        "{:.4}",
        r.u64(key) as f64 * 1e-3 / r.f64("octants_per_rank")
    )
}

// --- Tables as column lists ------------------------------------------

/// The tables a section's rows fill, collected in print order.
struct Tables<'r> {
    rows: &'r [BenchRecord],
    out: Vec<Table>,
}

impl Tables<'_> {
    /// The rows of family `bench` through `cols`; no table without such
    /// rows. A non-empty `second` list adds one more table row per record
    /// (a record that fills two).
    fn push2(&mut self, title: &str, bench: &str, cols: &[Col<'_>], second: &[Col<'_>]) {
        let rows = || self.rows.iter().filter(|r| r.bench() == bench);
        if rows().next().is_none() {
            return;
        }
        let mut t = Table::project(title, cols, rows());
        if !second.is_empty() {
            t.extend(second, rows());
        }
        self.out.push(t);
    }

    /// The common case: one table row per record.
    fn push(&mut self, title: &str, bench: &str, cols: &[Col<'_>]) {
        self.push2(title, bench, cols, &[]);
    }

    /// Whether the first row of family `bench` carries field `key`.
    fn has(&self, bench: &str, key: &str) -> bool {
        let first = self.rows.iter().find(|r| r.bench() == bench);
        first.is_some_and(|r| r.keys().any(|k| k == key))
    }

    /// The per-phase tables of a balance study (Figures 15a-e / 17a-e;
    /// the rows of `Scaling`): one table per phase, with the Old → New
    /// factor where the rows compare the variants, then their
    /// query/response volumes. `time` renders a `*_ns` field in `unit`.
    fn phases(&mut self, study: &str, bench: &str, unit: &str, time: Fmt) {
        let compare = self.has(bench, "old_total_ns");
        let prefixes: &[&str] = if compare { &["old_", "new_"] } else { &[""] };
        let heads: Vec<String> = prefixes
            .iter()
            .map(|p| format!("{}{unit}", p.replace('_', " ")))
            .collect();
        let mut point = vec![
            Col::new("P", "ranks", plain),
            Col::new("level", "level", plain),
            Col::new("net", "network", plain),
            Col::new("scheme", "scheme", plain),
            Col::new("oct/rank", "octants_per_rank", scaled::<0, 0>),
        ];
        for (name, phase) in [
            ("Full one-pass algorithm", "total"),
            ("Local balance", "local_balance"),
            ("Query and Response", "query_response"),
            ("Local rebalance", "rebalance"),
            ("Notify/reversal", "reversal"),
        ] {
            let keys: Vec<String> = prefixes.iter().map(|p| format!("{p}{phase}_ns")).collect();
            let speedup = format!("{phase}_speedup");
            let mut cols = point.clone();
            cols.extend(heads.iter().zip(&keys).map(|(h, k)| Col::new(h, k, time)));
            if compare {
                cols.push(Col::new("speedup", &speedup, ratio));
            }
            self.push(&format!("{study}: {name}"), bench, &cols);
        }
        if compare {
            // The paper's "much reduced communication volume" claim for
            // seed responses.
            point.extend([
                Col::new("old query B", "old_query_bytes", plain),
                Col::new("old resp B", "old_response_bytes", plain),
                Col::new("new query B", "new_query_bytes", plain),
                Col::new("new resp B", "new_response_bytes", plain),
                Col::new("resp reduction", "response_reduction", ratio),
            ]);
            let title = format!("{study}: query/response volume (cluster totals)");
            self.push(&title, bench, &point);
        }
    }

    /// A reversal study's rows (§V; see `reversal_experiment`).
    fn reversal(&mut self, title: &str, bench: &str) {
        let mut cols = vec![
            Col::new("P", "ranks", plain),
            Col::new("net", "network", plain),
            Col::new("scheme", "scheme", plain),
        ];
        if self.has(bench, "makespan_ns") {
            cols.push(Col::new("makespan µs", "makespan_ns", US_OF_NS));
        }
        cols.extend([
            Col::new("reversal µs", "reversal_ns", US_OF_NS),
            Col::new("p2p msgs", "messages", plain),
            Col::new("p2p B", "p2p_bytes", plain),
            Col::new("coll B", "collective_bytes", plain),
        ]);
        self.push(title, bench, &cols);
    }
}

/// Every table `rows` fill, in print order.
fn tables(rows: &[BenchRecord]) -> Vec<Table> {
    let mut t = Tables {
        rows,
        out: Vec::new(),
    };
    t.push(
        "Serial subtree balance, 3D corner balance",
        "subtree",
        &[
            Col::new("input", "input_len", plain),
            Col::new("output", "output_len", plain),
            Col::new("old s", "old_s", scaled::<0, 4>),
            Col::new("new s", "new_s", scaled::<0, 4>),
            Col::new("speedup", "speedup", ratio),
            Col::new("hash q old", "old_hash_queries", plain),
            Col::new("hash q new", "new_hash_queries", plain),
            Col::new("sort old", "old_sorted_len", plain),
            Col::new("sort new", "new_sorted_len", plain),
        ],
    );
    t.push(
        "Octant sort: struct comparison vs packed radix (µs per sort)",
        "kernel",
        &[
            Col::new("input", "input_len", plain),
            Col::new("struct", "sort_struct_s", US),
            Col::new("radix", "sort_radix_s", US),
            Col::new("speedup", "radix_speedup", ratio),
            Col::new("presorted", "sort_presorted_s", US),
            Col::new("passes", "radix_passes", plain),
        ],
    );
    t.push(
        "Octant membership: the open-addressing table",
        "kernel",
        &[
            Col::new("input", "input_len", plain),
            Col::new("build µs", "table_build_s", US),
            Col::new("query ns", "table_query_s", NS),
            Col::new("probes/op", "table_probes_per_op", scaled::<0, 2>),
            Col::new("grows", "table_grows", plain),
        ],
    );
    t.push(
        "Morton indices from a struct octant: coordinates vs packed key (ns per octant)",
        "kernel",
        &[
            Col::new("input", "input_len", plain),
            Col::new("interleave", "interleave_struct_ns", scaled::<0, 1>),
            Col::new("pack+index", "interleave_packed_ns", scaled::<0, 1>),
            Col::new("deinterleave", "deinterleave_struct_ns", scaled::<0, 1>),
            Col::new("unpack", "deinterleave_packed_ns", scaled::<0, 1>),
            Col::new("index range", "index_struct_ns", scaled::<0, 1>),
            Col::new("pack+range", "index_packed_ns", scaled::<0, 1>),
        ],
    );
    t.push(
        "New-kernel subtree balance end to end: fresh vs reused scratch, struct wrapper vs keys (µs)",
        "kernel",
        &[
            Col::new("input", "input_len", plain),
            Col::new("fresh", "balance_fresh_s", US),
            Col::new("scratch", "balance_scratch_s", US),
            Col::new("keys", "balance_keys_s", US),
        ],
    );
    // One `kernel_par` row fills two table rows, one per kernel.
    t.push2(
        "Deterministic pooled kernels (ms, best of reps; identical output checked)",
        "kernel_par",
        &[
            Col::new("kernel", "", |_, _| "radix key sort".into()),
            Col::new("input", "keys", plain),
            Col::new("serial", "sort_serial_s", MS),
            Col::new("pooled", "sort_par_s", MS),
            Col::new("speedup", "par_radix_speedup", ratio),
            Col::new("checksum", "", |_, _| "= serial".into()),
        ],
        &[
            Col::new("kernel", "", |_, _| "one-pass balance".into()),
            Col::new("input", "octants_out", plain),
            Col::new("serial", "balance_serial_s", MS),
            Col::new("pooled", "balance_par_s", MS),
            Col::new("speedup", "par_balance_speedup", ratio),
            Col::new("checksum", "forest_checksum", hex),
        ],
    );
    t.push(
        "Wire codec: fixed-width packed keys with tree-run framing",
        "kernel_wire",
        &[
            Col::new("dim", "dim", plain),
            Col::new("key bytes", "key_bytes", plain),
            Col::new("octants", "octants", plain),
            Col::new("runs", "runs", plain),
            Col::new("wire bytes", "wire_bytes", plain),
            Col::new("bytes/oct", "bytes_per_octant", scaled::<0, 2>),
            Col::new("encode µs", "encode_s", US),
            Col::new("decode µs", "decode_s", US),
            Col::new("checksum", "forest_checksum", hex),
        ],
    );
    t.push(
        "T_k(o) ∩ r reconstruction: auxiliary cascade vs seeds",
        "seeds",
        &[
            Col::new("scale levels", "scale_levels", plain),
            Col::new("overlap", "overlap_len", plain),
            Col::new("seeds", "seed_count", plain),
            Col::new("old s", "old_s", scaled::<0, 6>),
            Col::new("new s", "new_s", scaled::<0, 6>),
            Col::new("speedup", "speedup", ratio),
        ],
    );
    t.push(
        "Balance decision per pair: ripple oracle vs λ (Table II)",
        "decision",
        &[
            Col::new("pairs", "pairs", plain),
            Col::new("unbalanced", "unbalanced", plain),
            Col::new("oracle ns", "oracle_ns_per_pair", scaled::<0, 1>),
            Col::new("λ ns", "lambda_ns_per_pair", scaled::<0, 1>),
            Col::new("speedup", "speedup", ratio),
        ],
    );
    t.reversal("Reversal schemes: time and data moved", "notify");
    t.phases("Weak scaling", "weak", "s/(Moct/rank)", per_moct_rank);
    t.phases("Strong scaling", "strong", "seconds", S_OF_NS);
    // The perfect-scaling reference of Figure 17.
    t.push(
        "Strong scaling: parallel efficiency (new algorithm)",
        "strong",
        &[
            Col::new("P", "ranks", plain),
            Col::new("new seconds", "new_total_ns", S_OF_NS),
            Col::new("perfect", "perfect_s", scaled::<0, 4>),
            Col::new("efficiency", "efficiency", percent),
        ],
    );
    t.push(
        "One-pass vs multi-round ripple, fractal forest",
        "ripple",
        &[
            Col::new("P", "ranks", plain),
            Col::new("one-pass s", "one_pass_s", scaled::<0, 4>),
            Col::new("ripple s", "ripple_s", scaled::<0, 4>),
            Col::new("ripple rounds", "ripple_rounds", plain),
            Col::new("one-pass msgs", "one_pass_messages", plain),
            Col::new("ripple msgs", "ripple_messages", plain),
        ],
    );
    t.push(
        "Commit cost of one clustered edit, best of reps (ms, cluster max)",
        "local",
        &[
            Col::new("mesh", "mesh", plain),
            Col::new("leaves", "leaves", plain),
            Col::new("dirty", "dirty_global", plain),
            Col::new("dirty %", "dirty_frac", scaled::<2, 3>),
            Col::new("full", "full_s", MS),
            Col::new("incremental", "incremental_s", MS),
            Col::new("speedup", "speedup", ratio),
            Col::new("rounds", "rounds", plain),
            Col::new("splits", "splits", plain),
        ],
    );
    t.push(
        "Service latency, log2-bucket upper bounds (µs; count across ranks)",
        "local",
        &[
            Col::new("mesh", "mesh", plain),
            Col::new("dirty %", "dirty_frac", scaled::<2, 3>),
            Col::new("locate n", "point_locate_n", plain),
            Col::new("locate p50", "point_locate_p50_ns", US_OF_NS),
            Col::new("locate p99", "point_locate_p99_ns", US_OF_NS),
            Col::new("neighbor n", "neighbor_query_n", plain),
            Col::new("neighbor p50", "neighbor_query_p50_ns", US_OF_NS),
            Col::new("neighbor p99", "neighbor_query_p99_ns", US_OF_NS),
            Col::new("commit n", "commit_n", plain),
            Col::new("commit p50", "commit_p50_ns", US_OF_NS),
            Col::new("commit p99", "commit_p99_ns", US_OF_NS),
        ],
    );
    t.reversal("Reversal schemes at scale (virtual time)", "sim_reversal");
    t.phases("Simulated scaling", "sim_balance", "virtual ms", MS_OF_NS);
    t.push(
        "Traced balance: per-phase spans across ranks (µs)",
        "trace_phase",
        &[
            Col::new("phase", "phase", plain),
            Col::new("ranks", "ranks", plain),
            Col::new("spans", "spans", plain),
            Col::new("min", "min_ns", US_OF_NS),
            Col::new("median", "median_ns", US_OF_NS),
            Col::new("max", "max_ns", US_OF_NS),
        ],
    );
    t.phases(
        "Paper-scale weak scaling",
        "weakscale",
        "virtual ms",
        MS_OF_NS,
    );
    t.out
}

// --- Sections ----------------------------------------------------------

/// What the command line selected besides the section.
struct Opts {
    max_ranks: Option<usize>,
    big: bool,
    trace_out: Option<String>,
}

impl Opts {
    /// Largest threaded rank count: `--max-ranks`, or 8.
    fn ranks(&self) -> usize {
        self.max_ranks.unwrap_or(8)
    }
}

/// One section of output: a heading and the experiment behind it.
struct Exp {
    /// The `--exp` value that runs this section.
    name: &'static str,
    /// Other `--exp` values that include it.
    groups: &'static [&'static str],
    heading: &'static str,
    /// Run at the sizes `Opts` selects (printing any notes that belong
    /// under the heading) and return the rows.
    run: fn(&Opts) -> Vec<BenchRecord>,
}

/// Every section, in `--exp all` order. Large simulated rank counts are
/// only sensible in release builds, so `simscale` and `weakscale` are
/// deliberately not part of `all`.
const EXPS: &[Exp] = &[
    Exp {
        name: "subtree",
        groups: &["all"],
        heading: "Subtree balance (Section III, Figures 6-8): old vs new",
        run: |o| subtree_experiment(kernel_sizes(o)),
    },
    Exp {
        name: "kernel",
        groups: &["all"],
        heading: "Packed-key kernels: radix sort, octant table, scratch reuse",
        run: |o| kernel_experiment(kernel_sizes(o)),
    },
    // Serial vs pooled hot kernels on one rank, with bit-identity
    // asserted inside the run. The speedup columns only mean something
    // on a multi-core host; the checksum column is meaningful anywhere
    // and is what the CI `par-matrix` job compares across thread counts.
    Exp {
        name: "kernel",
        groups: &["all"],
        heading: "Intra-rank parallelism: pooled kernels vs one thread",
        run: |o| {
            let rows = par_kernel_experiment(250_000, if o.big { 3 } else { 2 }, 4);
            println!(
                "pool width: {} thread(s) (set with --threads N or FORESTBAL_THREADS)",
                rows[0].u64("threads")
            );
            rows
        },
    },
    // Cheap enough to run alone in CI, which compares the emitted forest
    // checksums across default and `--no-default-features` (trace
    // elided) builds and across pool widths.
    Exp {
        name: "wire",
        groups: &["kernel", "all"],
        heading: "Packed wire format: bytes per octant and codec throughput",
        run: |_| wire_experiment(),
    },
    Exp {
        name: "seeds",
        groups: &["all"],
        heading: "Balancing remote octants (Section IV, Figures 4b/9)",
        run: |_| {
            let depths: Vec<u8> = (4..=12).step_by(2).collect();
            let mut rows = seeds_distance_experiment(&depths, 20);
            rows.extend(decision_experiment());
            rows
        },
    },
    Exp {
        name: "notify",
        groups: &["all"],
        heading: "Pattern reversal (Section V, Figures 12/13/15e)",
        run: |o| {
            // Powers of two from 4, plus non-powers-of-two like the
            // paper's 12-core nodes.
            let max_ranks = o.ranks().max(16);
            let mut ranks: Vec<usize> = powers_of_two(4, max_ranks)
                .into_iter()
                .flat_map(|p| [p, p * 3 / 2])
                .filter(|&p| p <= max_ranks)
                .collect();
            ranks.sort_unstable();
            reversal_experiment("notify", Runtime::Threads, &ranks, &SCHEMES, 4)
        },
    },
    Exp {
        name: "weak",
        groups: &["all"],
        heading: "Weak scaling (Figures 14/15): fractal forest, corner balance",
        run: |o| {
            let level: fn(usize) -> u8 = if o.big {
                |p| weak_level(p) + 1
            } else {
                weak_level
            };
            // Spread 4: the paper's four levels of size difference.
            threaded("weak", Mesh::Fractal { level, spread: 4 }, o)
        },
    },
    Exp {
        name: "strong",
        groups: &["all"],
        heading: "Strong scaling (Figures 16/17): synthetic ice sheet, corner balance",
        run: |o| {
            let (n, max_level) = if o.big { (8, 7) } else { (4, 5) };
            let params = IceSheetParams {
                nx: n,
                ny: n,
                max_level,
                ..IceSheetParams::default()
            };
            let rows = perfect_scaling(threaded("strong", Mesh::IceSheet(params), o));
            println!(
                "mesh: {} -> {} octants after balance (paper: 55M -> 85M on Antarctica)",
                rows[0].u64("octants_in"),
                rows[0].u64("octants_out")
            );
            rows
        },
    },
    Exp {
        name: "ripple",
        groups: &["all"],
        heading: "Ripple baseline ablation (Section II-B)",
        run: |o| ripple_ablation_experiment(&powers_of_two(2, o.ranks()), 2, 4),
    },
    // Full vs incremental commit of the same clustered batch at dirty
    // fractions of ~0.1%, 1%, 10%, 20% and 40%, plus service request latency
    // histograms (the committed snapshot is `BENCH_local.json`; see
    // EXPERIMENTS.md for the regeneration recipe).
    Exp {
        name: "local",
        groups: &["all"],
        heading: "Incremental epoch commit: full balance vs incremental rebalance",
        run: |o| {
            let p = o.ranks().min(4);
            println!("P = {p} threaded ranks");
            // (6, 6) is the default ice sheet.
            let (fractal_level, n, max_level) = if o.big { (3, 8, 7) } else { (2, 6, 6) };
            let ice = IceSheetParams {
                nx: n,
                ny: n,
                max_level,
                ..IceSheetParams::default()
            };
            local_experiment(p, 3, (fractal_level, 4), ice)
        },
    },
    Exp {
        name: "simscale",
        groups: &[],
        heading: "Simulated scaling (discrete-event, virtual time)",
        run: run_simscale,
    },
    Exp {
        name: "weakscale",
        groups: &[],
        heading: "Paper-scale virtual weak scaling (discrete-event, virtual time)",
        run: |o| {
            println!(
                "one-pass balance (new variant) on the fractal forest; networks: \
                 flat α-β vs fat tree with per-link contention"
            );
            // The paper's Figure 15 runs on Jaguar at up to 112,128 cores;
            // the default list stops at 32k so mid-size machines finish in
            // minutes, and `--big` adds the full-machine point.
            // `--max-ranks` caps the list (CI smoke runs only the small
            // points); unlike the threaded experiments the default is the
            // full list, not the host's core count.
            let ranks: Vec<usize> = [1024, 8192, 32768, 112_128]
                .into_iter()
                .filter(|&p| o.big || p <= 32768)
                .filter(|&p| o.max_ranks.is_none_or(|max| p <= max))
                .collect();
            // Small fiber stacks keep the P = 112k reservation modest.
            let cfg = SimConfig::builder().stack_size(256 << 10);
            let fattree = NetworkSpec::FatTree(FatTreeParams::default());
            let weakscale = Scaling {
                bench: "weakscale",
                // The smallest base level whose 6·8^level octants give
                // every rank one: ~20-150 octants per rank after the
                // refinement keep the P = 112,128 point tractable.
                mesh: Mesh::Fractal {
                    level: |p| (1..).find(|&l| 6u128 << (3 * l) >= p as u128).unwrap() as u8,
                    spread: 2,
                },
                ranks,
                runtimes: [NetworkSpec::Flat, fattree]
                    .map(|network| Runtime::Sim(cfg.network(network).build()))
                    .to_vec(),
                // Ranges with at most 4 ranges per rank, unlike the 25 of
                // the other sections (`BENCH_weakscale.json` pins it).
                schemes: &[
                    ReversalScheme::Naive,
                    ReversalScheme::Ranges(4),
                    ReversalScheme::Notify,
                ],
                variants: &[BalanceVariant::New],
                trace: false,
            };
            weakscale.run().0
        },
    },
];

/// The reversal schemes of §V; Ranges encodes at most 25 ranges per rank.
const SCHEMES: [ReversalScheme; 3] = [
    ReversalScheme::Naive,
    ReversalScheme::Ranges(25),
    ReversalScheme::Notify,
];
const OLD_NEW: [BalanceVariant; 2] = [BalanceVariant::Old, BalanceVariant::New];

/// Base level of a `weak` point: one level per 8x ranks keeps
/// octants/rank roughly constant (`--big` starts one level finer).
fn weak_level(p: usize) -> u8 {
    2 + (p.ilog2() as u8).div_ceil(3)
}

/// An Old-vs-New study of `mesh` under Notify on 1, 2, 4, ... threaded
/// ranks (Figures 15 and 17).
fn threaded(bench: &'static str, mesh: Mesh, o: &Opts) -> Vec<BenchRecord> {
    let study = Scaling {
        bench,
        mesh,
        ranks: powers_of_two(1, o.ranks()),
        runtimes: vec![Runtime::Threads],
        schemes: &[ReversalScheme::Notify],
        variants: &OLD_NEW,
        trace: false,
    };
    study.run().0
}

/// Figure 17's red line: `perfect_s` is `T(P) = T(P₀) · P₀ / P` for the
/// new algorithm from the first row, and `efficiency` its ratio to the
/// measured time.
fn perfect_scaling(rows: Vec<BenchRecord>) -> Vec<BenchRecord> {
    let seconds = |r: &BenchRecord| r.u64("new_total_ns") as f64 * 1e-9;
    let work = seconds(&rows[0]) * rows[0].u64("ranks") as f64;
    let with_reference = |r: BenchRecord| {
        let perfect = work / r.u64("ranks") as f64;
        let efficiency = perfect / seconds(&r);
        r.f("perfect_s", perfect).f("efficiency", efficiency)
    };
    rows.into_iter().map(with_reference).collect()
}

/// Input sizes of the serial kernel studies.
fn kernel_sizes(o: &Opts) -> &'static [usize] {
    if o.big {
        &[1_000, 10_000, 100_000, 400_000]
    } else {
        &[500, 5_000, 50_000]
    }
}

/// `from, 2·from, 4·from, ...` up to `max`.
fn powers_of_two(from: usize, max: usize) -> Vec<usize> {
    std::iter::successors(Some(from), |p| Some(p * 2))
        .take_while(|&p| p <= max)
        .collect()
}

/// Reversal curves at the paper's §V scale (pure communication, cheap
/// even at 16k simulated ranks), then the full one-pass balance for
/// every variant × scheme: the fractal workload is per-rank local, so
/// the mesh grows with P and per-rank work stays bounded. With
/// `--trace-out`, one more P = 1024 balance (new variant, Notify) runs
/// with per-rank recording and is exported as chrome-trace JSON.
fn run_simscale(o: &Opts) -> Vec<BenchRecord> {
    let sim = Runtime::Sim(SimConfig::default());
    println!(
        "cost model: α = {} ns, β = {} ns/B, collectives ⌈log2 P⌉·α + β·bytes",
        FlatAlphaBeta::LATENCY_NS,
        FlatAlphaBeta::NS_PER_BYTE
    );
    let ranks = if o.big {
        vec![1024, 4096, 16384]
    } else {
        vec![1024, 4096]
    };
    let mut rows = reversal_experiment("sim_reversal", sim, &ranks, &SCHEMES, 4);
    let balance = Scaling {
        bench: "sim_balance",
        mesh: Mesh::Fractal {
            level: |_| 2,
            spread: 3,
        },
        ranks,
        runtimes: vec![sim],
        schemes: &SCHEMES,
        variants: &OLD_NEW,
        trace: false,
    };
    rows.extend(balance.run().0);

    if let Some(path) = &o.trace_out {
        let (traced, traces) = Scaling {
            bench: "trace_balance",
            ranks: vec![1024],
            schemes: &[ReversalScheme::Notify],
            variants: &[BalanceVariant::New],
            trace: true,
            ..balance
        }
        .run();
        let json = traces[0].chrome_trace_json();
        forestbal_trace::validate_json(&json).expect("exporter must emit valid JSON");
        std::fs::write(path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!(
            "wrote {path}: {} ranks, {} bytes (open in https://ui.perfetto.dev)",
            traces[0].ranks.len(),
            json.len()
        );
        rows.extend(traced);
    }
    rows
}

/// The sections `--exp exp` runs (none for an unknown name).
fn sections(exp: &str) -> Vec<&'static Exp> {
    EXPS.iter()
        .filter(|e| e.name == exp || e.groups.contains(&exp))
        .collect()
}

fn usage() -> String {
    let mut names: Vec<&str> = EXPS.iter().map(|e| e.name).collect();
    names.dedup();
    format!(
        "usage: timings [--exp {}|all] [--max-ranks N] [--threads N] [--big] [--trace-out trace.json]",
        names.join("|")
    )
}

fn fail(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2);
}

fn main() {
    let mut exp = "all".to_string();
    let mut opts = Opts {
        max_ranks: None,
        big: false,
        trace_out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .unwrap_or_else(|| fail(&format!("{flag} requires {what}")))
        };
        match flag.as_str() {
            "--exp" => exp = value("a value"),
            "--trace-out" => opts.trace_out = Some(value("a path")),
            "--big" => opts.big = true,
            "--threads" => {
                let n = value("an integer >= 1").parse().unwrap_or(0);
                if n == 0 {
                    fail("--threads requires an integer >= 1");
                }
                if !forestbal_par::set_global_threads(n) {
                    fail("--threads: pool already initialized");
                }
            }
            "--max-ranks" => {
                let parsed = value("an integer").parse();
                let n = parsed.unwrap_or_else(|_| fail("--max-ranks requires an integer"));
                opts.max_ranks = Some(n);
            }
            other => fail(&format!("unknown argument {other}\n{}", usage())),
        }
    }
    let selected = sections(&exp);
    if selected.is_empty() {
        fail(&format!("unknown experiment {exp}\n{}", usage()));
    }
    if opts.trace_out.is_some() && exp != "simscale" {
        fail("--trace-out only applies to --exp simscale");
    }
    // Each section: heading, notes, every table its rows fill, then the
    // rows themselves as `BENCH` lines.
    for e in selected {
        println!("\n#### {}", e.heading);
        let rows = (e.run)(&opts);
        for t in tables(&rows) {
            t.print();
        }
        for r in &rows {
            r.emit();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ICE: IceSheetParams = IceSheetParams {
        nx: 2,
        ny: 2,
        base_level: 1,
        max_level: 4,
        seed: 1,
    };

    /// A study of the smallest fractal forest at P = 4: New under Notify
    /// if `one`, else every scheme, Old vs New.
    fn small(
        bench: &'static str,
        runtimes: Vec<Runtime>,
        one: bool,
        trace: bool,
    ) -> Vec<BenchRecord> {
        let (schemes, variants): (&[_], &[_]) = if one {
            (&[ReversalScheme::Notify], &[BalanceVariant::New])
        } else {
            (&SCHEMES, &OLD_NEW)
        };
        let mesh = Mesh::Fractal {
            level: |_| 1,
            spread: 2,
        };
        let ranks = vec![4];
        Scaling {
            bench,
            mesh,
            ranks,
            runtimes,
            schemes,
            variants,
            trace,
        }
        .run()
        .0
    }

    /// Every experiment at its smallest size.
    fn smallest_rows() -> Vec<BenchRecord> {
        let sim = Runtime::Sim(SimConfig::default());
        let fattree = NetworkSpec::FatTree(FatTreeParams::default());
        let fattree = Runtime::Sim(SimConfig::builder().network(fattree).build());
        let strong = Scaling {
            bench: "strong",
            mesh: Mesh::IceSheet(ICE),
            ranks: vec![1],
            runtimes: vec![Runtime::Threads],
            schemes: &[ReversalScheme::Notify],
            variants: &OLD_NEW,
            trace: false,
        };
        [
            subtree_experiment(&[400]),
            kernel_experiment(&[2000]),
            par_kernel_experiment(2_000, 1, 2),
            wire_experiment(),
            seeds_distance_experiment(&[5], 1),
            decision_experiment(),
            reversal_experiment("notify", Runtime::Threads, &[4], &SCHEMES, 2),
            small("weak", vec![Runtime::Threads], false, false),
            perfect_scaling(strong.run().0),
            ripple_ablation_experiment(&[2], 1, 3),
            local_experiment(1, 1, (1, 2), ICE),
            reversal_experiment("sim_reversal", sim, &[8], &SCHEMES, 3),
            small("sim_balance", vec![sim], false, false),
            small("trace_balance", vec![sim], true, true),
            small("weakscale", vec![sim, fattree], true, false),
        ]
        .concat()
    }

    /// Field names of one `BENCH` JSON object, in order. Enough of a
    /// parser for rows whose string values hold no `,"`.
    fn json_keys(line: &str) -> Vec<&str> {
        let body = line.trim().trim_start_matches('{').trim_end_matches('}');
        body.split(",\"")
            .map(|field| {
                let (key, _) = field.split_once("\":").expect("a \"key\":value field");
                key.trim_start_matches('"')
            })
            .collect()
    }

    /// The schema pin: every section's tables render from the rows its
    /// experiments return (a misspelt column key panics here), every row
    /// is valid JSON, and the committed snapshots' field lists are
    /// reproduced name for name, in order.
    #[test]
    fn every_table_renders_and_committed_schemas_hold() {
        let rows = smallest_rows();
        // A table whose family name matches no row would silently vanish.
        // The `trace_phase` table needs recorded spans.
        let want = if cfg!(feature = "trace") { 39 } else { 38 };
        assert_eq!(tables(&rows).len(), want, "a table found no rows");
        assert!(tables(&rows[..1]).len() == 1 && tables(&[]).is_empty());
        for r in &rows {
            let json = r.json();
            forestbal_trace::validate_json(&json).unwrap_or_else(|e| panic!("{json}: {e}"));
            assert_eq!(json_keys(&json), r.keys().collect::<Vec<_>>());
        }

        let committed = [
            include_str!("../../../../BENCH_kernel.json"),
            include_str!("../../../../BENCH_local.json"),
            include_str!("../../../../BENCH_weakscale.json"),
        ];
        let mut pinned = Vec::new();
        for line in committed.iter().flat_map(|file| file.lines()) {
            let want = json_keys(line);
            let bench = line.split('"').nth(3).expect("a \"bench\":\"name\" head");
            let row = rows
                .iter()
                .find(|r| r.bench() == bench)
                .unwrap_or_else(|| panic!("no experiment emits {bench:?} rows"));
            assert_eq!(row.keys().collect::<Vec<_>>(), want, "{bench}");
            pinned.push(bench);
        }
        pinned.dedup();
        assert_eq!(
            pinned,
            ["kernel", "kernel_par", "kernel_wire", "local", "weakscale"]
        );
    }

    #[test]
    fn ratio_handles_zero() {
        assert_eq!(times(f64::INFINITY), "-");
        assert_eq!(times(f64::NAN), "-");
        assert_eq!(times(3.5), "3.50x");
        let row = |den: f64| BenchRecord::new("wire").f("response_reduction", 7.0 / den);
        assert_eq!(ratio(&row(2.0), "response_reduction"), "3.50x");
        assert_eq!(ratio(&row(0.0), "response_reduction"), "-");
    }

    #[test]
    fn exp_names_select_sections() {
        let selected = |exp: &str| -> Vec<&str> {
            sections(exp)
                .iter()
                .map(|e| e.heading.split([':', ' ']).next().unwrap())
                .collect()
        };
        assert_eq!(selected("wire"), ["Packed"]);
        assert_eq!(selected("kernel"), ["Packed-key", "Intra-rank", "Packed"]);
        assert_eq!(selected("all").len(), EXPS.len() - 2);
        assert!(selected("nope").is_empty());
        assert!(usage().contains("|simscale|weakscale|all]"));
    }

    #[test]
    fn strong_rows_carry_the_perfect_scaling_line() {
        let rows = perfect_scaling(vec![
            BenchRecord::new("strong")
                .u("ranks", 1)
                .u("new_total_ns", 8_000),
            BenchRecord::new("strong")
                .u("ranks", 2)
                .u("new_total_ns", 5_000),
        ]);
        // The first point defines the line.
        assert_eq!(rows[0].f64("efficiency"), 1.0);
        assert_eq!(rows[1].f64("perfect_s"), rows[0].f64("perfect_s") / 2.0);
        assert!((rows[1].f64("efficiency") - 0.8).abs() < 1e-12);
    }

    /// The `weakscale` preset at P = 1024 reproduces the committed
    /// snapshot's six rows byte for byte: virtual time is deterministic.
    /// About 5 s in release.
    #[test]
    #[ignore]
    fn weakscale_p1024_rows_equal_the_committed_snapshot() {
        let opts = Opts {
            max_ranks: Some(1024),
            big: false,
            trace_out: None,
        };
        let got: Vec<String> = (sections("weakscale")[0].run)(&opts)
            .iter()
            .map(BenchRecord::json)
            .collect();
        let want: Vec<&str> = include_str!("../../../../BENCH_weakscale.json")
            .lines()
            .filter(|l| l.contains("\"ranks\":1024,"))
            .collect();
        assert_eq!(want.len(), 6);
        assert_eq!(got, want);
    }
}
