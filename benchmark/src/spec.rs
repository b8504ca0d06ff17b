//! The fixed names of the benchmark: workloads, end-to-end metrics with
//! their regression bounds, and per-layer metrics. `BENCHMARK.json` at the
//! repository root is generated from these tables (`--emit-spec`) and a
//! unit test keeps the two equal.

use crate::json::Json;

/// Seconds one run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 20;

/// Default workload seed (the paper's year).
pub const DEFAULT_SEED: u64 = 2012;

pub struct WorkloadSpec {
    pub name: &'static str,
    /// One line: why this workload exists and what runs (repetition
    /// counts are whatever fits `--seconds`; sizes are fixed).
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "fractal_ranks",
        why: "Paper Fig. 14/15 fractal forest, 2 ranks, 1.9M leaves out of cache: compute-bound New balance at level 3 and the Old baseline at level 2; octant and core do most of the work.",
    },
    WorkloadSpec {
        name: "ice_cycle",
        why: "Paper Fig. 16/17 ice sheet, 2 ranks, 152k leaves in cache: AMR cycle balance, partition, ghost, nodes; the only workload where ghost and nodes do most of the work.",
    },
    WorkloadSpec {
        name: "service_front",
        why: "ForestService on a 3x2x1 brick at level 5 with a moving front, 4% dirty: incremental commit beside snapshot queries, full balance bypassed.",
    },
    WorkloadSpec {
        name: "sim_notify",
        why: "Simulator at P=1024 with 66 leaves per rank (paper section V regime): per-rank fixed costs, reversal, wire codec, collectives and the scheduler dominate; subtree kernels bypassed.",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> EndToEnd {
    EndToEnd { name, unit, bound }
}

/// Lower is better for every end-to-end metric. The bounds are what this
/// machine resolves, not what ISSUE 12 hoped for (8% to 15%): between two
/// sets of ten runs the box itself drifts by 10% or more, single-threaded
/// runs included (README, "Measured spread").
pub const END_TO_END: [EndToEnd; 10] = [
    e2e("setup_s", "s", 0.25),
    e2e("balance_s", "s", 0.25),
    e2e("balance_old_s", "s", 0.25),
    e2e("cycle_s", "s", 0.25),
    e2e("ghost_s", "s", 0.25),
    e2e("nodes_s", "s", 0.25),
    e2e("commit_s", "s", 0.25),
    e2e("commit_p90_s", "s", 0.25),
    e2e("query_ns", "ns", 0.25),
    e2e("peak_rss_mb", "MB", 0.10),
];

/// How the repetitions of a per-layer series become one value.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Busy time or a ratio of times: the median of the repetitions.
    Measured,
    /// A count that is the same in every repetition.
    Count,
    /// A per-epoch count: the sum over the traced epochs.
    EpochCount,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub kind: Kind,
    pub higher_is_better: bool,
}

impl PerLayer {
    /// An exact count: must repeat bit-for-bit between two traced runs of
    /// the same workload and seed.
    pub fn exact(&self) -> bool {
        self.kind != Kind::Measured
    }
}

const fn layer(name: &'static str, unit: &'static str, kind: Kind) -> PerLayer {
    PerLayer {
        name,
        unit,
        kind,
        higher_is_better: false,
    }
}

const fn time(name: &'static str, unit: &'static str) -> PerLayer {
    layer(name, unit, Kind::Measured)
}

const fn count(name: &'static str, unit: &'static str) -> PerLayer {
    layer(name, unit, Kind::Count)
}

const fn per_epoch(name: &'static str) -> PerLayer {
    layer(name, "count", Kind::EpochCount)
}

const fn speedup(name: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "x",
        kind: Kind::Measured,
        higher_is_better: true,
    }
}

/// Layers are the crates. `ticks` are virtual nanoseconds of the
/// simulator clock: exact, not wall time.
pub const PER_LAYER: [PerLayer; 71] = [
    // octant
    time("octant.sort_keys_s", "s"),
    count("octant.sort_keys_n", "count"),
    count("octant.radix_passes", "count"),
    time("octant.table_build_s", "s"),
    time("octant.table_query_ns", "ns"),
    count("octant.table_probes_per_op", "count"),
    time("octant.pack_batch_s", "s"),
    time("octant.unpack_batch_s", "s"),
    time("octant.linearize_s", "s"),
    // core
    time("core.subtree_new_s", "s"),
    time("core.subtree_old_s", "s"),
    count("core.subtree_new_hash_queries", "count"),
    count("core.subtree_old_hash_queries", "count"),
    count("core.subtree_new_sorted_len", "count"),
    count("core.subtree_old_sorted_len", "count"),
    count("core.subtree_output_len", "count"),
    time("core.pair_decision_ns", "ns"),
    time("core.find_seeds_ns", "ns"),
    time("core.reconstruct_s", "s"),
    count("core.seeds_per_query", "count"),
    // par
    time("par.dispatch_ns", "ns"),
    speedup("par.sort_speedup_w2"),
    speedup("par.balance_speedup_w2"),
    // comm
    count("comm.messages", "count"),
    count("comm.p2p_bytes", "B"),
    count("comm.collective_calls", "count"),
    count("comm.collective_bytes", "B"),
    count("comm.notify_messages", "count"),
    count("comm.reversal_virtual_ns.naive", "ticks"),
    count("comm.reversal_virtual_ns.ranges", "ticks"),
    count("comm.reversal_virtual_ns.notify", "ticks"),
    // forest
    time("forest.local_balance_s", "s"),
    time("forest.reversal_s", "s"),
    time("forest.query_response_s", "s"),
    time("forest.rebalance_s", "s"),
    time("forest.phase_gap_frac", "frac"),
    count("forest.query_bytes", "B"),
    count("forest.response_bytes", "B"),
    count("forest.qr_messages", "count"),
    time("forest.partition_s", "s"),
    count("forest.ghost_len", "count"),
    count("forest.nodes_hanging", "count"),
    count("forest.nodes_independent", "count"),
    time("forest.codec_encode_s", "s"),
    time("forest.codec_decode_s", "s"),
    count("forest.codec_bytes_per_octant", "B"),
    time("forest.apply_edits_s", "s"),
    time("forest.balance_incremental_s", "s"),
    per_epoch("forest.incremental_rounds"),
    per_epoch("forest.incremental_splits"),
    per_epoch("forest.incremental_sent_leaves"),
    count("forest.octants_in", "count"),
    count("forest.octants_out", "count"),
    // mesh
    time("mesh.fractal_generate_s", "s"),
    time("mesh.ice_generate_s", "s"),
    // sim
    count("sim.makespan_ns", "ticks"),
    time("sim.spawn_s", "s"),
    time("sim.host_us_per_rank", "us"),
    count("sim.fattree_link_waits", "count"),
    count("sim.fattree_link_wait_ns", "ticks"),
    // service
    count("service.commit_incremental_n", "count"),
    count("service.commit_fallback_n", "count"),
    count("service.dirty_frac_median", "frac"),
    per_epoch("service.skipped_requests"),
    time("service.point_locate_ns", "ns"),
    time("service.neighbor_query_ns", "ns"),
    time("service.submit_batch_s", "s"),
    time("service.front_batch_s", "s"),
    time("service.commit_fallback_s", "s"),
    // trace
    time("trace.overhead_frac", "frac"),
    count("trace.spans_per_balance", "count"),
];

pub fn workload_index(name: &str) -> Option<usize> {
    WORKLOADS.iter().position(|w| w.name == name)
}

/// The exact text of `BENCHMARK.json`: one key per line, one workload or
/// metric per line.
pub fn benchmark_json() -> String {
    let strs = |v: &[&str]| Json::Arr(v.iter().map(|s| Json::str(s)).collect()).compact();
    let lines = |items: Vec<Json>| {
        let items: Vec<String> = items
            .iter()
            .map(|i| format!("    {}", i.compact()))
            .collect();
        format!("[\n{}\n  ]", items.join(",\n"))
    };
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    let workloads = WORKLOADS
        .iter()
        .map(|w| Json::Obj(vec![("name", Json::str(w.name)), ("why", Json::str(w.why))]))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            Json::Obj(vec![
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str("lower")),
                ("bound", Json::Num(m.bound)),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            let better = if m.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            Json::Obj(vec![
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(better)),
            ])
        })
        .collect();
    format!(
        "{{\n  \"command\": {},\n  \"paths\": {},\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        strs(&command),
        strs(&["benchmark"]),
        lines(workloads),
        lines(end_to_end),
        lines(per_layer),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_benchmark_json_matches_the_tables() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(committed, benchmark_json(), "regenerate with --emit-spec");
        forestbal::trace::validate_json(committed).expect("valid JSON");
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a name is used twice");
        for name in names {
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }
}
