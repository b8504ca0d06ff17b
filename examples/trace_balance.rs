//! Capture a chrome-trace of a simulated parallel 2:1 balance.
//!
//! Runs the one-pass balance (new variant, Notify reversal) of the
//! fractal forest on `P = 64` simulated ranks with per-rank tracing
//! armed, then:
//!
//! - prints a per-phase aggregate table (min/median/max across ranks, in
//!   virtual µs — the shape of the paper's Figure 15 runtime breakdown),
//! - verifies that the four balance phases plus the reversal span were
//!   recorded on every rank and that the phase spans tile the enclosing
//!   `balance` span exactly (each phase starts at the timestamp the
//!   previous one ended on),
//! - checks that every query entry was answered exactly once and that the
//!   responders' finest-level bound answered some of them, and prints
//!   that share,
//! - writes a trace-event JSON file — `trace_balance.json`, or the path
//!   given as the first argument — with one process per simulated rank.
//!
//! Open the file at <https://ui.perfetto.dev> (or `chrome://tracing`) to
//! browse the per-rank timelines.
//!
//! Run with `cargo run --release --example trace_balance [-- out.json]`.

use forestbal::comm::Comm;
use forestbal::core::Condition;
use forestbal::forest::{BalanceVariant, ReversalScheme};
use forestbal::mesh::fractal_forest;
use forestbal::sim::{SimCluster, SimConfig};
use forestbal::trace::{bucket_bounds, validate_json, ClusterTrace, Tracer};

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "trace_balance.json".to_string());
    let p = 64;
    let cfg = SimConfig::default();

    let out = SimCluster::run(p, cfg, |ctx| {
        let mut f = fractal_forest(ctx, 2, 3);
        ctx.barrier();
        let tracer = Tracer::begin(ctx.rank());
        f.balance(
            ctx,
            Condition::full(3),
            BalanceVariant::New,
            ReversalScheme::Notify,
        );
        tracer.finish()
    });
    let trace = ClusterTrace::new(out.results);

    if trace.ranks.iter().all(|rt| rt.events.is_empty()) {
        println!("tracing is compiled out (built without the `trace` feature); nothing to export");
        return;
    }

    // Every rank must have recorded the four phases of the one-pass
    // algorithm plus the pattern reversal, and the phases must partition
    // the enclosing balance span exactly: each starts at the timestamp
    // the previous one ended on, and phase 1 at the balance span's own.
    let phases = [
        "local_balance",
        "query_response",
        "reversal",
        "rebalance",
        "balance",
    ];
    for rt in &trace.ranks {
        for name in phases {
            assert!(
                rt.phase_totals().contains_key(name),
                "rank {}: span {name:?} missing",
                rt.rank
            );
        }
        let parts: u64 = phases[..4].iter().map(|n| rt.phase_total_ns(n)).sum();
        assert_eq!(
            parts,
            rt.phase_total_ns("balance"),
            "rank {}: phases must tile the balance span",
            rt.rank
        );
    }

    // Every query entry is answered exactly once, and in this regime (a
    // few dozen leaves per rank) the responders' finest-level bound
    // answers some of them without a neighbor scan.
    let counters = trace.merged_counters();
    let count = |name: &str| counters.get(name).copied().unwrap_or(0);
    let entries = count("balance.query_entries");
    assert_eq!(
        count("balance.queries_answered"),
        entries,
        "every query entry must be answered exactly once"
    );
    let below = count("balance.queries_below_finest");
    assert!(below > 0, "the finest-level bound answered no query entry");
    println!(
        "{below} of {entries} query entries ({:.1} %) answered by the finest-level bound\n",
        100.0 * below as f64 / entries as f64
    );

    println!("one-pass balance on {p} simulated ranks, per-phase spans (virtual µs):");
    println!(
        "{:>16} {:>6} {:>6} {:>10} {:>10} {:>10}",
        "phase", "ranks", "spans", "min", "median", "max"
    );
    for a in trace.phase_aggregates() {
        let us = |ns: u64| format!("{:.1}", ns as f64 / 1e3);
        println!(
            "{:>16} {:>6} {:>6} {:>10} {:>10} {:>10}",
            a.name,
            a.ranks,
            a.spans,
            us(a.min_ns),
            us(a.median_ns),
            us(a.max_ns)
        );
    }

    println!("\ncluster-wide counters:");
    for (name, v) in &counters {
        println!("  {name} = {v}");
    }
    println!("histograms (log2 buckets):");
    for (name, h) in trace.merged_histograms() {
        let buckets: Vec<String> = h
            .nonzero()
            .map(|(b, c)| {
                let (lo, hi) = bucket_bounds(b);
                format!("[{lo}..{hi}]:{c}")
            })
            .collect();
        println!("  {name}: {}", buckets.join(" "));
    }

    let json = trace.chrome_trace_json();
    validate_json(&json).expect("exporter must emit valid JSON");
    std::fs::write(&path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!(
        "\nwrote {path} ({} bytes) — open it at https://ui.perfetto.dev",
        json.len()
    );
}
