//! Sweep simulated rank counts and print the virtual-time cost of each
//! pattern-reversal scheme (§V) on a curve-local pattern.
//!
//! Run with `cargo run --release --example sim_scaling`. Every number is
//! deterministic virtual cluster time from the discrete-event simulator,
//! so the output is bit-identical across runs and machines.

use forestbal::comm::{reverse_naive, reverse_notify, reverse_ranges, Comm};
use forestbal::sim::{FlatAlphaBeta, SimCluster, SimConfig};

fn main() {
    let fanout = 4;
    let max_ranges = 3;
    let cfg = SimConfig::default();

    println!(
        "pattern reversal under simulation (fanout = {fanout}, α = {} ns, β = {} ns/B)",
        FlatAlphaBeta::LATENCY_NS,
        FlatAlphaBeta::NS_PER_BYTE
    );
    println!(
        "{:>7} {:>14} {:>14} {:>14}  notify msgs",
        "P", "naive (µs)", "ranges (µs)", "notify (µs)"
    );

    for p in [64usize, 256, 1024, 4096] {
        let run = |which: u8| {
            SimCluster::run(p, cfg, move |ctx| {
                let rs: Vec<usize> = (1..=fanout)
                    .map(|i| (ctx.rank() + i) % p)
                    .filter(|&q| q != ctx.rank())
                    .collect();
                ctx.barrier();
                let senders = match which {
                    0 => reverse_naive(ctx, &rs),
                    1 => reverse_ranges(ctx, &rs, max_ranges),
                    _ => reverse_notify(ctx, &rs),
                };
                assert_eq!(senders.len(), fanout.min(p - 1));
            })
        };
        let naive = run(0);
        let ranges = run(1);
        let notify = run(2);
        println!(
            "{:>7} {:>14.1} {:>14.1} {:>14.1}  {}",
            p,
            naive.makespan_ns() as f64 / 1e3,
            ranges.makespan_ns() as f64 / 1e3,
            notify.makespan_ns() as f64 / 1e3,
            notify.total_stats().messages_sent,
        );
    }
}
