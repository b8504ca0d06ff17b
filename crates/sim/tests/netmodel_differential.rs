//! Network-model differential tests.
//!
//! The refactor that introduced [`NetworkModel`] must be invisible under
//! the default configuration: `NetworkSpec::Flat` has to reproduce the
//! previously hard-coded cost arithmetic *bit-identically* — virtual
//! times, communication counters and balanced-forest checksums alike.
//! The pin is differential: `Historical` below re-implements the exact
//! pre-refactor formulas (per-call `f64` rounding and all) as a custom
//! model plugged in through `run_with_model`, and whole runs are compared
//! against the built-in default.

use forestbal_comm::{reverse_naive, reverse_notify, reverse_ranges, Comm};
use forestbal_core::Condition;
use forestbal_forest::{BalanceVariant, ReversalScheme};
use forestbal_mesh::fractal_forest;
use forestbal_sim::{NetStats, NetworkModel, SimCluster, SimConfig, SimRunOutput};

/// The simulator's cost arithmetic exactly as hard-coded before the
/// [`NetworkModel`] refactor: flat `α + round(β·bytes)` per message and
/// `⌈log₂P⌉·α + round(β·total)` per collective, rounding independently
/// per call, with the historical constants α = 1000 ns and β = 1 ns/B.
#[derive(Default)]
struct Historical {
    stats: NetStats,
}

impl Historical {
    const LATENCY_NS: u64 = 1_000;
    const NS_PER_BYTE: f64 = 1.0;

    fn transfer_ns(&self, bytes: usize) -> u64 {
        (bytes as f64 * Self::NS_PER_BYTE).round() as u64
    }
}

impl NetworkModel for Historical {
    fn message_arrival_ns(&mut self, _src: usize, _dst: usize, bytes: usize, send_ns: u64) -> u64 {
        self.stats.p2p_messages += 1;
        self.stats.intra_node_messages += 1;
        send_ns + Self::LATENCY_NS + self.transfer_ns(bytes)
    }

    fn collective_done_ns(&mut self, size: usize, total_bytes: usize, start_ns: u64) -> u64 {
        self.stats.collectives += 1;
        let depth = usize::BITS - size.saturating_sub(1).leading_zeros();
        start_ns + depth as u64 * Self::LATENCY_NS + self.transfer_ns(total_bytes)
    }

    fn net_stats(&self) -> NetStats {
        self.stats
    }
}

/// Bit-identity of two runs: results, per-rank counters, per-rank virtual
/// finish times, and the models' own traffic counters.
fn assert_identical<T: PartialEq + std::fmt::Debug>(a: &SimRunOutput<T>, b: &SimRunOutput<T>) {
    assert_eq!(a.results, b.results);
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.finish_ns, b.finish_ns);
    assert_eq!(a.net, b.net);
}

/// Mixed reversal workload touching p2p, wildcard recv and collectives,
/// returning per-rank virtual timestamps so any cost divergence surfaces.
fn reversal_workload<C: Comm>(ctx: &C) -> (Vec<usize>, Vec<usize>, Vec<usize>, u64) {
    let p = ctx.size();
    let rs = vec![(ctx.rank() + 1) % p, (ctx.rank() + 7) % p];
    let a = reverse_naive(ctx, &rs);
    let b = reverse_ranges(ctx, &rs, 4);
    let c = reverse_notify(ctx, &rs);
    (a, b, c, ctx.now_ns())
}

#[test]
fn default_model_is_bitwise_historical_at_p1024() {
    let p = 1024;
    let cfg = SimConfig::builder().seed(9).jitter_ns(400).build();
    let mut hist = Historical::default();
    let new = SimCluster::run(p, cfg, reversal_workload);
    let old = SimCluster::run_with_model(p, cfg, &mut hist, reversal_workload);
    assert_identical(&new, &old);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "P = 1024 balance is a release-mode test")]
fn default_model_is_bitwise_historical_for_balance_at_p1024() {
    let p = 1024;
    let cfg = SimConfig::builder().seed(2012).build();
    let balance = |ctx: &forestbal_sim::SimCtx| {
        let mut f = fractal_forest(ctx, 2, 3);
        let before = f.num_global(ctx);
        f.balance(
            ctx,
            Condition::full(3),
            BalanceVariant::New,
            ReversalScheme::Notify,
        );
        (before, f.checksum(ctx), ctx.now_ns())
    };
    let mut hist = Historical::default();
    let new = SimCluster::run(p, cfg, balance);
    let old = SimCluster::run_with_model(p, cfg, &mut hist, balance);
    assert_identical(&new, &old);
}

/// Debug-mode stand-in for the release-gated P = 1024 balance pin: same
/// workload and checks at a size plain `cargo test` can afford.
#[test]
fn default_model_is_bitwise_historical_for_balance_small() {
    let p = 24;
    let cfg = SimConfig::builder().seed(5).jitter_ns(900).build();
    let balance = |ctx: &forestbal_sim::SimCtx| {
        let mut f = fractal_forest(ctx, 2, 3);
        f.balance(
            ctx,
            Condition::full(3),
            BalanceVariant::New,
            ReversalScheme::Ranges(4),
        );
        (f.checksum(ctx), ctx.now_ns())
    };
    let mut hist = Historical::default();
    let new = SimCluster::run(p, cfg, balance);
    let old = SimCluster::run_with_model(p, cfg, &mut hist, balance);
    assert_identical(&new, &old);
}
