//! Differential tests for the tracing subsystem: the threaded `Cluster`
//! and the discrete-event `SimCluster` must record the *same trace* —
//! span tree, counters and histogram buckets — for the same algorithm;
//! only the timestamps differ (wall clock vs virtual time). And arming a
//! tracer must not perturb the simulation at all: results, communication
//! counters and virtual finish times stay bit-identical.

use forestbal_comm::{Cluster, Comm};
use forestbal_core::Condition;
use forestbal_forest::{BalanceVariant, ReversalScheme};
use forestbal_mesh::fractal_forest;
use forestbal_sim::{SimCluster, SimConfig};
use forestbal_trace::{TraceStructure, Tracer};
use proptest::prelude::*;

/// Balance the fractal forest with recording armed; return the checksum
/// plus the timestamp-free shape of the trace.
fn traced_balance<C: Comm>(
    ctx: &C,
    level: u8,
    variant: BalanceVariant,
    scheme: ReversalScheme,
) -> (u64, TraceStructure) {
    let mut f = fractal_forest(ctx, level, 3);
    ctx.barrier();
    let tracer = Tracer::begin(ctx.rank());
    f.balance(ctx, Condition::full(3), variant, scheme);
    let structure = tracer.finish().structure();
    (f.checksum(ctx), structure)
}

proptest! {
    // Each case runs a full threaded *and* simulated traced balance.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Span trees, counters and histogram buckets agree between runtimes
    /// for every variant and reversal scheme: the trace is a function of
    /// the algorithm, not of the runtime executing it.
    #[test]
    fn trace_structures_match_across_runtimes(
        p in 1usize..5,
        level in 1u8..3,
        variant_new in any::<bool>(),
        which in 0u8..3,
    ) {
        let variant = if variant_new { BalanceVariant::New } else { BalanceVariant::Old };
        let scheme = match which {
            0 => ReversalScheme::Naive,
            1 => ReversalScheme::Ranges(2),
            _ => ReversalScheme::Notify,
        };

        let threaded = Cluster::run(p, move |ctx| traced_balance(ctx, level, variant, scheme));
        let sim = SimCluster::run(p, SimConfig::default(), move |ctx| {
            traced_balance(ctx, level, variant, scheme)
        });
        prop_assert_eq!(&threaded.results, &sim.results);

        // Delivery jitter reorders message arrivals; counters and
        // histograms are order-free sums, so the trace shape must hold.
        let jittered = SimCluster::run(
            p,
            SimConfig::builder().seed(level as u64).jitter_ns(2_500).build(),
            move |ctx| traced_balance(ctx, level, variant, scheme),
        );
        prop_assert_eq!(&threaded.results, &jittered.results);
    }
}

/// Recording must be a pure observer: with and without a tracer armed,
/// the simulated run produces bit-identical meshes, communication
/// counters (per-tag breakdown included) and virtual finish times.
#[test]
fn tracing_does_not_perturb_the_simulation() {
    let run = |traced: bool| {
        SimCluster::run(6, SimConfig::default(), move |ctx| {
            let mut f = fractal_forest(ctx, 2, 3);
            ctx.barrier();
            let tracer = traced.then(|| Tracer::begin(ctx.rank()));
            f.balance(
                ctx,
                Condition::full(3),
                BalanceVariant::New,
                ReversalScheme::Notify,
            );
            if let Some(t) = tracer {
                let rt = t.finish();
                assert!(!rt.events.is_empty(), "recording must actually record");
            }
            f.checksum(ctx)
        })
    };
    let plain = run(false);
    let traced = run(true);
    assert_eq!(plain.results, traced.results);
    assert_eq!(plain.stats, traced.stats);
    assert_eq!(plain.finish_ns, traced.finish_ns);
}

/// Same purity check on the threaded runtime: the mesh and the per-rank
/// communication counters do not change when recording is armed.
#[test]
fn tracing_does_not_perturb_the_threaded_runtime() {
    let run = |traced: bool| {
        Cluster::run(4, move |ctx| {
            let mut f = fractal_forest(ctx, 2, 3);
            let tracer = traced.then(|| Tracer::begin(ctx.rank()));
            f.balance(
                ctx,
                Condition::full(3),
                BalanceVariant::Old,
                ReversalScheme::Ranges(2),
            );
            drop(tracer);
            f.checksum(ctx)
        })
    };
    let plain = run(false);
    let traced = run(true);
    assert_eq!(plain.results, traced.results);
    assert_eq!(plain.stats, traced.stats);
}
