//! Simulator tuning knobs.

use crate::net::NetworkSpec;

/// Cost model and determinism parameters for a [`crate::SimCluster`] run.
///
/// The default network is the flat α + β·bytes model, whose constants
/// ([`FlatAlphaBeta::LATENCY_NS`], [`FlatAlphaBeta::NS_PER_BYTE`]) model
/// a commodity cluster interconnect: 1 µs message latency and 1 GB/s
/// effective bandwidth.
///
/// Construct with [`SimConfig::default`] or [`SimConfig::builder`].
///
/// [`FlatAlphaBeta::LATENCY_NS`]: crate::FlatAlphaBeta::LATENCY_NS
/// [`FlatAlphaBeta::NS_PER_BYTE`]: crate::FlatAlphaBeta::NS_PER_BYTE
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Seed for the fault-injection PRNG (and any future stochastic
    /// model). Two runs with equal seeds are bit-identical.
    pub seed: u64,
    /// Maximum extra random per-message delay in nanoseconds, drawn
    /// deterministically from `seed` and the message sequence number.
    /// `0` disables jitter. Nonzero values reorder message arrivals,
    /// which is the fault model used to test order-robustness.
    ///
    /// Interaction with [`fifo`](Self::fifo): jitter draws delays
    /// independently per message, so with `fifo: true` (the default) a
    /// later same-`(src, dst)` message that drew a smaller delay is
    /// *held back* to the earlier message's arrival time (MPI
    /// non-overtaking) — jitter then only reorders messages *between
    /// different pairs*. Set `fifo: false` to let jitter also overtake
    /// within a pair. Either way a jitter seed samples **one** schedule
    /// per `(seed, jitter_ns)`; for exhaustive coverage of *every*
    /// delivery order at small P, use the `forestbal-mc` model checker,
    /// which drives the simulator through a [`crate::DeliveryStrategy`]
    /// instead of jitter sampling.
    pub jitter_ns: u64,
    /// Enforce MPI's non-overtaking rule: two messages from the same
    /// source to the same destination arrive in send order even under
    /// jitter. Disable to inject pairwise reordering faults. Under a
    /// [`crate::DeliveryStrategy`] the same flag decides whether
    /// same-pair reorderings are offered to the strategy at all.
    pub fifo: bool,
    /// Stack size for each simulated rank's coroutine. Ranks run one at
    /// a time, but each still needs its own (mostly untouched) stack.
    /// Fiber stacks are reserved lazily — only pages actually written
    /// cost memory — so the default stays comfortable; shrink it (e.g.
    /// to 256 KiB) for P ≈ 112k runs to keep the virtual reservation
    /// within the address-space budget.
    pub stack_size: usize,
    /// The network cost model ([`NetworkSpec::Flat`] by default, which
    /// reproduces the historical `α + β·bytes` virtual times
    /// bit-identically).
    pub network: NetworkSpec,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0,
            jitter_ns: 0,
            fifo: true,
            stack_size: 1 << 20,
            network: NetworkSpec::Flat,
        }
    }
}

impl SimConfig {
    /// Start building a config from the defaults:
    /// `SimConfig::builder().seed(7).network(spec).build()`.
    pub fn builder() -> SimConfigBuilder {
        SimConfigBuilder {
            cfg: SimConfig::default(),
        }
    }
}

/// Fluent constructor for [`SimConfig`], obtained from
/// [`SimConfig::builder`]. Every knob has a method; unset knobs keep
/// their [`Default`] values.
#[derive(Clone, Copy, Debug)]
pub struct SimConfigBuilder {
    cfg: SimConfig,
}

impl SimConfigBuilder {
    /// Fault-injection PRNG seed.
    pub fn seed(mut self, v: u64) -> Self {
        self.cfg.seed = v;
        self
    }

    /// Maximum per-message delay jitter in nanoseconds.
    pub fn jitter_ns(mut self, v: u64) -> Self {
        self.cfg.jitter_ns = v;
        self
    }

    /// Enforce (or relax) MPI non-overtaking delivery.
    pub fn fifo(mut self, v: bool) -> Self {
        self.cfg.fifo = v;
        self
    }

    /// Per-rank coroutine stack size in bytes.
    pub fn stack_size(mut self, v: usize) -> Self {
        self.cfg.stack_size = v;
        self
    }

    /// Network cost model.
    pub fn network(mut self, v: NetworkSpec) -> Self {
        self.cfg.network = v;
        self
    }

    /// Finish: the assembled [`SimConfig`].
    pub fn build(self) -> SimConfig {
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::{FatTreeParams, NetworkModel, NetworkSpec};

    #[test]
    fn builder_and_struct_literal_agree() {
        let b = SimConfig::builder()
            .seed(7)
            .jitter_ns(3)
            .fifo(false)
            .stack_size(1 << 16)
            .network(NetworkSpec::FatTree(FatTreeParams::default()))
            .build();
        let s = SimConfig {
            seed: 7,
            jitter_ns: 3,
            fifo: false,
            stack_size: 1 << 16,
            network: NetworkSpec::FatTree(FatTreeParams::default()),
        };
        assert_eq!(format!("{b:?}"), format!("{s:?}"));
    }

    #[test]
    fn default_network_matches_historical_cost_shapes() {
        let c = SimConfig::default();
        let mut m = c.network.build();
        assert_eq!(m.message_arrival_ns(0, 1, 0, 0), 1_000);
        assert_eq!(m.message_arrival_ns(0, 1, 500, 0), 1_500);
        // Barrier over one rank is free of tree depth.
        assert_eq!(m.collective_done_ns(1, 0, 0), 0);
        assert_eq!(m.collective_done_ns(2, 0, 0), 1_000);
        assert_eq!(m.collective_done_ns(1024, 0, 0), 10_000);
        assert_eq!(m.collective_done_ns(1025, 0, 0), 11_000);
    }
}
