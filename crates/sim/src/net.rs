//! Pluggable network cost models: the [`NetworkModel`] trait and its
//! two first-party implementations.
//!
//! The simulator used to hard-code a flat `α + β·bytes` charge for every
//! message and `⌈log₂P⌉·α + β·total` for every collective. Real machines
//! are neither flat nor contention-free: ranks on one node talk through
//! shared memory, nodes share switch links, and concurrent transfers on a
//! link split its throughput — which is exactly the regime where the
//! paper's `Notify` reversal wins over allgather-based schemes (§V,
//! Fig. 15). This module makes the cost model a first-class, swappable
//! object:
//!
//! * [`FlatAlphaBeta`] — the historical model with its constants (1 µs,
//!   1 ns per byte). The default; reproduces the previous hard-coded
//!   virtual times bit-identically.
//! * [`FatTree`] — a two-tier fat tree (node ⇄ edge switch ⇄ core) with
//!   node-local vs. remote costs (ranks are grouped into nodes of
//!   `ranks_per_node`; same-node messages pay the shared-memory `α`/`β`)
//!   and **per-link shared-bandwidth contention**: every transfer occupies
//!   each link on its route for `bytes · β_link`, and a transfer finding
//!   a link busy queues behind it (the dslab-network shared-throughput
//!   idea in deterministic, event-free form: `k` simultaneous transfers
//!   on one link finish no earlier than fair `B/k` sharing predicts for
//!   the aggregate). Queueing delays are counted in [`NetStats`].
//!
//! # The model contract
//!
//! Implementations must be **deterministic** (equal call sequences give
//! equal answers — no wall clock, no randomness) and **monotone**
//! (arrival/completion times never precede the send/start times they are
//! derived from). Internal state (carry accumulators, link occupancy) is
//! allowed — the scheduler calls the model in a deterministic order — but
//! virtual time must never run backwards. Custom models plug in through
//! [`crate::SimCluster::run_with_model`].

/// Contention and traffic-class counters accumulated by a
/// [`NetworkModel`] over one run. All zeros for contention-free models
/// unless noted.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Point-to-point messages costed.
    pub p2p_messages: u64,
    /// Messages between two ranks of the same node (fat-tree model; flat
    /// counts everything here).
    pub intra_node_messages: u64,
    /// Messages that crossed a node boundary within one pod.
    pub inter_node_messages: u64,
    /// Messages that crossed a pod boundary (fat-tree core traffic).
    pub inter_pod_messages: u64,
    /// Link occupations that had to queue behind an earlier transfer.
    pub link_waits: u64,
    /// Total virtual time transfers spent queued on busy links.
    pub link_wait_ns: u64,
    /// Largest single queueing delay.
    pub max_link_wait_ns: u64,
    /// Collectives costed.
    pub collectives: u64,
}

impl NetStats {
    /// Componentwise sum (`max` for the max field), for aggregating over
    /// repetitions.
    pub fn merge(&self, other: &NetStats) -> NetStats {
        NetStats {
            p2p_messages: self.p2p_messages + other.p2p_messages,
            intra_node_messages: self.intra_node_messages + other.intra_node_messages,
            inter_node_messages: self.inter_node_messages + other.inter_node_messages,
            inter_pod_messages: self.inter_pod_messages + other.inter_pod_messages,
            link_waits: self.link_waits + other.link_waits,
            link_wait_ns: self.link_wait_ns + other.link_wait_ns,
            max_link_wait_ns: self.max_link_wait_ns.max(other.max_link_wait_ns),
            collectives: self.collectives + other.collectives,
        }
    }
}

/// A swappable virtual-time cost model for the simulator's network.
///
/// See the [module docs](self) for the determinism/monotonicity contract
/// and the built-in implementations.
pub trait NetworkModel {
    /// Virtual arrival time of a `bytes`-byte message from `src` to `dst`
    /// handed to the network at `send_ns`. Must return a value
    /// `>= send_ns`; jitter and FIFO (non-overtaking) adjustments are
    /// applied by the scheduler *after* this call.
    fn message_arrival_ns(&mut self, src: usize, dst: usize, bytes: usize, send_ns: u64) -> u64;

    /// Virtual completion time of an allgather over `size` ranks moving
    /// `total_bytes` in aggregate, whose last participant entered at
    /// `start_ns`. Must return a value `>= start_ns`.
    fn collective_done_ns(&mut self, size: usize, total_bytes: usize, start_ns: u64) -> u64;

    /// Counters accumulated so far.
    fn net_stats(&self) -> NetStats;
}

/// `⌈log₂ size⌉`: depth of the recursive-doubling collective tree.
#[inline]
fn tree_depth(size: usize) -> u32 {
    usize::BITS - size.saturating_sub(1).leading_zeros()
}

/// Convert a `ns/byte` rate into integer picoseconds per byte. Rates
/// below 0.0005 ns/B (2 TB/s) truncate to a free link.
fn ps_per_byte(ns_per_byte: f64) -> u64 {
    (ns_per_byte * 1000.0).round().max(0.0) as u64
}

/// Byte-transfer accumulator in integer picoseconds: whole nanoseconds
/// are charged immediately and the sub-nanosecond remainder carries into
/// the next transfer, so long runs never drift from the exact rational
/// total (the historical per-message `f64::round` drifted by up to half
/// a nanosecond per message).
#[derive(Clone, Copy, Debug, Default)]
struct PsCarry {
    carry_ps: u64,
}

impl PsCarry {
    /// Nanoseconds to charge for `bytes` at `rate_ps` picoseconds/byte.
    #[inline]
    fn transfer_ns(&mut self, bytes: usize, rate_ps: u64) -> u64 {
        let ps = bytes as u64 * rate_ps + self.carry_ps;
        self.carry_ps = ps % 1000;
        ps / 1000
    }
}

/// The flat `α + β·bytes` model: every pair of ranks is one latency and
/// one bandwidth apart, collectives are a `⌈log₂P⌉`-deep latency tree
/// plus the payload over the wire once. This is the default model and
/// reproduces the simulator's historical virtual times bit-identically.
/// Its constants are deliberately round so virtual-time numbers are easy
/// to read; scaling *trends* (the paper's subject) are insensitive to
/// them.
#[derive(Clone, Copy, Debug, Default)]
pub struct FlatAlphaBeta {
    stats: NetStats,
}

impl FlatAlphaBeta {
    /// α: fixed per-message latency in nanoseconds (1 µs).
    pub const LATENCY_NS: u64 = 1_000;
    /// β: transfer time per payload byte in nanoseconds (1 GB/s).
    pub const NS_PER_BYTE: u64 = 1;
}

impl NetworkModel for FlatAlphaBeta {
    fn message_arrival_ns(&mut self, _src: usize, _dst: usize, bytes: usize, send_ns: u64) -> u64 {
        self.stats.p2p_messages += 1;
        self.stats.intra_node_messages += 1;
        send_ns + Self::LATENCY_NS + bytes as u64 * Self::NS_PER_BYTE
    }

    fn collective_done_ns(&mut self, size: usize, total_bytes: usize, start_ns: u64) -> u64 {
        self.stats.collectives += 1;
        start_ns
            + tree_depth(size) as u64 * Self::LATENCY_NS
            + total_bytes as u64 * Self::NS_PER_BYTE
    }

    fn net_stats(&self) -> NetStats {
        self.stats
    }
}

/// Parameters of the [`FatTree`] contended-topology model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FatTreeParams {
    /// Ranks per node (share memory; their traffic never touches links).
    pub ranks_per_node: usize,
    /// Nodes per pod (share one edge switch).
    pub nodes_per_pod: usize,
    /// Latency of an intra-node message.
    pub intra_latency_ns: u64,
    /// Per-byte cost within a node.
    pub intra_ns_per_byte: f64,
    /// Latency of each switch hop (node→edge, edge→core, ...).
    pub hop_latency_ns: u64,
    /// Per-byte occupancy each transfer charges on every link it
    /// traverses — the shared resource concurrent transfers queue on.
    pub link_ns_per_byte: f64,
}

impl Default for FatTreeParams {
    /// 12-rank nodes, 16 nodes per edge switch, 20 GB/s shared memory,
    /// 500 ns hops, 2 GB/s links.
    fn default() -> Self {
        FatTreeParams {
            ranks_per_node: 12,
            nodes_per_pod: 16,
            intra_latency_ns: 200,
            intra_ns_per_byte: 0.05,
            hop_latency_ns: 500,
            link_ns_per_byte: 0.5,
        }
    }
}

/// A two-tier fat tree with per-link shared-bandwidth contention.
///
/// Topology: `ranks_per_node` ranks per node, `nodes_per_pod` nodes per
/// edge switch ("pod"), all pods joined by a core layer. Each node has a
/// full-duplex up/down link to its edge switch and each pod a full-duplex
/// up/down link to the core. A message's route:
///
/// * same node — shared memory, no links (`α_intra + β_intra·bytes`);
/// * same pod — node uplink, edge switch, node downlink (2 hops);
/// * cross pod — node uplink, pod uplink, core, pod downlink, node
///   downlink (4 hops).
///
/// Contention: each traversed link is *occupied* for
/// `bytes · link_ns_per_byte`; a transfer arriving while the link is
/// occupied queues behind it (FIFO in deterministic send order). This is
/// the discrete, event-free counterpart of dslab-network's
/// shared-throughput model: `k` transfers crowding one link drain at an
/// aggregate `B/k` effective bandwidth, and the queueing delays appear in
/// [`NetStats::link_wait_ns`].
///
/// Collectives decompose the `⌈log₂P⌉` doubling tree into intra-node,
/// intra-pod and cross-pod levels; level `l` (of ascending payload
/// `total/2^(depth-l)`) charges its bytes at the link rate scaled by the
/// number of ranks sharing the traversed link class (`K` for node links,
/// `K·M` for pod links) — collectives synchronize all ranks, so the
/// shared links see the whole class's traffic at once.
#[derive(Clone, Debug)]
pub struct FatTree {
    k: usize,
    m: usize,
    intra_latency_ns: u64,
    intra_rate_ps: u64,
    hop_latency_ps: u64,
    link_rate_ps: u64,
    carry: PsCarry,
    /// Per-link busy-until times in picoseconds, grown on demand.
    node_up_ps: Vec<u64>,
    node_down_ps: Vec<u64>,
    pod_up_ps: Vec<u64>,
    pod_down_ps: Vec<u64>,
    stats: NetStats,
}

impl FatTree {
    /// A fat-tree model with the given parameters.
    pub fn new(p: FatTreeParams) -> FatTree {
        assert!(p.ranks_per_node >= 1, "a node holds at least one rank");
        assert!(p.nodes_per_pod >= 1, "a pod holds at least one node");
        FatTree {
            k: p.ranks_per_node,
            m: p.nodes_per_pod,
            intra_latency_ns: p.intra_latency_ns,
            intra_rate_ps: ps_per_byte(p.intra_ns_per_byte),
            hop_latency_ps: p.hop_latency_ns * 1000,
            link_rate_ps: ps_per_byte(p.link_ns_per_byte),
            carry: PsCarry::default(),
            node_up_ps: Vec::new(),
            node_down_ps: Vec::new(),
            pod_up_ps: Vec::new(),
            pod_down_ps: Vec::new(),
            stats: NetStats::default(),
        }
    }

    /// Occupy one link from `t_ps`, queueing behind earlier transfers.
    /// Returns the time the transfer clears the link.
    fn occupy(busy: &mut Vec<u64>, idx: usize, t_ps: u64, tx_ps: u64, stats: &mut NetStats) -> u64 {
        if busy.len() <= idx {
            busy.resize(idx + 1, 0);
        }
        let start = t_ps.max(busy[idx]);
        if start > t_ps {
            let wait = start - t_ps;
            stats.link_waits += 1;
            stats.link_wait_ns += wait / 1000;
            stats.max_link_wait_ns = stats.max_link_wait_ns.max(wait / 1000);
        }
        busy[idx] = start + tx_ps;
        busy[idx]
    }
}

impl NetworkModel for FatTree {
    fn message_arrival_ns(&mut self, src: usize, dst: usize, bytes: usize, send_ns: u64) -> u64 {
        self.stats.p2p_messages += 1;
        let (sn, dn) = (src / self.k, dst / self.k);
        if sn == dn {
            self.stats.intra_node_messages += 1;
            return send_ns
                + self.intra_latency_ns
                + self.carry.transfer_ns(bytes, self.intra_rate_ps);
        }
        let (sp, dp) = (sn / self.m, dn / self.m);
        let tx_ps = bytes as u64 * self.link_rate_ps;
        let mut t = send_ns * 1000 + self.hop_latency_ps;
        t = Self::occupy(&mut self.node_up_ps, sn, t, tx_ps, &mut self.stats);
        if sp == dp {
            self.stats.inter_node_messages += 1;
        } else {
            self.stats.inter_pod_messages += 1;
            t += self.hop_latency_ps;
            t = Self::occupy(&mut self.pod_up_ps, sp, t, tx_ps, &mut self.stats);
            t += self.hop_latency_ps;
            t = Self::occupy(&mut self.pod_down_ps, dp, t, tx_ps, &mut self.stats);
        }
        t += self.hop_latency_ps;
        t = Self::occupy(&mut self.node_down_ps, dn, t, tx_ps, &mut self.stats);
        t / 1000
    }

    fn collective_done_ns(&mut self, size: usize, total_bytes: usize, start_ns: u64) -> u64 {
        self.stats.collectives += 1;
        let depth = tree_depth(size);
        let nodes = size.div_ceil(self.k);
        let pods = nodes.div_ceil(self.m);
        let pod_depth = tree_depth(pods).min(depth);
        let node_depth = tree_depth(nodes).min(depth) - pod_depth;
        let intra_depth = depth - pod_depth - node_depth;
        let mut cost_ps = 0u64;
        for l in 0..depth {
            // Doubling level l moves total/2^(depth-l) bytes per rank.
            let b = (total_bytes as u64) >> (depth - l);
            cost_ps += if l < intra_depth {
                self.intra_latency_ns * 1000 + b * self.intra_rate_ps
            } else if l < intra_depth + node_depth {
                2 * self.hop_latency_ps + b * self.link_rate_ps * self.k as u64
            } else {
                4 * self.hop_latency_ps + b * self.link_rate_ps * (self.k * self.m) as u64
            };
        }
        start_ns + cost_ps / 1000
    }

    fn net_stats(&self) -> NetStats {
        self.stats
    }
}

/// Declarative, `Copy` description of a network model — the form a model
/// takes inside [`crate::SimConfig`]. [`NetworkSpec::build`] instantiates
/// the stateful model at the start of each run, so two runs of one config
/// never share carry or link-occupancy state.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub enum NetworkSpec {
    /// [`FlatAlphaBeta`] with its constants.
    #[default]
    Flat,
    /// [`FatTree`] with the given parameters.
    FatTree(FatTreeParams),
}

impl NetworkSpec {
    /// Instantiate the model this spec describes.
    pub fn build(&self) -> NetModel {
        match *self {
            NetworkSpec::Flat => NetModel::Flat(FlatAlphaBeta::default()),
            NetworkSpec::FatTree(p) => NetModel::FatTree(FatTree::new(p)),
        }
    }
}

/// A built-in model instantiated from a [`NetworkSpec`] (enum dispatch so
/// the scheduler's default path stays allocation-free).
#[derive(Clone, Debug)]
pub enum NetModel {
    /// Flat α + β·bytes.
    Flat(FlatAlphaBeta),
    /// Contended fat tree.
    FatTree(FatTree),
}

impl NetworkModel for NetModel {
    fn message_arrival_ns(&mut self, src: usize, dst: usize, bytes: usize, send_ns: u64) -> u64 {
        match self {
            NetModel::Flat(m) => m.message_arrival_ns(src, dst, bytes, send_ns),
            NetModel::FatTree(m) => m.message_arrival_ns(src, dst, bytes, send_ns),
        }
    }

    fn collective_done_ns(&mut self, size: usize, total_bytes: usize, start_ns: u64) -> u64 {
        match self {
            NetModel::Flat(m) => m.collective_done_ns(size, total_bytes, start_ns),
            NetModel::FatTree(m) => m.collective_done_ns(size, total_bytes, start_ns),
        }
    }

    fn net_stats(&self) -> NetStats {
        match self {
            NetModel::Flat(m) => m.net_stats(),
            NetModel::FatTree(m) => m.net_stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_matches_historical_costs() {
        let mut m = FlatAlphaBeta::default();
        assert_eq!(m.message_arrival_ns(0, 1, 0, 0), 1_000);
        assert_eq!(m.message_arrival_ns(0, 1, 500, 0), 1_500);
        assert_eq!(m.collective_done_ns(1, 0, 0), 0);
        assert_eq!(m.collective_done_ns(2, 0, 0), 1_000);
        assert_eq!(m.collective_done_ns(1024, 0, 0), 10_000);
        assert_eq!(m.collective_done_ns(1025, 0, 0), 11_000);
    }

    #[test]
    fn fractional_rate_accumulates_without_drift() {
        // Intra-node β = 0.25 ns/B, 4000 one-byte messages: exactly
        // 1000 ns of transfer in total (a per-message round() would
        // charge 0 each).
        let mut m = FatTree::new(FatTreeParams {
            ranks_per_node: 2,
            intra_latency_ns: 0,
            intra_ns_per_byte: 0.25,
            ..FatTreeParams::default()
        });
        let total: u64 = (0..4000).map(|_| m.message_arrival_ns(0, 1, 1, 0)).sum();
        assert_eq!(total, 1_000);
    }

    #[test]
    fn fat_tree_contention_queues_transfers() {
        let p = FatTreeParams {
            ranks_per_node: 2,
            nodes_per_pod: 2,
            intra_latency_ns: 100,
            intra_ns_per_byte: 0.0,
            hop_latency_ns: 0,
            link_ns_per_byte: 1.0,
        };
        let mut m = FatTree::new(p);
        // Two messages leave node 0 at t = 0; the second queues on the
        // node uplink behind the first.
        let a = m.message_arrival_ns(0, 2, 1_000, 0);
        let b = m.message_arrival_ns(1, 2, 1_000, 0);
        assert_eq!(a, 2_000); // uplink 1000 + downlink 1000
        assert!(b > a, "second transfer must queue ({b} <= {a})");
        // Queued once, on the shared uplink; it reaches the downlink
        // exactly as the first transfer clears it.
        assert_eq!(m.net_stats().link_waits, 1);
        assert_eq!(b, 3_000);
        assert!(m.net_stats().link_wait_ns > 0);
        // Same-node traffic touches no links.
        let before = m.net_stats().link_waits;
        m.message_arrival_ns(0, 1, 1 << 20, 0);
        assert_eq!(m.net_stats().link_waits, before);
    }

    #[test]
    fn fat_tree_routes_by_tier() {
        let mut m = FatTree::new(FatTreeParams {
            ranks_per_node: 2,
            nodes_per_pod: 2,
            intra_latency_ns: 1,
            intra_ns_per_byte: 0.0,
            hop_latency_ns: 100,
            link_ns_per_byte: 0.0,
        });
        assert_eq!(m.message_arrival_ns(0, 1, 0, 0), 1); // intra-node
        assert_eq!(m.message_arrival_ns(0, 2, 0, 0), 200); // intra-pod: 2 hops
        assert_eq!(m.message_arrival_ns(0, 4, 0, 0), 400); // cross-pod: 4 hops
        let s = m.net_stats();
        assert_eq!(
            (
                s.intra_node_messages,
                s.inter_node_messages,
                s.inter_pod_messages
            ),
            (1, 1, 1)
        );
    }

    #[test]
    fn monotone_under_interleaved_traffic() {
        let mut m = FatTree::new(FatTreeParams::default());
        let mut last = 0;
        for i in 0..1000usize {
            let t = (i as u64) * 37;
            let a = m.message_arrival_ns(i % 48, (i * 7) % 48, i % 4096, t);
            assert!(a >= t, "arrival precedes send");
            last = last.max(a);
        }
        assert!(last > 0);
    }
}
