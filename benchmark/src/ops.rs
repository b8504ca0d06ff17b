//! The timed operations every workload is built from: one balance, one
//! AMR cycle, one service epoch. Each calls only public functions of the
//! layers, times them barrier to barrier through [`Rec`], and checks the
//! result outside the timed interval. Generic over [`Comm`], so the same
//! code runs on the threaded cluster and under the simulator.

use crate::spans::Rec;
use crate::stats::{Rng, Samples};
use forestbal::comm::{is_notify_tag, Comm, CommStats};
use forestbal::core::Condition;
use forestbal::forest::{
    AdaptBatch, BalanceReport, BalanceVariant, Forest, ReversalScheme, TreeId,
};
use forestbal::octant::Octant;
use forestbal::service::{EpochReport, ForestService, Request, Response, ServiceConfig};
use std::collections::BTreeMap;
use std::time::Instant;

pub fn cond() -> Condition {
    Condition::full(3)
}

/// Queries per epoch and rank: half point location, half face neighbor.
pub const QUERIES_PER_EPOCH: usize = 128;

/// Operations attempted and failed. Collective operations count once (on
/// rank 0), rank-local ones on their rank; [`Tally::sum_over_ranks`]
/// makes the totals global.
#[derive(Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one collective operation; `ok` must be the same on every rank.
    pub fn collective(&mut self, ctx: &impl Comm, ok: bool, what: impl FnOnce() -> String) {
        if ctx.rank() == 0 {
            self.local(ok, what);
        }
    }

    pub fn local(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {}", what());
        }
    }

    pub fn sum_over_ranks(&mut self, ctx: &impl Comm) {
        self.attempted = ctx.allreduce_sum(self.attempted);
        self.failed = ctx.allreduce_sum(self.failed);
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Size and checksum of a mesh, the identity the correctness gate
/// compares: equal across repetitions, equal to the pinned value, equal
/// between variants and runtimes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MeshId {
    pub octants: u64,
    pub checksum: u64,
}

impl MeshId {
    pub fn of(ctx: &impl Comm, f: &Forest<3>) -> MeshId {
        MeshId {
            octants: f.num_global(ctx),
            checksum: f.checksum(ctx),
        }
    }
}

/// The result expected under each label: its pin, or else the first
/// result seen. Later results must equal it.
#[derive(Default)]
pub struct Expect {
    pins: &'static [(&'static str, MeshId)],
    seen: BTreeMap<&'static str, MeshId>,
}

impl Expect {
    pub fn new(pins: &'static [(&'static str, MeshId)]) -> Expect {
        Expect {
            pins,
            seen: BTreeMap::new(),
        }
    }

    /// Expect `id` under `label` from now on, whatever its pin says.
    pub fn set(&mut self, label: &'static str, id: MeshId) {
        self.seen.insert(label, id);
    }

    pub fn same(&mut self, label: &'static str, id: MeshId) -> bool {
        let pin = self
            .pins
            .iter()
            .find(|(l, _)| *l == label)
            .map(|(_, pin)| *pin);
        *self.seen.entry(label).or_insert(pin.unwrap_or(id)) == id
    }

    pub fn get(&self, label: &str) -> Option<MeshId> {
        self.seen.get(label).copied()
    }

    /// The labels checked so far with what they are expected to give.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, MeshId)> + '_ {
        self.seen.iter().map(|(k, v)| (*k, *v))
    }
}

/// Which per-layer series a balance feeds.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Off,
    /// Phases and counts: the balance behind the workload's `balance_s`.
    On,
    /// Under the simulator the report's phases are virtual time (zero
    /// for computation), so only the exact counts are kept.
    CountsOnly,
    /// Wall-clock phases of the same mesh on the threaded runtime, for
    /// the workload whose own balance runs on the virtual clock.
    PhasesOnly,
}

/// Everything a rank carries through a workload.
pub struct Run<'a, C: Comm> {
    pub ctx: &'a C,
    pub rec: Rec,
    pub samples: Samples,
    pub tally: Tally,
    pub expect: Expect,
}

impl<'a, C: Comm> Run<'a, C> {
    /// `expect` holds the pinned results and what earlier runs produced.
    pub fn new(ctx: &'a C, trace: bool, origin: Instant, expect: Expect) -> Run<'a, C> {
        Run {
            ctx,
            rec: Rec::new(trace && ctx.rank() == 0, origin),
            samples: Samples::default(),
            tally: Tally::default(),
            expect,
        }
    }

    /// Record one sample on rank 0 (the rank whose clock is reported).
    pub fn sample(&mut self, name: &'static str, v: f64) {
        if self.ctx.rank() == 0 {
            self.samples.push(name, v);
        }
    }

    /// Count a collective operation whose result must equal what `label`
    /// is pinned to or produced before.
    pub fn check_mesh(&mut self, label: &'static str, id: MeshId) {
        let ok = self.expect.same(label, id);
        let want = self.expect.get(label);
        self.tally.collective(self.ctx, ok, || {
            format!("{label}: got {id:?}, expected {want:?}")
        });
    }

    /// Is the mesh 2:1 balanced? Counted as one collective operation.
    pub fn check_balanced(&mut self, f: &mut Forest<3>, label: &'static str) {
        let ok = f.is_balanced_distributed(self.ctx, cond());
        self.tally
            .collective(self.ctx, ok, || format!("{label}: not 2:1 balanced"));
    }

    /// One collective balance of a clone of `src`, barrier to barrier;
    /// `metric` names the series its time goes to.
    pub fn balance(
        &mut self,
        src: &Forest<3>,
        variant: BalanceVariant,
        metric: &'static str,
        label: &'static str,
        layer: Layer,
    ) -> Forest<3> {
        let ctx = self.ctx;
        let mut f = src.clone();
        let sent_before = ctx.stats();
        let (secs, report) = self.rec.timed(ctx, "forest.balance", || {
            f.balance_with_report(ctx, cond(), variant, ReversalScheme::Notify)
        });
        let traffic = ctx.stats().delta_since(&sent_before);
        self.sample(metric, secs);
        self.balance_layer(layer, (src.num_local(), f.num_local()), report, &traffic);
        self.check_mesh(label, MeshId::of(ctx, &f));
        f
    }

    /// Per-layer series of one balance: the report's phases (slowest rank
    /// per phase), and as exact counts its volumes, the traffic of the
    /// timed interval (its two barriers included) and the mesh sizes, all
    /// summed over the cluster.
    fn balance_layer(
        &mut self,
        layer: Layer,
        (local_in, local_out): (usize, usize),
        report: BalanceReport,
        traffic: &CommStats,
    ) {
        let ctx = self.ctx;
        if layer == Layer::On || layer == Layer::PhasesOnly {
            let t = report.timings;
            let phases = [
                ("forest.local_balance_s", t.local_balance),
                ("forest.reversal_s", t.reversal),
                ("forest.query_response_s", t.query_response),
                ("forest.rebalance_s", t.rebalance),
            ];
            let mut phase_ns = 0;
            for (name, d) in phases {
                phase_ns += d.as_nanos() as u64;
                self.sample(name, ctx.allreduce_max(d.as_nanos() as u64) as f64 / 1e9);
            }
            // This rank's phases against its own total: the share the
            // report does not attribute to any phase.
            let total_ns = (t.total.as_nanos() as u64).max(1);
            self.sample(
                "forest.phase_gap_frac",
                1.0 - phase_ns as f64 / total_ns as f64,
            );
        }
        if layer == Layer::On || layer == Layer::CountsOnly {
            let notify: u64 = traffic
                .per_tag()
                .iter()
                .filter(|t| is_notify_tag(t.tag))
                .map(|t| t.messages)
                .sum();
            let counts = [
                ("forest.query_bytes", report.query_bytes),
                ("forest.response_bytes", report.response_bytes),
                ("forest.qr_messages", report.messages),
                ("comm.messages", traffic.messages_sent),
                ("comm.p2p_bytes", traffic.bytes_sent),
                ("comm.collective_calls", traffic.collective_calls),
                ("comm.collective_bytes", traffic.collective_bytes),
                ("comm.notify_messages", notify),
                ("forest.octants_in", local_in as u64),
                ("forest.octants_out", local_out as u64),
            ];
            for (name, local) in counts {
                self.sample(name, ctx.allreduce_sum(local) as f64);
            }
        }
    }

    /// One AMR cycle on a clone of `src`: balance, partition, ghost layer,
    /// node numbering. `layer` is [`Layer::On`] in the workload whose
    /// `balance_s` is the cycle's own balance step.
    pub fn cycle(&mut self, src: &Forest<3>, label: &'static str, layer: Layer) -> Forest<3> {
        let ctx = self.ctx;
        let mut f = src.clone();
        ctx.barrier();
        let t = Instant::now();
        self.rec.open("cycle");
        let sent_before = ctx.stats();
        let (balance, report) = self.rec.timed(ctx, "forest.balance", || {
            f.balance_with_report(ctx, cond(), BalanceVariant::New, ReversalScheme::Notify)
        });
        let traffic = ctx.stats().delta_since(&sent_before);
        let local_out = f.num_local();
        let (partition, ()) = self
            .rec
            .timed(ctx, "forest.partition", || f.partition_uniform(ctx));
        let (ghost, ghosts) = self.rec.timed(ctx, "forest.ghost", || f.ghost_layer(ctx));
        let (nodes, numbering) = self
            .rec
            .timed(ctx, "forest.nodes", || f.enumerate_nodes(ctx));
        let total = t.elapsed().as_secs_f64();
        self.rec.close();

        self.sample("cycle_s", total);
        self.sample("ghost_s", ghost);
        self.sample("nodes_s", nodes);
        self.sample("forest.partition_s", partition);
        if layer != Layer::Off {
            self.sample("balance_s", balance);
        }
        self.balance_layer(layer, (src.num_local(), local_out), report, &traffic);
        let counts = [
            ("forest.ghost_len", ghosts.len() as u64),
            ("forest.nodes_hanging", numbering.num_hanging() as u64),
        ];
        for (name, local) in counts {
            self.sample(name, ctx.allreduce_sum(local) as f64);
        }
        self.sample(
            "forest.nodes_independent",
            numbering.num_global_independent as f64,
        );
        self.check_mesh(label, MeshId::of(ctx, &f));
        f
    }

    /// One service epoch: a block of queries against the snapshot, the
    /// client's batch, submit, commit. With `replay_outside` the same
    /// batch is also applied to a clone outside the service, which gives
    /// the `forest.apply_edits_s` / `forest.balance_incremental_s` split
    /// and checks that the two agree.
    pub fn epoch(
        &mut self,
        svc: &mut ForestService<3>,
        rng: &mut Rng,
        make_batch: impl FnOnce(&Forest<3>) -> AdaptBatch<3>,
        replay_outside: bool,
    ) -> EpochReport {
        let ctx = self.ctx;
        self.rec.open("epoch");

        let picks = sample_leaves(svc.forest(), rng, QUERIES_PER_EPOCH);
        let (queries_s, (point_s, neighbor_s, wrong)) = self
            .rec
            .local("service.queries", || run_queries(ctx, svc, &picks, rng));
        if !picks.is_empty() {
            let per_class = 1e9 / (picks.len() / 2) as f64;
            self.sample("query_ns", queries_s * 1e9 / picks.len() as f64);
            self.sample("service.point_locate_ns", point_s * per_class);
            self.sample("service.neighbor_query_ns", neighbor_s * per_class);
        }
        self.tally.attempted += picks.len() as u64;
        self.tally.failed += wrong as u64;
        if wrong > 0 {
            eprintln!("FAILED: {wrong} point locations missed the sampled leaf");
        }

        let (front_s, batch) = self
            .rec
            .local("service.front_batch", || make_batch(svc.forest()));
        self.sample("service.front_batch_s", front_s);
        let outside = replay_outside.then(|| (svc.forest().clone(), svc.ghosts().clone()));
        let (submit_s, ()) = self
            .rec
            .local("service.submit_batch", || svc.submit_batch(&batch));
        self.sample("service.submit_batch_s", submit_s);
        let (commit_s, report) = self.rec.timed(ctx, "service.commit", || svc.commit(ctx));
        self.rec.close();

        // A fallback epoch is a full balance and a ghost rebuild: another
        // operation than the incremental commit `commit_s` stands for.
        let series = if report.fallback {
            "service.commit_fallback_s"
        } else {
            "commit_s"
        };
        self.sample(series, commit_s);
        let dirty_frac = report.dirty_global as f64 / report.leaves_global.max(1) as f64;
        self.sample("service.dirty_frac", dirty_frac);
        let inc = report.incremental.unwrap_or_default();
        let counts = [
            ("forest.incremental_splits", inc.splits),
            ("forest.incremental_sent_leaves", inc.sent_leaves),
            ("service.skipped_requests", report.skipped),
        ];
        for (name, local) in counts {
            self.sample(name, ctx.allreduce_sum(local) as f64);
        }
        self.sample("forest.incremental_rounds", inc.rounds as f64);

        let mut ok = true;
        if let Some((mut f, mut ghosts)) = outside {
            let committed = MeshId::of(ctx, svc.forest());
            let max_level = ServiceConfig::new(3).max_level;
            let (edit_s, dirty) = self.rec.timed(ctx, "forest.apply_edits", || {
                f.apply_edits(&batch, max_level)
            });
            self.sample("forest.apply_edits_s", edit_s);
            if report.incremental.is_some() {
                let (inc_s, _) = self.rec.timed(ctx, "forest.balance_incremental", || {
                    f.balance_incremental(ctx, cond(), &dirty, &mut ghosts)
                });
                self.sample("forest.balance_incremental_s", inc_s);
                ok = MeshId::of(ctx, &f) == committed;
            }
        }
        self.tally.collective(ctx, ok, || {
            format!(
                "epoch {}: the batch applied outside the service gives another mesh",
                report.epoch
            )
        });
        report
    }

    /// Per-layer: the wire codec over this rank's leaves.
    pub fn codec_layer(&mut self, f: &Forest<3>) {
        for _ in 0..5 {
            let t = Instant::now();
            let bytes = f.serialize_local();
            let encode = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let decoded = Forest::<3>::deserialize_leaves(&bytes);
            let decode = t.elapsed().as_secs_f64();
            let n: usize = decoded.values().map(Vec::len).sum();
            self.tally.local(n == f.num_local(), || {
                "codec round trip lost leaves".to_string()
            });
            self.sample("forest.codec_encode_s", encode);
            self.sample("forest.codec_decode_s", decode);
            self.sample(
                "forest.codec_bytes_per_octant",
                bytes.len() as f64 / n.max(1) as f64,
            );
        }
    }

    /// Per-layer: the same balance with the library's own `Tracer` armed
    /// on every rank and unarmed, alternating; the ratio of the medians
    /// is the tracing overhead.
    pub fn trace_overhead(&mut self, src: &Forest<3>, pairs: u32) {
        let ctx = self.ctx;
        for _ in 0..pairs {
            for armed in [false, true] {
                let mut f = src.clone();
                let tracer = armed.then(|| forestbal::trace::Tracer::begin(ctx.rank()));
                let (secs, _) = self.rec.timed(ctx, "trace.balance", || {
                    f.balance(ctx, cond(), BalanceVariant::New, ReversalScheme::Notify)
                });
                match tracer {
                    Some(tracer) => {
                        let spans = tracer.finish().spans().len();
                        self.sample("trace.armed_s", secs);
                        self.sample("trace.spans_per_balance", spans as f64);
                    }
                    None => self.sample("trace.unarmed_s", secs),
                }
            }
        }
    }
}

/// `n` local leaves drawn uniformly with replacement (none when the rank
/// owns none).
fn sample_leaves(f: &Forest<3>, rng: &mut Rng, n: usize) -> Vec<(TreeId, Octant<3>)> {
    let trees: Vec<_> = f.trees().collect();
    let total = f.num_local();
    if total == 0 {
        return Vec::new();
    }
    (0..n)
        .map(|_| {
            let mut i = rng.below(total);
            for (t, leaves) in &trees {
                if i < leaves.len() {
                    return (*t, leaves.get(i));
                }
                i -= leaves.len();
            }
            unreachable!("index below the local leaf count")
        })
        .collect()
}

/// First half of `picks`: locate each leaf's centre; second half: ask for
/// a face neighbour. Returns the seconds of each half and how many point
/// locations did not return the sampled leaf.
fn run_queries<C: Comm>(
    ctx: &C,
    svc: &mut ForestService<3>,
    picks: &[(TreeId, Octant<3>)],
    rng: &mut Rng,
) -> (f64, f64, usize) {
    let (points, neighbors) = picks.split_at(picks.len() / 2);
    let mut wrong = 0;
    let t = Instant::now();
    for &(tree, leaf) in points {
        let half = leaf.len() / 2;
        let point = [
            leaf.coords[0] + half,
            leaf.coords[1] + half,
            leaf.coords[2] + half,
        ];
        match svc.submit(ctx, Request::PointLocate { tree, point }) {
            Response::Leaf(Some(found)) if found == leaf => {}
            _ => wrong += 1,
        }
    }
    let point_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    for &(tree, octant) in neighbors {
        let side = rng.below(6);
        let sign = if side.is_multiple_of(2) { 1 } else { -1 };
        let answer = svc.submit(
            ctx,
            Request::NeighborQuery {
                tree,
                octant,
                axis: side / 2,
                sign,
            },
        );
        std::hint::black_box(answer);
    }
    (point_s, t.elapsed().as_secs_f64(), wrong)
}

/// Decides whether another round fits the measuring window. A round that
/// would end more than half its own length past the window is not
/// started; `min_rounds` always run.
pub struct Window {
    start: Instant,
    seconds: f64,
    min_rounds: u32,
    /// Exactly this many rounds when set (the traced run: counts must
    /// not depend on the machine's speed).
    fixed_rounds: Option<u32>,
    pub rounds: u32,
}

impl Window {
    pub fn open(seconds: f64, min_rounds: u32, fixed_rounds: Option<u32>) -> Window {
        Window {
            start: Instant::now(),
            seconds,
            min_rounds,
            fixed_rounds,
            rounds: 0,
        }
    }

    /// `agree` turns this rank's opinion into the cluster's decision.
    pub fn another(&mut self, agree: impl FnOnce(bool) -> bool) -> bool {
        let elapsed = self.start.elapsed().as_secs_f64();
        let per_round = elapsed / self.rounds.max(1) as f64;
        let go = agree(match self.fixed_rounds {
            Some(n) => self.rounds < n,
            None => self.rounds < self.min_rounds || elapsed + per_round / 2.0 <= self.seconds,
        });
        self.rounds += u32::from(go);
        go
    }
}
