//! The epoch runtime: snapshot queries, batched adaptations,
//! incremental commit with full-balance fallback.

use forestbal_comm::Comm;
use forestbal_core::{BalanceScratch, Condition};
use forestbal_forest::incremental::IncrementalReport;
use forestbal_forest::{
    AdaptBatch, BalanceVariant, FaceNeighbor, Forest, GhostLayer, ReversalScheme, TreeId,
};
use forestbal_octant::{Coord, Octant, MAX_LEVEL};

/// Tuning knobs of a [`ForestService`]. Every rank must construct the
/// service with identical values — the fallback decision is collective.
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Balance condition re-established at every commit.
    pub cond: Condition,
    /// Refine requests beyond this level are skipped.
    pub max_level: u8,
    /// When the global dirty fraction of an epoch exceeds this, commit
    /// runs a full balance (and rebuilds the ghost layer) instead of
    /// the incremental rebalance. `0.0` forces full balance always;
    /// `1.0` (or anything ≥ 1) never falls back. Full balances run the
    /// New variant with Notify reversal.
    pub fallback_dirty_fraction: f64,
}

impl ServiceConfig {
    /// Defaults for a `D`-dimensional forest: full condition (faces,
    /// edges, corners), no level cap, 10% fallback threshold.
    pub fn new(d: u8) -> Self {
        ServiceConfig {
            cond: Condition::full(d),
            max_level: MAX_LEVEL,
            fallback_dirty_fraction: 0.10,
        }
    }
}

/// One request against the service. Adaptations are queued until the
/// next [`ForestService::commit`]; queries are answered immediately
/// from the current snapshot.
#[derive(Clone, Debug)]
pub enum Request<const D: usize> {
    /// Split this local leaf at the next commit.
    Refine {
        /// Tree holding the leaf.
        tree: TreeId,
        /// The leaf to split.
        leaf: Octant<D>,
    },
    /// Merge this parent's family at the next commit.
    Coarsen {
        /// Tree holding the family.
        tree: TreeId,
        /// The parent replacing its children.
        parent: Octant<D>,
    },
    /// Which local leaf contains this point?
    PointLocate {
        /// Tree to search.
        tree: TreeId,
        /// Integer coordinates in `[0, ROOT_LEN)^D`.
        point: [Coord; D],
    },
    /// Who borders this local leaf across a face?
    NeighborQuery {
        /// Tree holding the leaf.
        tree: TreeId,
        /// The querying leaf.
        octant: Octant<D>,
        /// Face axis, `< D`.
        axis: usize,
        /// Face side, `+1` or `-1`.
        sign: i8,
    },
}

/// The immediate answer to a [`Request`].
#[derive(Clone, Debug)]
pub enum Response<const D: usize> {
    /// The adaptation is queued for the next commit.
    Queued,
    /// Point location: the covering local leaf, or `None` when the
    /// point is owned by another rank (or outside the tree).
    Leaf(Option<Octant<D>>),
    /// Neighbor query result (local, ghost, or domain boundary).
    Neighbor(FaceNeighbor<D>),
}

/// What one [`ForestService::commit`] did.
#[derive(Clone, Copy, Debug, Default)]
pub struct EpochReport {
    /// Epoch number just committed (first commit is epoch 1).
    pub epoch: u64,
    /// Global number of dirty leaves produced by the batch.
    pub dirty_global: u64,
    /// Global leaf count after the edits.
    pub leaves_global: u64,
    /// Leaves split by this rank's batch.
    pub refined: u64,
    /// Families merged by this rank's batch.
    pub coarsened: u64,
    /// Requests skipped by this rank (stale, conflicting, capped).
    pub skipped: u64,
    /// Did the dirty fraction trip the full-balance fallback?
    pub fallback: bool,
    /// Incremental rebalance counters (when not falling back).
    pub incremental: Option<IncrementalReport>,
}

/// A request-driven epoch runtime owning one [`Forest`]. See the crate
/// docs for the lifecycle.
pub struct ForestService<const D: usize> {
    forest: Forest<D>,
    ghosts: GhostLayer<D>,
    scratch: BalanceScratch<D>,
    cfg: ServiceConfig,
    batch: AdaptBatch<D>,
    epoch: u64,
}

impl<const D: usize> ForestService<D> {
    /// Take ownership of `forest`, bring it to a balanced snapshot (one
    /// full balance) and build the initial ghost layer. Collective.
    pub fn new(ctx: &impl Comm, mut forest: Forest<D>, cfg: ServiceConfig) -> Self {
        let mut scratch = BalanceScratch::new();
        forest.balance_with_report_scratch(
            ctx,
            cfg.cond,
            BalanceVariant::New,
            ReversalScheme::Notify,
            &mut scratch,
        );
        let ghosts = forest.ghost_layer(ctx);
        ForestService {
            forest,
            ghosts,
            scratch,
            cfg,
            batch: AdaptBatch::new(),
            epoch: 0,
        }
    }

    /// The current balanced snapshot.
    pub fn forest(&self) -> &Forest<D> {
        &self.forest
    }

    /// The current ghost layer (patched in place by incremental epochs).
    pub fn ghosts(&self) -> &GhostLayer<D> {
        &self.ghosts
    }

    /// Handle one request: answer queries against the snapshot, queue
    /// adaptations. Local (not collective) — ranks submit independently
    /// between commits.
    pub fn submit(&mut self, ctx: &impl Comm, req: Request<D>) -> Response<D> {
        let t0 = forestbal_trace::enabled().then(|| ctx.now_ns());
        let (hist, resp) = match req {
            Request::Refine { tree, leaf } => {
                self.batch.refine(tree, &leaf);
                ("service.refine_ns", Response::Queued)
            }
            Request::Coarsen { tree, parent } => {
                self.batch.coarsen(tree, &parent);
                ("service.coarsen_ns", Response::Queued)
            }
            Request::PointLocate { tree, point } => (
                "service.point_locate_ns",
                Response::Leaf(self.forest.find_leaf_at_point(tree, point)),
            ),
            Request::NeighborQuery {
                tree,
                octant,
                axis,
                sign,
            } => (
                "service.neighbor_query_ns",
                Response::Neighbor(self.forest.face_neighbor(
                    &self.ghosts,
                    tree,
                    &octant,
                    axis,
                    sign,
                )),
            ),
        };
        if let Some(t0) = t0 {
            forestbal_trace::hist(hist, ctx.now_ns().saturating_sub(t0));
        }
        resp
    }

    /// Queue a whole pre-built batch (the workload-generator path).
    pub fn submit_batch(&mut self, batch: &AdaptBatch<D>) {
        self.batch.extend(batch);
    }

    /// End the epoch: apply every queued adaptation, re-establish the
    /// balance condition, and advance to the next snapshot. Collective —
    /// every rank must call `commit` the same number of times, even
    /// with an empty local batch (the fallback decision and the
    /// incremental termination vote are allreduces).
    ///
    /// Below the fallback threshold this runs
    /// [`Forest::balance_incremental`] seeded by the batch's dirty set,
    /// reusing the prior ghost layer; above it, a full
    /// [`Forest::balance`] with the retained scratch, then a ghost
    /// layer rebuild.
    pub fn commit(&mut self, ctx: &impl Comm) -> EpochReport {
        // Under a tracer the span's two clock readings also time the
        // `service.commit_ns` sample.
        let t0 = forestbal_trace::enabled().then(|| ctx.now_ns());
        forestbal_trace::span_begin("service.commit", || t0.unwrap_or_default());
        let batch = std::mem::take(&mut self.batch);
        let dirty = self.forest.apply_edits(&batch, self.cfg.max_level);

        let dirty_global = ctx.allreduce_sum(dirty.len() as u64);
        let leaves_global = ctx.allreduce_sum(self.forest.num_local() as u64);
        let fallback =
            dirty_global as f64 > self.cfg.fallback_dirty_fraction * leaves_global as f64;

        let mut report = EpochReport {
            epoch: self.epoch + 1,
            dirty_global,
            leaves_global,
            refined: dirty.refined,
            coarsened: dirty.coarsened,
            skipped: dirty.skipped,
            fallback,
            ..EpochReport::default()
        };
        if dirty_global > 0 {
            if fallback {
                self.forest.balance_with_report_scratch(
                    ctx,
                    self.cfg.cond,
                    BalanceVariant::New,
                    ReversalScheme::Notify,
                    &mut self.scratch,
                );
                self.ghosts = self.forest.ghost_layer(ctx);
                forestbal_trace::counter_add("service.fallbacks", 1);
            } else {
                report.incremental = Some(self.forest.balance_incremental(
                    ctx,
                    self.cfg.cond,
                    &dirty,
                    &mut self.ghosts,
                ));
            }
        }
        self.epoch += 1;
        forestbal_trace::counter_add("service.epochs", 1);
        if let Some(t0) = t0 {
            let t1 = ctx.now_ns();
            forestbal_trace::hist("service.commit_ns", t1.saturating_sub(t0));
            forestbal_trace::span_end(|| t1);
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use forestbal_comm::{Cluster, CommStats, RankCtx};
    use forestbal_forest::serial::is_forest_balanced;
    use forestbal_forest::BrickConnectivity;
    use std::cell::Cell;
    use std::sync::Arc;

    fn service_2d(ctx: &impl Comm, p_cfg: ServiceConfig) -> ForestService<2> {
        let conn = Arc::new(BrickConnectivity::<2>::unit());
        let mut f = Forest::new_uniform(conn, ctx, 2);
        f.refine(true, 4, |_, o| o.coords == [0, 0]);
        ForestService::new(ctx, f, p_cfg)
    }

    #[test]
    fn epoch_loop_stays_balanced_and_serves_queries() {
        Cluster::run(2, |ctx| {
            let mut cfg = ServiceConfig::new(2);
            // The test forest is tiny; any real batch exceeds 10%.
            cfg.fallback_dirty_fraction = 1.0;
            let mut svc = service_2d(ctx, cfg);
            for epoch in 0..3u32 {
                // Refine the deepest local leaf each epoch.
                let deepest = svc
                    .forest()
                    .trees()
                    .flat_map(|(t, v)| v.iter().map(move |o| (t, o)))
                    .max_by_key(|(_, o)| o.level);
                if let Some((t, o)) = deepest {
                    let r = svc.submit(ctx, Request::Refine { tree: t, leaf: o });
                    assert!(matches!(r, Response::Queued));
                }
                let rep = svc.commit(ctx);
                assert_eq!(rep.epoch, epoch as u64 + 1);
                assert!(!rep.fallback, "tiny batch must stay incremental");
                let g = svc.forest().gather(ctx);
                assert!(is_forest_balanced(
                    svc.forest().connectivity(),
                    &g,
                    cfg.cond
                ));

                // Snapshot queries between epochs.
                let r = svc.submit(
                    ctx,
                    Request::PointLocate {
                        tree: 0,
                        point: [0, 0],
                    },
                );
                let Response::Leaf(leaf) = r else {
                    panic!("wrong response variant")
                };
                let one = ctx.allreduce_sum(leaf.is_some() as u64);
                assert_eq!(one, 1, "exactly one rank resolves the origin");
                let first = svc.forest().trees().next().map(|(t, v)| (t, v.get(0)));
                if let Some((t, o)) = first {
                    let r = svc.submit(
                        ctx,
                        Request::NeighborQuery {
                            tree: t,
                            octant: o,
                            axis: 0,
                            sign: 1,
                        },
                    );
                    assert!(matches!(r, Response::Neighbor(_)));
                }
            }
        });
    }

    #[test]
    fn zero_threshold_forces_fallback() {
        Cluster::run(2, |ctx| {
            let mut cfg = ServiceConfig::new(2);
            cfg.fallback_dirty_fraction = 0.0;
            let mut svc = service_2d(ctx, cfg);
            let first = svc.forest().trees().next().map(|(t, v)| (t, v.get(0)));
            if let Some((t, o)) = first {
                svc.submit(ctx, Request::Refine { tree: t, leaf: o });
            }
            let rep = svc.commit(ctx);
            assert!(rep.fallback && rep.incremental.is_none());
            // The rebuilt ghost layer serves the next epoch.
            let rep2 = svc.commit(ctx);
            assert_eq!(rep2.dirty_global, 0);
        });
    }

    #[test]
    fn empty_commit_is_cheap_and_collective() {
        Cluster::run(3, |ctx| {
            let cfg = ServiceConfig::new(2);
            let mut svc = service_2d(ctx, cfg);
            let before = svc.forest().checksum(ctx);
            // A parent at `MAX_LEVEL` has no family: skipped, not applied.
            let parent = Octant::root().first_descendant(MAX_LEVEL);
            svc.submit(ctx, Request::Coarsen { tree: 0, parent });
            let rep = svc.commit(ctx);
            assert_eq!(rep.skipped, 1);
            assert_eq!(rep.dirty_global, 0);
            assert!(rep.incremental.is_none() && !rep.fallback);
            assert_eq!(svc.forest().checksum(ctx), before);
        });
    }

    /// A [`RankCtx`] that counts its clock reads.
    struct ClockCounting<'a> {
        inner: &'a RankCtx,
        reads: Cell<u64>,
    }

    impl Comm for ClockCounting<'_> {
        fn rank(&self) -> usize {
            self.inner.rank()
        }
        fn size(&self) -> usize {
            self.inner.size()
        }
        fn send(&self, dst: usize, tag: u32, data: Vec<u8>) {
            self.inner.send(dst, tag, data)
        }
        fn recv(&self, src: Option<usize>, tag: u32) -> (usize, Vec<u8>) {
            self.inner.recv(src, tag)
        }
        fn allgather(&self, data: Vec<u8>) -> Arc<Vec<Vec<u8>>> {
            self.inner.allgather(data)
        }
        fn stats(&self) -> CommStats {
            self.inner.stats()
        }
        fn now_ns(&self) -> u64 {
            self.reads.set(self.reads.get() + 1);
            self.inner.now_ns()
        }
    }

    /// One request of every class, then an incremental commit.
    fn one_of_each(ctx: &impl Comm, svc: &mut ForestService<2>) {
        let (tree, leaf) = svc
            .forest()
            .trees()
            .flat_map(|(t, v)| v.iter().map(move |o| (t, o)))
            .max_by_key(|(_, o)| o.level)
            .expect("every rank holds leaves");
        svc.submit(ctx, Request::Refine { tree, leaf });
        let parent = Octant::root().first_descendant(MAX_LEVEL);
        svc.submit(ctx, Request::Coarsen { tree: 0, parent });
        let point = [0, 0];
        svc.submit(ctx, Request::PointLocate { tree: 0, point });
        let (axis, sign) = (0, 1);
        svc.submit(
            ctx,
            Request::NeighborQuery {
                tree,
                octant: leaf,
                axis,
                sign,
            },
        );
        let rep = svc.commit(ctx);
        assert!(rep.dirty_global > 0 && rep.incremental.is_some());
    }

    #[test]
    fn requests_read_the_clock_only_for_a_tracer() {
        Cluster::run(2, |rank_ctx| {
            let ctx = ClockCounting {
                inner: rank_ctx,
                reads: Cell::new(0),
            };
            let mut cfg = ServiceConfig::new(2);
            cfg.fallback_dirty_fraction = 1.0;
            let mut svc = service_2d(&ctx, cfg);
            ctx.reads.set(0);
            one_of_each(&ctx, &mut svc);
            assert_eq!(ctx.reads.get(), 0, "untraced requests read the clock");

            #[cfg(feature = "trace")]
            {
                let tracer = forestbal_trace::Tracer::begin(ctx.rank());
                ctx.reads.set(0);
                one_of_each(&ctx, &mut svc);
                let trace = tracer.finish();
                // Two readings per request; the commit's span events
                // (its own and those of the incremental balance) carry
                // one reading each, which the commit sample reuses.
                let events = trace.events.len() as u64;
                assert_eq!(ctx.reads.get(), 2 * 4 + events, "{events} span events");
                for name in [
                    "service.refine_ns",
                    "service.coarsen_ns",
                    "service.point_locate_ns",
                    "service.neighbor_query_ns",
                    "service.commit_ns",
                ] {
                    let n = trace.histograms.get(name).map(|h| h.count());
                    assert_eq!(n, Some(1), "{name}");
                }
            }
        });
    }
}
