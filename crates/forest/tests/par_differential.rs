//! Determinism contract of the intra-rank pool, end to end: every
//! parallelized forest path must produce bit-identical results at every
//! pool width, and mixing the threaded `Cluster` runtime with multi-
//! worker pools (heavily oversubscribed on any host) must neither
//! deadlock nor change a single byte.

use forestbal_comm::Cluster;
use forestbal_core::Condition;
use forestbal_forest::{
    AdaptBatch, BalanceVariant, BrickConnectivity, Forest, GhostLayer, ReversalScheme, TreeId,
};
use forestbal_octant::Octant;
use forestbal_par::Pool;
use std::collections::BTreeMap;
use std::sync::Arc;

const THREAD_COUNTS: [usize; 4] = [1, 2, 3, 8];

/// Gathered forest plus checksum, the whole observable outcome.
type Outcome<const D: usize> = (BTreeMap<TreeId, Vec<Octant<D>>>, u64);

/// Run refine + balance + ghost layer on `p` ranks, each rank's work
/// dispatched through a pool of `threads` workers.
fn balance_outcome<const D: usize>(
    conn: &Arc<BrickConnectivity<D>>,
    p: usize,
    threads: usize,
    cond: Condition,
    refine: impl Fn(TreeId, &Octant<D>) -> bool + Sync,
) -> (Outcome<D>, Vec<GhostLayer<D>>) {
    let conn = Arc::clone(conn);
    let refine = &refine;
    let out = Cluster::run(p, move |ctx| {
        // One pool *per rank thread*: `install` is thread-local, so each
        // simulated rank gets its own width-`threads` worker set.
        let pool = Arc::new(Pool::new(threads));
        pool.install(|| {
            let mut f = Forest::new_uniform(Arc::clone(&conn), ctx, 2);
            f.refine(true, 6, |t, o| refine(t, o));
            f.balance(ctx, cond, BalanceVariant::New, ReversalScheme::Notify);
            let ghosts = f.ghost_layer(ctx);
            ((f.gather(ctx), f.checksum(ctx)), ghosts)
        })
    });
    // Every rank gathers the same global forest; the ghost layer is
    // rank-local, so whole layers (keys, owners, order) are compared per
    // rank across widths.
    for (w, _) in &out.results {
        assert_eq!(w, &out.results[0].0, "ranks disagree on the forest");
    }
    let layers = out.results.iter().map(|(_, g)| g.clone()).collect();
    (out.results[0].0.clone(), layers)
}

fn hugger_2d(_t: TreeId, o: &Octant<2>) -> bool {
    o.coords.iter().all(|&c| c < 80)
}

fn hugger_3d(t: TreeId, o: &Octant<3>) -> bool {
    t.is_multiple_of(2) && o.coords.iter().all(|&c| c < 80)
}

#[test]
fn balance_bit_identical_across_thread_counts_2d() {
    let conn = Arc::new(BrickConnectivity::<2>::new([3, 2], [false; 2]));
    let mut base: Option<(Outcome<2>, Vec<GhostLayer<2>>)> = None;
    for threads in THREAD_COUNTS {
        let got = balance_outcome(&conn, 3, threads, Condition::full(2), hugger_2d);
        match &base {
            None => base = Some(got),
            Some(b) => assert_eq!(&got, b, "outcome changed at {threads} threads"),
        }
    }
}

#[test]
fn balance_bit_identical_across_thread_counts_3d() {
    let conn = Arc::new(BrickConnectivity::<3>::new([2, 2, 1], [false; 3]));
    let mut base: Option<(Outcome<3>, Vec<GhostLayer<3>>)> = None;
    for threads in THREAD_COUNTS {
        let got = balance_outcome(&conn, 2, threads, Condition::full(3), hugger_3d);
        match &base {
            None => base = Some(got),
            Some(b) => assert_eq!(&got, b, "outcome changed at {threads} threads"),
        }
    }
}

#[test]
fn apply_edits_bit_identical_across_thread_counts() {
    // The per-tree edit-validation scans run one task per dirty tree;
    // the dirty set and the leaf arrays must not depend on pool width.
    let conn = Arc::new(BrickConnectivity::<2>::new([4, 1], [false; 2]));
    type EditsOutcome = (Outcome<2>, Vec<(TreeId, Vec<u128>)>, u64);
    let mut base: Option<EditsOutcome> = None;
    for threads in THREAD_COUNTS {
        let conn2 = Arc::clone(&conn);
        let out = Cluster::run(1, move |ctx| {
            let pool = Arc::new(Pool::new(threads));
            pool.install(|| {
                let mut f = Forest::new_uniform(Arc::clone(&conn2), ctx, 3);
                let mut batch = AdaptBatch::new();
                for (t, v) in f.trees() {
                    for (i, o) in v.iter().enumerate() {
                        if i % 3 == 0 {
                            batch.refine(t, &o);
                        }
                    }
                }
                let dirty = f.apply_edits(&batch, 6);
                let per_tree: Vec<(TreeId, Vec<u128>)> =
                    dirty.iter().map(|(t, ks)| (t, ks.to_vec())).collect();
                (
                    (f.gather(ctx), f.checksum(ctx)),
                    per_tree,
                    dirty.refined + dirty.coarsened + dirty.skipped,
                )
            })
        });
        let got = out.results[0].clone();
        match &base {
            None => base = Some(got),
            Some(b) => assert_eq!(&got, b, "edits changed at {threads} threads"),
        }
    }
}

#[test]
fn oversubscribed_ranks_and_workers_run_to_completion() {
    // 4 rank threads x 8 pool workers each = 32 live threads regardless
    // of the host's core count. The dispatcher always participates in
    // its own batch, so no rank ever parks waiting for a worker that
    // cannot be scheduled — the run must terminate with the width-1
    // answer, checksums included.
    let conn = Arc::new(BrickConnectivity::<2>::new([2, 2], [true, false]));
    let serial = balance_outcome(&conn, 4, 1, Condition::full(2), hugger_2d);
    let wide = balance_outcome(&conn, 4, 8, Condition::full(2), hugger_2d);
    assert_eq!(serial, wide);
}
