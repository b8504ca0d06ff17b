//! Property tests for node enumeration and face classification on
//! random balanced forests.

use forestbal_comm::{Cluster, Comm};
use forestbal_core::Condition;
use forestbal_forest::{
    BalanceVariant, BrickConnectivity, FaceNeighbor, Forest, ReversalScheme, TreeId,
};
use forestbal_octant::Octant;
use proptest::prelude::*;
use std::sync::Arc;

fn pseudo_refine(seed: u64, t: TreeId, o: &Octant<2>, denom: u64) -> bool {
    let mut h = seed ^ (t as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for &c in &o.coords {
        h ^= (c as u64).wrapping_mul(0xff51_afd7_ed55_8ccd);
        h = h.rotate_left(31);
    }
    h ^= o.level as u64;
    (h.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33).is_multiple_of(denom)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn node_and_face_invariants(
        seed in any::<u64>(),
        p in 1usize..5,
        denom in 3u64..6,
        nx in 1usize..3,
    ) {
        let conn = Arc::new(BrickConnectivity::<2>::new([nx, 1], [false, false]));
        let conn2 = Arc::clone(&conn);
        let out = Cluster::run(p, move |ctx| {
            let mut f = Forest::new_uniform(Arc::clone(&conn2), ctx, 1);
            f.refine(true, 4, |t, o| pseudo_refine(seed, t, o, denom));
            f.balance(
                ctx,
                Condition::FACE,
                BalanceVariant::New,
                ReversalScheme::Notify,
            );
            let leaves_global = f.num_global(ctx);
            let nodes = f.enumerate_nodes(ctx);
            let owned: u64 = nodes.num_owned_independent() as u64;
            let ghosts = f.ghost_layer(ctx);
            // Classify every face of every local leaf; each face is
            // counted once across the cluster.
            let (mut b, mut s, mut h, mut fine) = (0u64, 0u64, 0u64, 0u64);
            for (t, v) in f.trees() {
                for o in v.iter() {
                    for axis in 0..2 {
                        for sign in [-1i8, 1] {
                            match f.face_neighbor(&ghosts, t, &o, axis, sign) {
                                FaceNeighbor::Boundary => b += 1,
                                // From the globally smaller side only.
                                FaceNeighbor::Same(t2, n) => s += u64::from((t, o) < (t2, n)),
                                // The fine side counts the hanging sub-face.
                                FaceNeighbor::Coarse(..) => h += 1,
                                FaceNeighbor::Fine(_, n) => fine += n.len() as u64,
                            }
                        }
                    }
                }
            }
            (
                leaves_global,
                nodes.num_global_independent,
                ctx.allreduce_sum(owned),
                ctx.allreduce_sum(b),
                ctx.allreduce_sum(s),
                ctx.allreduce_sum(h),
                ctx.allreduce_sum(fine),
                ctx.allreduce_sum(nodes.num_hanging() as u64),
            )
        });
        let (leaves, indep, owned_sum, b, s, h, fine, hang_incidence) = out.results[0];
        for r in &out.results {
            prop_assert_eq!(r, &out.results[0], "ranks disagree");
        }
        // Owner counting is exact: the sum of per-rank owned independent
        // nodes equals the global count.
        prop_assert_eq!(owned_sum, indep);
        // Face-handshake identity: every leaf has 2D faces; each Same
        // face accounts for 2 leaf-faces, each Boundary for 1, each
        // Hanging sub-face for 1 fine leaf-face plus a share of the
        // coarse face: the coarse leaf-face opposite 2^{d-1}=2 hanging
        // sub-faces contributes 1, so 2 hanging sub-faces = 3 leaf-faces.
        prop_assert_eq!(h % 2, 0, "2D hanging sub-faces come in pairs");
        // Each hanging sub-face is seen from both sides: the coarse
        // leaf lists the fine leaf that sees the coarse one.
        prop_assert_eq!(fine, h, "coarse and fine sides disagree");
        prop_assert_eq!(
            4 * leaves,
            b + 2 * s + h + h / 2,
            "face handshake: leaves={} b={} s={} h={}", leaves, b, s, h
        );
        // Face balance: every hanging incidence count is finite and the
        // mesh has hanging nodes iff it has hanging faces.
        prop_assert_eq!(h > 0, hang_incidence > 0);
    }
}
