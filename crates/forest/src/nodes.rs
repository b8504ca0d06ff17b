//! Node (vertex) enumeration with hanging-node classification.
//!
//! "Enumerating nodes" is one of the frequently used octree mesh
//! operations named in the paper's abstract, and the reason 2:1 balance
//! exists at all: finite element spaces need each leaf corner classified
//! as *independent* (a regular vertex shared by equally-sized neighbors)
//! or *hanging* (lying inside a face or edge of a coarser neighbor, its
//! value constrained by interpolation — Figure 1's T-intersections).
//!
//! Nodes are identified by canonical global integer coordinates across
//! the whole brick (periodic axes wrap), deduplicated without
//! communication: every rank incident to a node derives the same
//! coordinates and the same owner from the partition markers.

use crate::forest::{Forest, GlobalPos};
use crate::ghost::GhostLayer;
use forestbal_comm::Comm;
use forestbal_octant::{Coord, Octant, MAX_LEVEL, ROOT_LEN};

/// One node incident to this rank's leaves.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct NodeInfo<const D: usize> {
    /// Canonical global integer coordinates (units of the finest cell).
    pub gcoord: [i64; D],
    /// Does a coarser touching leaf fail to share this corner?
    pub hanging: bool,
    /// Does this rank own the node (for global counting)?
    pub owned: bool,
}

/// The node set incident to one rank's partition.
#[derive(Clone, Debug, Default)]
pub struct Nodes<const D: usize> {
    /// Sorted by `gcoord`, deduplicated.
    pub nodes: Vec<NodeInfo<D>>,
    /// Cluster-wide number of independent (non-hanging) nodes.
    pub num_global_independent: u64,
}

impl<const D: usize> Nodes<D> {
    /// Count of local hanging nodes.
    pub fn num_hanging(&self) -> usize {
        self.nodes.iter().filter(|n| n.hanging).count()
    }

    /// Count of local independent nodes owned by this rank.
    pub fn num_owned_independent(&self) -> usize {
        self.nodes.iter().filter(|n| n.owned && !n.hanging).count()
    }
}

impl<const D: usize> Forest<D> {
    /// Enumerate the nodes incident to local leaves, classify hanging
    /// nodes, assign owners, and count independent nodes globally.
    ///
    /// The forest must be 2:1 balanced for the hanging classification to
    /// be meaningful (the method itself tolerates any forest).
    pub fn enumerate_nodes(&mut self, ctx: &impl Comm) -> Nodes<D> {
        forestbal_trace::span_begin("nodes", || ctx.now_ns());
        let ghosts = self.ghost_layer(ctx);
        let dims = self.connectivity().dims();
        let extent: [i64; D] = std::array::from_fn(|i| dims[i] as i64 * ROOT_LEN as i64);

        // Candidate nodes: all corners of all local leaves.
        let mut coords: Vec<[i64; D]> = Vec::new();
        for (t, v) in self.trees() {
            let tc = self.connectivity().tree_coords(t);
            for o in v.iter() {
                for corner in 0..Octant::<D>::NUM_CHILDREN {
                    coords.push(self.canonical_node(&tc, &o, corner, &extent));
                }
            }
        }
        // Node coordinates are `[i64; D]` global grid points, not Morton
        // keys, so the packed radix path does not apply here; this sort
        // is outside the balance hot path.
        coords.sort_unstable();
        coords.dedup();

        let mut nodes = Vec::with_capacity(coords.len());
        let mut owned_independent = 0u64;
        for g in coords {
            let (hanging, owner_pos) = self.classify_node(&ghosts, &g, &extent);
            let owned = owner_pos.is_some_and(|pos| {
                let o = self.owner_of(pos);
                o == self.rank()
            });
            if owned && !hanging {
                owned_independent += 1;
            }
            nodes.push(NodeInfo {
                gcoord: g,
                hanging,
                owned,
            });
        }

        let num_global_independent = ctx.allreduce_sum(owned_independent);
        let out = Nodes {
            nodes,
            num_global_independent,
        };
        forestbal_trace::counter_add("nodes.local", out.nodes.len() as u64);
        forestbal_trace::counter_add("nodes.hanging", out.num_hanging() as u64);
        forestbal_trace::span_end(|| ctx.now_ns());
        out
    }

    /// Canonical global coordinates of leaf corner `corner`.
    fn canonical_node(
        &self,
        tree_coords: &[usize; D],
        o: &Octant<D>,
        corner: usize,
        extent: &[i64; D],
    ) -> [i64; D] {
        let periodic = self.periodic_axes();
        std::array::from_fn(|i| {
            let mut g = tree_coords[i] as i64 * ROOT_LEN as i64
                + o.coords[i] as i64
                + ((corner >> i) & 1) as i64 * o.len() as i64;
            if periodic[i] {
                g = g.rem_euclid(extent[i]);
            }
            g
        })
    }

    /// Classify one node: hanging flag and the canonical owner position
    /// (the Morton-least in-domain incident unit cell), `None` for a node
    /// with no in-domain incident cell (cannot happen for leaf corners).
    fn classify_node(
        &self,
        ghosts: &GhostLayer<D>,
        g: &[i64; D],
        extent: &[i64; D],
    ) -> (bool, Option<GlobalPos>) {
        let periodic = self.periodic_axes();
        let mut hanging = false;
        let mut owner: Option<GlobalPos> = None;
        for delta in 0..Octant::<D>::NUM_CHILDREN {
            // Incident unit cell: lower corner g - delta.
            let mut u = [0i64; D];
            let mut outside = false;
            for i in 0..D {
                u[i] = g[i] - ((delta >> i) & 1) as i64;
                if periodic[i] {
                    u[i] = u[i].rem_euclid(extent[i]);
                } else if u[i] < 0 || u[i] >= extent[i] {
                    outside = true;
                    break;
                }
            }
            if outside {
                continue;
            }
            // Split into (tree, local cell).
            let mut tc = [0usize; D];
            let mut lc = [0 as Coord; D];
            for i in 0..D {
                tc[i] = (u[i] / ROOT_LEN as i64) as usize;
                lc[i] = (u[i] % ROOT_LEN as i64) as Coord;
            }
            let Some(tree) = self.connectivity().try_tree_id(tc) else {
                continue; // masked-out cell: outside the domain
            };
            let cell = Octant::<D> {
                coords: lc,
                level: MAX_LEVEL,
            };
            let pos = GlobalPos {
                tree,
                index: cell.index(),
            };
            owner = Some(match owner {
                Some(best) if best <= pos => best,
                _ => pos,
            });
            // The touching leaf: hanging iff it doesn't share the node.
            if let Some(leaf) = self.containing_leaf(Some(ghosts), tree, &cell) {
                let tcoords = self.connectivity().tree_coords(tree);
                let shares = (0..Octant::<D>::NUM_CHILDREN)
                    .any(|corner| self.canonical_node(&tcoords, &leaf, corner, extent) == *g);
                hanging |= !shares;
            }
        }
        (hanging, owner)
    }

    /// Periodicity flags of the connectivity (helper).
    fn periodic_axes(&self) -> [bool; D] {
        self.connectivity().periodic()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::{BalanceVariant, ReversalScheme};
    use crate::connectivity::BrickConnectivity;
    use forestbal_comm::Cluster;
    use forestbal_core::Condition;
    use std::sync::Arc;

    #[test]
    fn uniform_grid_node_count() {
        // A uniform level-l quadtree has (2^l + 1)^2 nodes, none hanging.
        let conn = Arc::new(BrickConnectivity::<2>::unit());
        for p in [1usize, 3] {
            let conn = Arc::clone(&conn);
            Cluster::run(p, move |ctx| {
                let mut f = Forest::new_uniform(Arc::clone(&conn), ctx, 2);
                let nodes = f.enumerate_nodes(ctx);
                assert_eq!(nodes.num_global_independent, 25);
                assert_eq!(nodes.num_hanging(), 0);
            });
        }
    }

    #[test]
    fn uniform_3d_node_count() {
        let conn = Arc::new(BrickConnectivity::<3>::unit());
        Cluster::run(2, |ctx| {
            let mut f = Forest::new_uniform(Arc::clone(&conn), ctx, 1);
            let nodes = f.enumerate_nodes(ctx);
            assert_eq!(nodes.num_global_independent, 27);
        });
    }

    #[test]
    fn multitree_shared_boundary_nodes_counted_once() {
        // Two unit trees side by side at level 1: 3x5 usable grid = 15
        // nodes (the shared edge's 3 nodes counted once).
        let conn = Arc::new(BrickConnectivity::<2>::new([2, 1], [false, false]));
        Cluster::run(2, |ctx| {
            let mut f = Forest::new_uniform(Arc::clone(&conn), ctx, 1);
            let nodes = f.enumerate_nodes(ctx);
            assert_eq!(nodes.num_global_independent, 15);
        });
    }

    #[test]
    fn hanging_nodes_on_balanced_interface() {
        // Refine one quadrant once: the interface between level-1 and
        // level-2 leaves carries hanging nodes at the edge midpoints.
        let conn = Arc::new(BrickConnectivity::<2>::unit());
        Cluster::run(1, |ctx| {
            let mut f = Forest::new_uniform(Arc::clone(&conn), ctx, 1);
            f.refine(false, 2, |_, o| o.coords == [0, 0]);
            // Already balanced (single level difference).
            let nodes = f.enumerate_nodes(ctx);
            // Nodes: 3x3 coarse grid (9) + 5x5 fine grid in quadrant 0
            // minus shared corners... count hanging explicitly: the two
            // T-intersections at the quadrant's outer edges.
            assert_eq!(nodes.num_hanging(), 2);
            // Independent: 9 coarse + fine-grid interior/edge nodes that
            // are corners of all their touching leaves.
            let total = nodes.nodes.len();
            assert_eq!(total as u64 - 2, nodes.num_global_independent);
        });
    }

    #[test]
    fn t_intersections_once_per_face() {
        // Figure 1's caption: on a face-balanced mesh every leaf edge
        // contains at most ONE hanging node strictly inside it.
        let conn = Arc::new(BrickConnectivity::<2>::unit());
        Cluster::run(2, |ctx| {
            let mut f = Forest::new_uniform(Arc::clone(&conn), ctx, 1);
            f.refine(true, 5, |_, o| o.coords[0] == o.coords[1]);
            f.balance(
                ctx,
                Condition::FACE,
                BalanceVariant::New,
                ReversalScheme::Notify,
            );
            let nodes = f.enumerate_nodes(ctx);
            let hanging: Vec<[i64; 2]> = nodes
                .nodes
                .iter()
                .filter(|n| n.hanging)
                .map(|n| n.gcoord)
                .collect();
            assert!(!hanging.is_empty(), "graded mesh must have T-intersections");
            let leaves: Vec<Octant<2>> = f.trees().flat_map(|(_, v)| v.iter()).collect();
            for o in &leaves {
                for axis in 0..2 {
                    for side in 0..2 {
                        // Edge of o along `axis == fixed`, varying other.
                        let fixed = o.coords[axis] as i64 + side * o.len() as i64;
                        let lo = o.coords[1 - axis] as i64;
                        let hi = lo + o.len() as i64;
                        let inside = hanging
                            .iter()
                            .filter(|g| g[axis] == fixed && g[1 - axis] > lo && g[1 - axis] < hi)
                            .count();
                        assert!(
                            inside <= 1,
                            "leaf {o:?} edge carries {inside} hanging nodes"
                        );
                    }
                }
            }
        });
    }

    #[test]
    fn node_counts_partition_invariant() {
        let conn = Arc::new(BrickConnectivity::<2>::new([2, 2], [false, false]));
        let mut counts = vec![];
        for p in [1usize, 2, 5] {
            let conn = Arc::clone(&conn);
            let out = Cluster::run(p, move |ctx| {
                let mut f = Forest::new_uniform(Arc::clone(&conn), ctx, 1);
                f.refine(true, 4, |t, o| t == 0 && o.coords[0] + o.len() == (1 << 24));
                f.balance(
                    ctx,
                    Condition::full(2),
                    BalanceVariant::New,
                    ReversalScheme::Notify,
                );
                let nodes = f.enumerate_nodes(ctx);
                nodes.num_global_independent
            });
            counts.push(out.results[0]);
        }
        assert_eq!(counts[0], counts[1]);
        assert_eq!(counts[0], counts[2]);
    }

    #[test]
    fn l_shaped_masked_brick_nodes() {
        // Three unit trees in an L at level 1: count the grid nodes of
        // the L-shaped domain. Grid: 2x2 cells per tree; L covers trees
        // (0,0), (1,0), (0,1). Unique nodes of the L at spacing 1/2:
        // full 5x5 grid (25) minus the 2x2 interior-of-the-hole block
        // strictly inside the missing tree (its 4 interior + 4 edge...
        // compute: nodes with both coords > 1.0 (in tree units) belong
        // only to the missing tree; at level 1 those are (1.5, 1.5),
        // (1.5, 2), (2, 1.5), (2, 2) = 4 nodes.
        let conn = Arc::new(BrickConnectivity::<2>::masked([2, 2], [false; 2], |c| {
            c != [1, 1]
        }));
        Cluster::run(2, |ctx| {
            let mut f = Forest::new_uniform(Arc::clone(&conn), ctx, 1);
            let nodes = f.enumerate_nodes(ctx);
            assert_eq!(nodes.num_global_independent, 25 - 4);
            assert_eq!(nodes.num_hanging(), 0);
        });
    }

    #[test]
    fn periodic_nodes_wrap() {
        // Fully periodic single tree at level 1: nodes form a 2x2 torus
        // grid -> 4 independent nodes.
        let conn = Arc::new(BrickConnectivity::<2>::new([1, 1], [true, true]));
        Cluster::run(1, |ctx| {
            let mut f = Forest::new_uniform(Arc::clone(&conn), ctx, 1);
            let nodes = f.enumerate_nodes(ctx);
            assert_eq!(nodes.num_global_independent, 4);
        });
    }
}
