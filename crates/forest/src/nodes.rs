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

use crate::connectivity::{BrickConnectivity, TreeId};
use crate::forest::{Forest, GlobalPos};
use forestbal_comm::Comm;
use forestbal_octant::{morton, Coord, Octant, ROOT_LEN};

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

/// Width of one coordinate field of a packed node record: `D` fields and
/// the low "local" bit fill a `u128`.
const fn field_bits<const D: usize>() -> u32 {
    127 / D as u32
}

/// One `(leaf, corner)` incidence as a sortable `u128`: the node's
/// canonical coordinates, axis 0 in the most significant field (so record
/// order is the lexicographic `gcoord` order of [`Nodes::nodes`]), above a
/// low bit that tells a local leaf's corner from a ghost's. 16 bytes per
/// incidence keep the `2^D × leaves` records inside the cycle's memory
/// budget; a `([i64; D], bool)` record would double them.
#[inline]
fn pack_record<const D: usize>(g: &[i64; D], local: bool) -> u128 {
    let mut rec = 0u128;
    for &c in g {
        rec = rec << field_bits::<D>() | c as u128;
    }
    rec << 1 | local as u128
}

/// The canonical coordinates of a record.
#[inline]
fn record_gcoord<const D: usize>(rec: u128) -> [i64; D] {
    let w = field_bits::<D>();
    std::array::from_fn(|i| ((rec >> (1 + (D - 1 - i) as u32 * w)) & ((1 << w) - 1)) as i64)
}

impl<const D: usize> Forest<D> {
    /// Enumerate the nodes incident to local leaves, classify hanging
    /// nodes, assign owners, and count independent nodes globally.
    ///
    /// One sweep, no search: every corner of every local and ghost leaf
    /// becomes a record, one sort brings the incidences of each node
    /// together, and a node is hanging iff it has fewer corner incidences
    /// than in-domain incident unit cells. (The leaf containing an incident
    /// cell either has the node as a corner — then it contains exactly that
    /// one incident cell — or holds the node inside a face or edge, which
    /// is what hanging means; and every leaf touching a local leaf is
    /// local or in the ghost layer.)
    ///
    /// The forest must be 2:1 balanced for the hanging classification to
    /// be meaningful (the method itself tolerates any forest).
    pub fn enumerate_nodes(&self, ctx: &impl Comm) -> Nodes<D> {
        forestbal_trace::span_begin("nodes", || ctx.now_ns());
        let ghosts = self.ghost_layer(ctx);
        let domain = Domain::new(self.connectivity());
        assert!(
            domain.extent.iter().all(|&e| e >> field_bits::<D>() == 0),
            "brick extent {:?} overflows a {}-bit node record field",
            domain.extent,
            field_bits::<D>()
        );

        let corners = Octant::<D>::NUM_CHILDREN;
        let mut records: Vec<u128> =
            Vec::with_capacity((self.num_local() + ghosts.len()) * corners);
        let mut push_corners = |base: &[i64; D], o: &Octant<D>, local: bool| {
            for corner in 0..corners {
                records.push(pack_record(&domain.canonical_node(base, o, corner), local));
            }
        };
        for (t, v) in self.trees() {
            let base = domain.tree_base(t);
            v.iter().for_each(|o| push_corners(&base, &o, true));
        }
        for (t, _, o) in ghosts.iter() {
            push_corners(&domain.tree_base(t), &o, false);
        }
        records.sort_unstable();

        // Runs of equal coordinates are nodes; the local bit sorts last
        // within a run, so a run's last record tells whether a local leaf
        // touches the node.
        let is_node = |run: &[u128]| run[run.len() - 1] & 1 == 1;
        let runs = || records.chunk_by(|a, b| a >> 1 == b >> 1);
        let mut nodes = Vec::with_capacity(runs().filter(|run| is_node(run)).count());
        let mut owned_independent = 0u64;
        for run in runs().filter(|run| is_node(run)) {
            let gcoord = record_gcoord::<D>(run[0]);
            let (cells, owner_pos) = domain.incident_cells(&gcoord);
            let hanging = run.len() < cells;
            let owned = owner_pos.is_some_and(|pos| self.owner_of(pos) == self.rank());
            if owned && !hanging {
                owned_independent += 1;
            }
            nodes.push(NodeInfo {
                gcoord,
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
}

/// The brick as a grid of unit cells: what node canonicalization and the
/// incident-cell count need of the connectivity, read once per sweep.
struct Domain<'a, const D: usize> {
    conn: &'a BrickConnectivity<D>,
    /// Unit cells per axis.
    extent: [i64; D],
    periodic: [bool; D],
}

impl<'a, const D: usize> Domain<'a, D> {
    fn new(conn: &'a BrickConnectivity<D>) -> Self {
        let dims = conn.dims();
        Domain {
            conn,
            extent: std::array::from_fn(|i| dims[i] as i64 * ROOT_LEN as i64),
            periodic: conn.periodic(),
        }
    }

    /// Global coordinates of tree `t`'s origin.
    fn tree_base(&self, t: TreeId) -> [i64; D] {
        let tc = self.conn.tree_coords(t);
        std::array::from_fn(|i| tc[i] as i64 * ROOT_LEN as i64)
    }

    /// Canonical global coordinates of corner `corner` of leaf `o` of the
    /// tree at `base`: a periodic axis identifies `extent` with `0`.
    #[inline]
    fn canonical_node(&self, base: &[i64; D], o: &Octant<D>, corner: usize) -> [i64; D] {
        std::array::from_fn(|i| {
            let g = base[i] + o.coords[i] as i64 + ((corner >> i) & 1) as i64 * o.len() as i64;
            if self.periodic[i] && g == self.extent[i] {
                0
            } else {
                g
            }
        })
    }

    /// How many unit cells incident to the canonical node `g` are in the
    /// domain (inside the brick after periodic wrap, in a tree that is not
    /// masked out), and the canonical owner position: the least of them in
    /// the forest-wide curve order (`None` only for a point no leaf
    /// touches).
    fn incident_cells(&self, g: &[i64; D]) -> (usize, Option<GlobalPos>) {
        let mut cells = 0;
        let mut owner: Option<GlobalPos> = None;
        'cell: for delta in 0..Octant::<D>::NUM_CHILDREN {
            // Incident unit cell: lower corner g - delta.
            let mut tc = [0usize; D];
            let mut coords = [0 as Coord; D];
            for i in 0..D {
                let mut u = g[i] - ((delta >> i) & 1) as i64;
                if u < 0 && self.periodic[i] {
                    u += self.extent[i];
                }
                if u < 0 || u >= self.extent[i] {
                    continue 'cell; // beyond a non-periodic face of the brick
                }
                tc[i] = (u / ROOT_LEN as i64) as usize;
                coords[i] = (u % ROOT_LEN as i64) as Coord;
            }
            let Some(tree) = self.conn.try_tree_id(tc) else {
                continue; // masked-out tree: outside the domain
            };
            cells += 1;
            let index = morton::interleave(&coords);
            let pos = GlobalPos { tree, index };
            owner = Some(owner.map_or(pos, |best| best.min(pos)));
        }
        (cells, owner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::{BalanceVariant, ReversalScheme};
    use crate::reach::tests::{bricks, pseudo_refine};
    use forestbal_comm::Cluster;
    use forestbal_core::Condition;
    use forestbal_octant::MAX_LEVEL;
    use proptest::prelude::*;
    use std::sync::Arc;

    /// The definitional oracle: every corner of every local leaf, sorted
    /// and deduplicated, each classified against the gathered global
    /// forest. A node is hanging iff some leaf holding one of its
    /// in-domain incident unit cells lacks it as a corner; its owner is
    /// the rank of the least incident cell in the forest-wide curve order.
    /// No ghost layer, no forest search.
    impl<const D: usize> Forest<D> {
        fn enumerate_nodes_by_search(&self, ctx: &impl Comm) -> Vec<NodeInfo<D>> {
            let global = self.gather(ctx);
            let conn = self.connectivity();
            let (dims, periodic) = (conn.dims(), conn.periodic());
            let extent: [i64; D] = std::array::from_fn(|i| dims[i] as i64 * ROOT_LEN as i64);
            // Canonical global coordinates of corner `corner` of leaf `o`.
            let node = |t: TreeId, o: &Octant<D>, corner: usize| -> [i64; D] {
                let tc = conn.tree_coords(t);
                std::array::from_fn(|i| {
                    let g = tc[i] as i64 * ROOT_LEN as i64
                        + o.coords[i] as i64
                        + ((corner >> i) & 1) as i64 * o.len() as i64;
                    if periodic[i] {
                        g.rem_euclid(extent[i])
                    } else {
                        g
                    }
                })
            };
            let corners = Octant::<D>::NUM_CHILDREN;
            let mut coords: Vec<[i64; D]> = Vec::new();
            for (t, v) in self.trees() {
                for o in v.iter() {
                    coords.extend((0..corners).map(|c| node(t, &o, c)));
                }
            }
            coords.sort_unstable();
            coords.dedup();
            coords
                .into_iter()
                .map(|g| {
                    let mut hanging = false;
                    let mut owner: Option<GlobalPos> = None;
                    'cell: for delta in 0..corners {
                        // Incident unit cell: lower corner g - delta.
                        let mut tc = [0usize; D];
                        let mut lc = [0 as Coord; D];
                        for i in 0..D {
                            let mut u = g[i] - ((delta >> i) & 1) as i64;
                            if periodic[i] {
                                u = u.rem_euclid(extent[i]);
                            } else if u < 0 || u >= extent[i] {
                                continue 'cell;
                            }
                            tc[i] = (u / ROOT_LEN as i64) as usize;
                            lc[i] = (u % ROOT_LEN as i64) as Coord;
                        }
                        let Some(tree) = conn.try_tree_id(tc) else {
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
                        owner = Some(owner.map_or(pos, |best| best.min(pos)));
                        // The gathered tree is linear and Morton-sorted: the
                        // cell's leaf is the last one not after it.
                        let v = &global[&tree];
                        let leaf = &v[v.partition_point(|l| l <= &cell) - 1];
                        assert!(leaf.contains(&cell), "the forest leaves {cell:?} uncovered");
                        hanging |= !(0..corners).any(|c| node(tree, leaf, c) == g);
                    }
                    NodeInfo {
                        gcoord: g,
                        hanging,
                        owned: owner.is_some_and(|pos| self.owner_of(pos) == self.rank()),
                    }
                })
                .collect()
        }
    }

    /// The sweep against the per-cell oracle, node for node, on a randomly
    /// refined forest before and after balancing it.
    fn sweep_matches_search<const D: usize>(seed: u64, denom: u64, max_level: u8) {
        let mut hanging = 0;
        for (name, conn) in bricks::<D>() {
            let conn = Arc::new(conn);
            for p in [1usize, 2, 3, 5] {
                let conn = Arc::clone(&conn);
                let out = Cluster::run(p, move |ctx| {
                    let mut f = Forest::new_uniform(Arc::clone(&conn), ctx, 2);
                    f.refine(true, max_level, |t, o| pseudo_refine(seed, t, o, denom));
                    let mut hanging = 0;
                    for balanced in [false, true] {
                        if balanced {
                            let cond = Condition::full(D as u8);
                            f.balance(ctx, cond, BalanceVariant::New, ReversalScheme::Notify);
                        }
                        let got = f.enumerate_nodes(ctx);
                        let want = f.enumerate_nodes_by_search(ctx);
                        assert_eq!(got.nodes, want, "{name} P={p} balanced={balanced}");
                        hanging += got.num_hanging();
                    }
                    hanging
                });
                hanging += out.results.iter().sum::<usize>();
            }
        }
        assert!(hanging > 0, "no hanging node to classify");
    }

    proptest! {
        // Each case spawns 16 clusters and enumerates four times in each.
        #![proptest_config(ProptestConfig::with_cases(6))]

        #[test]
        fn sweep_matches_search_2d(seed in any::<u64>(), denom in 2u64..5) {
            sweep_matches_search::<2>(seed, denom, 5);
        }

        #[test]
        fn sweep_matches_search_3d(seed in any::<u64>(), denom in 3u64..6) {
            sweep_matches_search::<3>(seed, denom, 4);
        }
    }

    #[test]
    fn uniform_grid_node_count() {
        // A uniform level-l quadtree has (2^l + 1)^2 nodes, none hanging.
        let conn = Arc::new(BrickConnectivity::<2>::unit());
        for p in [1usize, 3] {
            let conn = Arc::clone(&conn);
            Cluster::run(p, move |ctx| {
                let f = Forest::new_uniform(Arc::clone(&conn), ctx, 2);
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
            let f = Forest::new_uniform(Arc::clone(&conn), ctx, 1);
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
            let f = Forest::new_uniform(Arc::clone(&conn), ctx, 1);
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
            let f = Forest::new_uniform(Arc::clone(&conn), ctx, 1);
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
            let f = Forest::new_uniform(Arc::clone(&conn), ctx, 1);
            let nodes = f.enumerate_nodes(ctx);
            assert_eq!(nodes.num_global_independent, 4);
        });
    }
}
