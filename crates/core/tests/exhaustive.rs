//! Exhaustive small-domain validation of the λ-based balance decisions
//! (Table II): every disjoint octant pair in a bounded octree, in 1D, 2D
//! and 3D, for every balance condition, compared against the ripple
//! oracle. This complements the random property tests with certainty on
//! a finite domain — the λ formulas are pure functions of coordinate
//! differences, so small-domain exhaustiveness exercises every branch
//! (including the `Carry3` carry region in 3D).

use forestbal_core::oracle::ripple_balance;
use forestbal_core::{
    closest_balanced_octant, find_seeds, find_seeds_keys, is_balanced_pair, merged_reverse_seeds,
    Condition,
};
use forestbal_octant::{codim, directions, key, Octant, PackedOctant};

/// All octants of the root tree with level in `min..=max`.
fn enumerate<const D: usize>(min: u8, max: u8) -> Vec<Octant<D>> {
    let mut out = Vec::new();
    let mut frontier = vec![Octant::<D>::root()];
    for level in 1..=max {
        let mut next = Vec::with_capacity(frontier.len() * (1 << D));
        for o in &frontier {
            for i in 0..Octant::<D>::NUM_CHILDREN {
                next.push(o.child(i));
            }
        }
        if level >= min {
            out.extend(next.iter().copied());
        }
        frontier = next;
    }
    out
}

fn check_all<const D: usize>(o_levels: (u8, u8), r_levels: (u8, u8)) {
    let root = Octant::<D>::root();
    let os = enumerate::<D>(o_levels.0, o_levels.1);
    let rs = enumerate::<D>(r_levels.0, r_levels.1);
    for k in 1..=D as u8 {
        let cond = Condition::new(k, D as u8).unwrap();
        for o in &os {
            // One ripple cone per (finer) source octant, then O(1)
            // lookups against every coarser partner.
            let t = ripple_balance(&root, &[*o], cond);
            for r in &rs {
                if o.overlaps(r) || o.level <= r.level {
                    // The cone must come from the finer octant; the
                    // reversed orientation is covered by symmetry below.
                    continue;
                }
                // Oracle decision: no T_k(o) leaf strictly inside r is
                // finer than r itself.
                let slow = !t.iter().any(|l| r.is_ancestor_of(l));
                let fast = is_balanced_pair(o, r, cond);
                assert_eq!(
                    fast, slow,
                    "D={D} k={k} o={o:?} r={r:?}: λ={fast} oracle={slow}"
                );
                assert_eq!(
                    fast,
                    is_balanced_pair(r, o, cond),
                    "decision must be symmetric"
                );
                // The key boundary of §IV: the same decision and the
                // packed struct seeds.
                let mut seeds = Vec::new();
                let found =
                    find_seeds_keys(PackedOctant::new(o), PackedOctant::new(r), cond, &mut seeds);
                assert_eq!(found, !fast, "D={D} k={k} o={o:?} r={r:?}");
                let want = find_seeds(o, r, cond).map(|s| s.iter().map(key::pack).collect());
                assert_eq!(found.then_some(seeds), want, "D={D} k={k} o={o:?} r={r:?}");
                // When r must split, the closest balanced octant is a
                // genuine leaf of the cone and the finest one inside r.
                if !slow && r.level < o.level {
                    let a = closest_balanced_octant(o, cond, r);
                    assert!(r.contains(&a));
                    assert!(
                        t.binary_search(&a).is_ok(),
                        "D={D} k={k} o={o:?} r={r:?}: a={a:?} not a cone leaf"
                    );
                    let finest = t
                        .iter()
                        .filter(|l| r.contains(l))
                        .map(|l| l.level)
                        .max()
                        .unwrap();
                    assert_eq!(a.level, finest);
                }
            }
        }
    }
}

#[test]
fn exhaustive_1d() {
    // 1D: the λ = δ̄ row of Table II, all pairs to depth 6 vs 4.
    check_all::<1>((2, 6), (1, 4));
}

#[test]
fn exhaustive_2d() {
    // 2D: λ = δ̄x + δ̄y (k=1) and max (k=2), all pairs to depth 4 vs 2.
    check_all::<2>((2, 4), (1, 2));
}

#[test]
fn exhaustive_3d() {
    // 3D: the Carry3 rows, all pairs to depth 3 vs 2.
    check_all::<3>((2, 3), (1, 2));
}

#[test]
fn exhaustive_seeds_2d() {
    // For every (finer o, coarser r) pair in a bounded quadtree and both
    // conditions: the seeds reconstruct the oracle overlap exactly.
    use forestbal_core::reconstruct_from_seeds;
    let root = Octant::<2>::root();
    let os = enumerate::<2>(2, 4);
    let rs = enumerate::<2>(1, 2);
    for k in 1..=2u8 {
        let cond = Condition::new(k, 2).unwrap();
        for o in &os {
            let t = ripple_balance(&root, &[*o], cond);
            for r in &rs {
                if o.overlaps(r) || o.level <= r.level {
                    continue;
                }
                let want: Vec<_> = t.iter().filter(|l| r.contains(l)).copied().collect();
                match find_seeds(o, r, cond) {
                    None => assert!(
                        want.is_empty() || want == vec![*r],
                        "k={k} o={o:?} r={r:?}: balanced but overlap {want:?}"
                    ),
                    Some(seeds) => {
                        assert!(seeds.len() <= 3, "k={k}: seed bound");
                        for s in &seeds {
                            assert!(r.contains(s));
                            assert!(
                                t.binary_search(s).is_ok(),
                                "k={k} o={o:?} r={r:?}: seed {s:?} not a cone leaf"
                            );
                        }
                        let got = reconstruct_from_seeds(r, &seeds, cond);
                        assert_eq!(got, want, "k={k} o={o:?} r={r:?}");
                    }
                }
            }
        }
    }
}

#[test]
fn exhaustive_seeds_3d_small() {
    use forestbal_core::reconstruct_from_seeds;
    let root = Octant::<3>::root();
    let os = enumerate::<3>(3, 3);
    let rs = enumerate::<3>(1, 1);
    for k in 1..=3u8 {
        let cond = Condition::new(k, 3).unwrap();
        for o in &os {
            let t = ripple_balance(&root, &[*o], cond);
            for r in &rs {
                if o.overlaps(r) {
                    continue;
                }
                let want: Vec<_> = t.iter().filter(|l| r.contains(l)).copied().collect();
                match find_seeds(o, r, cond) {
                    None => assert!(want.is_empty() || want == vec![*r]),
                    Some(seeds) => {
                        assert!(seeds.len() <= 9, "k={k}: 3D seed bound");
                        let got = reconstruct_from_seeds(r, &seeds, cond);
                        assert_eq!(got, want, "k={k} o={o:?} r={r:?}");
                    }
                }
            }
        }
    }
}

/// The insulation fact (§II-B): `o` and `r` can be unbalanced only if
/// `o ∈ I(r)` or `r ∈ I(o)`. Phase 2's query set, the ghost scan and the
/// incremental announcement rely on it. Checked like `check_all`: one
/// ripple cone per finer `o`, and every disjoint coarser `r` that the
/// cone splits must satisfy the fact.
fn check_insulation<const D: usize>(o_levels: (u8, u8), r_levels: (u8, u8)) {
    use forestbal_core::insulation_layer;
    let root = Octant::<D>::root();
    let os = enumerate::<D>(o_levels.0, o_levels.1);
    let rs = enumerate::<D>(r_levels.0, r_levels.1);
    for k in 1..=D as u8 {
        let cond = Condition::new(k, D as u8).unwrap();
        let (mut unbalanced, mut outside) = (0usize, 0usize);
        for o in &os {
            let t = ripple_balance(&root, &[*o], cond);
            let io = insulation_layer(o);
            for r in &rs {
                if o.overlaps(r) || o.level <= r.level {
                    continue;
                }
                let o_in_ir = insulation_layer(r).iter().any(|n| n.contains(o));
                let r_in_io = io.iter().any(|n| n.contains(r));
                outside += usize::from(!o_in_ir && !r_in_io);
                if t.iter().any(|l| r.is_ancestor_of(l)) {
                    unbalanced += 1;
                    assert!(
                        o_in_ir || r_in_io,
                        "D={D} k={k} o={o:?} r={r:?}: unbalanced outside insulation"
                    );
                }
            }
        }
        // Not vacuous: the cones split some partners, and some pairs
        // lie outside both layers.
        assert!(unbalanced > 0, "D={D} k={k}: no unbalanced pair");
        assert!(outside > 0, "D={D} k={k}: no pair outside both layers");
    }
}

#[test]
fn insulation_fact_2d() {
    check_insulation::<2>((2, 5), (1, 4));
}

#[test]
fn insulation_fact_3d() {
    // exhaustive_3d's levels.
    check_insulation::<3>((2, 3), (1, 2));
}

/// Does a worklist item at `g` force the octant `r` to split? The item
/// reaches `g`'s same-level neighbor box in each constrained direction
/// and splits every container of that box coarser than `bound`: a leaf
/// item has `bound = g.level() - 1` (2:1 with `g`), a family item (`g`
/// not a leaf) has `bound = g.level()` (2:1 with each child of `g`).
fn item_forces<const D: usize>(
    g: PackedOctant<D>,
    bound: u8,
    r: PackedOctant<D>,
    cond: Condition,
) -> bool {
    r.level() < bound
        && directions::<D>().any(|dir| cond.constrains(codim(&dir)) && r.contains(g.neighbor(&dir)))
}

/// The family item of the incremental fixed point
/// (`Forest::balance_incremental`): one pop for a non-leaf `p` enforces
/// what its children would one by one. For every `p` with level in
/// `p_levels` and every `k`:
///
/// 1. completeness and soundness against the children: every coarser
///    octant `r` disjoint from `p` is forced by some child of `p` iff it
///    is forced by `p`'s family item;
/// 2. (when `subdivide`) implied by any subdivision: for each of the
///    2^(2^D) subdivisions of `p` to depth 2, every `r` the family item
///    forces is forced by a leaf of the subdivision, so the item splits
///    nothing a full balance would keep, however `p` is refined.
fn check_family_item<const D: usize>(p_levels: (u8, u8), subdivide: bool) {
    let nc = Octant::<D>::NUM_CHILDREN;
    let ps = enumerate::<D>(p_levels.0, p_levels.1);
    let rs: Vec<PackedOctant<D>> = std::iter::once(Octant::<D>::root())
        .chain(enumerate::<D>(1, p_levels.1))
        .map(|o| PackedOctant::new(&o))
        .collect();
    for k in 1..=D as u8 {
        let cond = Condition::new(k, D as u8).unwrap();
        let (mut forced, mut unforced, mut implied) = (0usize, 0usize, 0usize);
        for p in ps.iter().map(PackedOctant::new) {
            let children: Vec<_> = (0..nc).map(|i| p.child(i)).collect();
            let mut by_family = Vec::new();
            for &r in rs
                .iter()
                .filter(|r| r.level() <= p.level() && !r.overlaps(p))
            {
                let family = item_forces(p, p.level(), r, cond);
                let child = children
                    .iter()
                    .any(|&c| item_forces(c, c.level() - 1, r, cond));
                assert_eq!(family, child, "D={D} k={k} p={p:?} r={r:?}");
                if family {
                    by_family.push(r);
                    forced += 1;
                } else {
                    unforced += 1;
                }
            }
            if !subdivide {
                continue;
            }
            for split in 0..1usize << nc {
                let leaves: Vec<_> = children
                    .iter()
                    .enumerate()
                    .flat_map(|(i, &c)| match split >> i & 1 {
                        0 => vec![c],
                        _ => (0..nc).map(|j| c.child(j)).collect(),
                    })
                    .collect();
                for &r in &by_family {
                    let by_leaf = leaves
                        .iter()
                        .any(|&l| item_forces(l, l.level() - 1, r, cond));
                    assert!(by_leaf, "D={D} k={k} p={p:?} split={split:b} r={r:?}");
                    implied += 1;
                }
            }
        }
        // Not vacuous: the items split some partners and spare others,
        // and the subdivisions were checked against real constraints.
        assert!(
            forced > 0 && unforced > 0,
            "D={D} k={k}: {forced}/{unforced}"
        );
        assert!(!subdivide || implied > 0, "D={D} k={k}: nothing implied");
    }
}

#[test]
fn family_item_is_exact_2d() {
    check_family_item::<2>((1, 4), true);
}

#[test]
fn family_item_is_exact_3d() {
    check_family_item::<3>((1, 2), false);
}

/// Is `g` inside one of `o`'s same-level neighbor boxes across a
/// direction `cond` constrains — the boxes a reverse seed of `o`
/// searches?
fn in_constrained_box<const D: usize>(
    o: PackedOctant<D>,
    g: PackedOctant<D>,
    cond: Condition,
) -> bool {
    directions::<D>().any(|dir| cond.constrains(codim(&dir)) && o.neighbor(&dir).contains(g))
}

/// The reverse seeds of the incremental commit
/// ([`merged_reverse_seeds`]). For every `q` with level in `q_levels`,
/// every `k` and two merged sets — all children of `q` (one family seed,
/// over `q`'s boxes) and all but the last (one seed per merged parent):
/// every `g` disjoint from `q` whose family item forces a merged child is
/// found by some seed, i.e. lies inside one of the seed's constrained
/// boxes and is at the seed's `min_level` or finer. `g` ranges over
/// every level finer than `q` down to `depth`, so a filter one level too
/// strict fails, and a coarser `g` is checked to force nothing.
fn check_family_reverse_seed<const D: usize>(q_levels: (u8, u8), depth: u8) {
    let nc = Octant::<D>::NUM_CHILDREN;
    let qs = enumerate::<D>(q_levels.0, q_levels.1);
    let gs: Vec<PackedOctant<D>> = enumerate::<D>(q_levels.0 + 1, depth)
        .iter()
        .map(PackedOctant::new)
        .collect();
    for k in 1..=D as u8 {
        let cond = Condition::new(k, D as u8).unwrap();
        let (mut found, mut tight) = (0usize, 0usize);
        for q in qs.iter().map(PackedOctant::new) {
            let children: Vec<u128> = (0..nc).map(|i| q.child(i).0).collect();
            for &g in gs
                .iter()
                .filter(|g| g.level() > q.level() && !g.overlaps(q))
            {
                // The children g's family item forces, by child id: a
                // child of q forced by the item contains one of its boxes.
                let p = g.parent();
                let forced = directions::<D>()
                    .filter(|dir| cond.constrains(codim(dir)))
                    .map(|dir| p.neighbor(&dir))
                    .filter(|&n| n.level() > q.level() && q.contains(n))
                    .map(|n| n.ancestor(q.level() + 1))
                    .filter(|&c| item_forces(p, p.level(), c, cond))
                    .fold(0usize, |m, c| m | 1 << c.child_id());
                for merged in [&children[..], &children[..nc - 1]] {
                    if forced & ((1 << merged.len()) - 1) == 0 {
                        continue;
                    }
                    let mut seeds = Vec::new();
                    merged_reverse_seeds::<D>(merged, |s, min| seeds.push((PackedOctant(s), min)));
                    let family = merged.len() == nc;
                    assert_eq!(seeds.len(), if family { 1 } else { merged.len() });
                    let seed = seeds
                        .iter()
                        .find(|&&(s, min)| g.level() >= min && in_constrained_box(s, g, cond));
                    assert!(
                        seed.is_some(),
                        "D={D} k={k} q={q:?} merged={} g={g:?}",
                        merged.len()
                    );
                    found += 1;
                    tight += usize::from(family && g.level() == seeds[0].1);
                }
            }
        }
        // Not vacuous: items force merged parents, some of them from
        // exactly the family seed's filter level.
        assert!(found > 0 && tight > 0, "D={D} k={k}: {found}/{tight}");
    }
}

#[test]
fn family_reverse_seed_covers_2d() {
    check_family_reverse_seed::<2>((1, 2), 5);
}

#[test]
fn family_reverse_seed_covers_3d() {
    check_family_reverse_seed::<3>((1, 1), 4);
}

/// The sibling skip of the incremental fixed point
/// (`PackedOctant::neighbor_is_sibling`). For every `p` with level in
/// `0..=max` and every direction, the test holds iff `p`'s same-level
/// box in that direction lies inside `parent(p)` (never for the root),
/// and then every coarser octant containing the box contains `p` — a
/// pop of `p` splits nothing there, because no local leaf contains `p`.
/// Some non-sibling box has a coarser container disjoint from `p`, so
/// the skip cannot be widened.
fn check_sibling_boxes<const D: usize>(max: u8) {
    let all: Vec<PackedOctant<D>> = std::iter::once(Octant::<D>::root())
        .chain(enumerate::<D>(1, max))
        .map(|o| PackedOctant::new(&o))
        .collect();
    let (mut sibling, mut apart) = (0usize, 0usize);
    for &p in &all {
        for dir in directions::<D>() {
            let n = p.neighbor(&dir);
            let inside = p.level() > 0 && p.parent().contains(n);
            assert_eq!(p.neighbor_is_sibling(&dir), inside, "p={p:?} dir={dir:?}");
            for &r in all
                .iter()
                .filter(|r| r.level() < p.level() && r.contains(n))
            {
                if inside {
                    assert!(r.contains(p), "p={p:?} dir={dir:?} r={r:?}");
                    sibling += 1;
                } else {
                    apart += usize::from(!r.overlaps(p));
                }
            }
        }
    }
    assert!(sibling > 0 && apart > 0, "D={D}: {sibling}/{apart}");
}

#[test]
fn sibling_boxes_hold_no_coarser_container() {
    check_sibling_boxes::<1>(5);
    check_sibling_boxes::<2>(4);
    check_sibling_boxes::<3>(3);
}
