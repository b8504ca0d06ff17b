//! Seed octants for balancing remote octants (§IV, Figure 9).
//!
//! In the Response phase of the one-pass parallel algorithm, a process
//! holding octant `o` must tell the process owning query octant `r` how
//! `o` constrains `r`'s region. The old algorithm sent `o` itself, forcing
//! the receiver to ripple auxiliary octants across the gap between `o` and
//! its partition. Instead we send **seed octants**: a set `S̄` of at most
//! `3^{d-1}` leaves of `T_k(o)` inside `r` from which the receiver
//! reconstructs the whole overlap `S = T_k(o) ∩ r` with a subtree balance
//! rooted at `r` — work proportional to `|S|`, independent of distance.
//!
//! Construction (constructive proof sketch of §IV): the closest descendant
//! `a` of `r` in `T_k(o)` is computed in O(1) via λ; discrepancies between
//! `T_k(a)` and `T_k(o)` can only occur in the coarse ring adjacent to
//! `family(a)`, so each ring position is checked against `o` (again in
//! O(1)) and a corrective closest octant is added where needed.
//!
//! The construction exists once, in two steps (the closest octant `a`,
//! then the ring corrections). Phase 3 of the parallel balance holds
//! packed keys and calls [`find_seeds_keys`], which takes keys and
//! appends keys: it decodes `o` and `r` once at that boundary, and λ,
//! [`closest_balanced_octant`] and the ring loop run on coordinates, as
//! Table II states them. Keys all the way down was measured and lost:
//! per (o, r) pair on one x86_64 core, λ on dilated key fields took
//! 48–55 ns against 40–42 ns on coordinates, while the decode-once
//! boundary took 38–48 ns with no per-call allocation. [`find_seeds`]
//! is the struct view of the same construction.

use crate::condition::Condition;
use crate::lambda::{balanced_size_log2_at, closest_balanced_octant};
use crate::subtree::balance_subtree_new;
use forestbal_octant::{directions, key, Octant, PackedOctant};

/// Compute seed octants standing in for `o` as a response to query octant
/// `r`: `None` when `o` does not force `r` to split (no response needed),
/// otherwise a sorted set of leaves of `T_k(o)` inside `r` sufficient to
/// reconstruct `T_k(o) ∩ r`.
///
/// `o` and `r` must be disjoint; only a strictly finer `o` can constrain
/// `r`.
pub fn find_seeds<const D: usize>(
    o: &Octant<D>,
    r: &Octant<D>,
    cond: Condition,
) -> Option<Vec<Octant<D>>> {
    let a = closest_seed(o, r, cond)?;
    // One exact allocation: growing an empty `Vec` on the first push
    // measured ~4 ns slower per call.
    let mut seeds = vec![a];
    ring_seeds(o, r, &a, cond, |t| seeds.push(t));
    seeds.sort_unstable();
    Some(seeds)
}

/// [`find_seeds`] with keys at its boundary, the form phase 3 of the
/// parallel balance calls: when `o` forces `r` to split, append the
/// sorted, distinct seed keys (at most `3^{D-1}`) to `out` and return
/// `true`; otherwise leave `out` alone and return `false`.
///
/// `o` and `r` are decoded once and the construction runs on their
/// coordinates (see the module docs for why). Both may lie anywhere in
/// the packable window, as the octants of a cross-tree pair do.
pub fn find_seeds_keys<const D: usize>(
    o: PackedOctant<D>,
    r: PackedOctant<D>,
    cond: Condition,
    out: &mut Vec<u128>,
) -> bool {
    let (o, r) = (o.octant(), r.octant());
    let Some(a) = closest_seed(&o, &r, cond) else {
        return false;
    };
    let base = out.len();
    out.push(key::pack(&a));
    ring_seeds(&o, &r, &a, cond, |t| out.push(key::pack(&t)));
    out[base..].sort_unstable();
    debug_assert!(
        out.len() - base <= 3usize.pow(D as u32 - 1) && out[base..].is_sorted_by(|a, b| a < b),
        "more than 3^(D-1) seeds, or a repeated one"
    );
    true
}

/// The first step of the one seed construction: `None` when `o` is
/// balanced with `r`, else the closest leaf `a` of `T_k(o)` inside `r`.
fn closest_seed<const D: usize>(
    o: &Octant<D>,
    r: &Octant<D>,
    cond: Condition,
) -> Option<Octant<D>> {
    debug_assert!(!o.overlaps(r), "seeds are defined for disjoint octants");
    if o.level <= r.level {
        return None; // o is no finer than r: it cannot force a split
    }
    if balanced_size_log2_at(o, cond, r) == r.size_log2() {
        return None; // already balanced
    }
    Some(closest_balanced_octant(o, cond, r))
}

/// The second step: hand `push` every corrective octant of the ring
/// around `family(a)`, unsorted. None repeats another or `a`: each lies
/// strictly inside its own ring octant, and the ring octants are
/// disjoint from each other and from `family(a)`.
fn ring_seeds<const D: usize>(
    o: &Octant<D>,
    r: &Octant<D>,
    a: &Octant<D>,
    cond: Condition,
    mut push: impl FnMut(Octant<D>),
) {
    if a.level <= r.level + 1 {
        return; // a child of r has no ring inside r
    }
    // The ring of octants adjacent to family(a) at twice a's size: the
    // only places where T_k(a) may disagree with T_k(o) inside r.
    let pa = a.parent();
    for dir in directions::<D>() {
        let ring = pa.neighbor(&dir);
        if !r.contains(&ring) {
            continue;
        }
        // True T_k(o) size inside the ring octant: if finer than the
        // ring itself, pin the closest corrective octant.
        let t = closest_balanced_octant(o, cond, &ring);
        if t.level > ring.level {
            push(t);
        }
    }
}

/// Reconstruct `S = T_k(o) ∩ r` from seed octants: the coarsest complete
/// balanced subtree of `r` containing the seeds as leaves. Multiple seed
/// sets (from several remote octants) may be concatenated (sorted,
/// linearized) and reconstructed in a single call.
pub fn reconstruct_from_seeds<const D: usize>(
    r: &Octant<D>,
    seeds: &[Octant<D>],
    cond: Condition,
) -> Vec<Octant<D>> {
    balance_subtree_new(r, seeds, cond)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::ripple_balance;
    use forestbal_octant::linearize;

    type Oct2 = Octant<2>;

    /// Oracle version of T_k(o) ∩ r.
    fn oracle_overlap(root: &Oct2, o: &Oct2, r: &Oct2, cond: Condition) -> Vec<Oct2> {
        let t = ripple_balance(root, &[*o], cond);
        t.into_iter().filter(|l| r.contains(l)).collect()
    }

    #[test]
    fn no_seeds_for_balanced_pairs() {
        let root = Oct2::root();
        let o = root.child(0).child(0).child(0);
        let far = root.child(3);
        assert!(find_seeds(&o, &far, Condition::full(2)).is_none());
        // Coarser octants never force splits.
        assert!(find_seeds(&root.child(1), &root.child(2), Condition::full(2)).is_none());
    }

    #[test]
    fn seeds_reconstruct_adjacent_overlap() {
        let root = Oct2::root();
        for k in 1..=2u8 {
            let cond = Condition::new(k, 2).unwrap();
            let mut o = root.child(0);
            for _ in 0..4 {
                o = o.child(3); // deep leaf hugging the center of the root
            }
            let r = root.child(3); // coarse quadrant diagonally adjacent
            let seeds = find_seeds(&o, &r, cond).expect("must be unbalanced");
            assert!(!seeds.is_empty());
            assert!(seeds.iter().all(|s| r.contains(s)));
            let rebuilt = reconstruct_from_seeds(&r, &seeds, cond);
            let want = oracle_overlap(&root, &o, &r, cond);
            assert_eq!(rebuilt, want, "k={k}");
        }
    }

    #[test]
    fn seeds_reconstruct_face_adjacent_overlap() {
        let root = Oct2::root();
        for k in 1..=2u8 {
            let cond = Condition::new(k, 2).unwrap();
            let mut o = root.child(0).child(1);
            for _ in 0..3 {
                o = o.child(3);
            }
            let r = root.child(1);
            let seeds = find_seeds(&o, &r, cond).expect("must be unbalanced");
            let rebuilt = reconstruct_from_seeds(&r, &seeds, cond);
            let want = oracle_overlap(&root, &o, &r, cond);
            assert_eq!(rebuilt, want, "k={k}");
        }
    }

    #[test]
    fn seed_count_bound() {
        // |S̄| <= 3^{d-1} = 3 in 2D.
        let root = Oct2::root();
        for k in 1..=2u8 {
            let cond = Condition::new(k, 2).unwrap();
            for path in [[3usize, 3, 3, 3], [1, 3, 1, 3], [2, 3, 3, 0], [3, 0, 3, 3]] {
                let mut o = root.child(0);
                for &id in &path {
                    o = o.child(id);
                }
                let r = root.child(3);
                if let Some(seeds) = find_seeds(&o, &r, cond) {
                    assert!(
                        seeds.len() <= 3,
                        "k={k} path={path:?}: {} seeds",
                        seeds.len()
                    );
                }
            }
        }
    }

    #[test]
    fn merged_seed_sets_reconstruct_union() {
        // Two remote octants constraining the same query octant: the
        // union of seed sets reconstructs the overlay of both cones.
        let root = Oct2::root();
        let cond = Condition::full(2);
        let mut o1 = root.child(0);
        let mut o2 = root.child(2);
        for _ in 0..4 {
            o1 = o1.child(3);
            o2 = o2.child(3);
        }
        let r = root.child(3);
        let mut seeds = vec![];
        seeds.extend(find_seeds(&o1, &r, cond).unwrap());
        seeds.extend(find_seeds(&o2, &r, cond).unwrap());
        linearize(&mut seeds);
        let rebuilt = reconstruct_from_seeds(&r, &seeds, cond);
        // Oracle: overlay of both cones clipped to r.
        let t = ripple_balance(&root, &[o1, o2], cond);
        let want: Vec<_> = t.into_iter().filter(|l| r.contains(l)).collect();
        assert_eq!(rebuilt, want);
    }
}
