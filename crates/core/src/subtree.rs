//! Serial subtree balance: the old (Figure 6) and new (Figure 7)
//! algorithms of §III.
//!
//! Both take a sorted linear octant array inside a root octant and return
//! the coarsest complete `k`-balanced octree of that root containing every
//! input octant as a leaf. The input need not be complete — this is what
//! lets the same routines reconstruct `T_k(o) ∩ r` from seed octants in
//! the parallel algorithm (§IV).
//!
//! * The **old** algorithm iteratively inserts each octant's whole family
//!   and coarse neighborhood into a hash table, then merges, sorts, and
//!   linearizes the union of old and new octants.
//! * The **new** algorithm first `Reduce`s the input to canonical family
//!   representatives, inserts only the 0-siblings of coarse-neighborhood
//!   members, tags precluded representatives with a single binary search
//!   each, and completes the reduced result — roughly 3x fewer hash
//!   queries and a `2^d`-smaller final sort.
//!
//! Each algorithm exists once, on packed Morton keys
//! ([`balance_subtree_old_keys`], [`balance_subtree_new_keys`]): input,
//! work queue, tables, sort and output are `u128` keys, the arithmetic is
//! [`PackedOctant`]'s, and `Complete` emits keys straight into the output.
//! The forest runs them on its stored key arrays. The struct-typed entry
//! points pack, call the key kernel, and unpack.
//!
//! Both report [`BalanceStats`] so benchmarks can reproduce the paper's
//! operation-count comparisons.

use crate::condition::Condition;
use crate::neighborhood::coarse_neighborhood;
use crate::preclude::{canonical, complete_reduced, precludes, reduce, remove_precluded};
use crate::scratch::BalanceScratch;
use forestbal_octant::{
    complete_subtree_keys, is_linear_keys, linearize_keys_with, pack_batch, sort_keys_with,
    unpack_batch, Octant, PackedOctant, MAX_LEVEL,
};

/// Operation counters for one subtree balance invocation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BalanceStats {
    /// Hash-table membership queries performed.
    pub hash_queries: u64,
    /// Binary searches over the sorted input array.
    pub binary_searches: u64,
    /// Length of the array handed to the final sort (the paper's costliest
    /// postprocessing step).
    pub sorted_len: usize,
    /// Number of leaves in the returned octree.
    pub output_len: usize,
}

fn packed<const D: usize>(octs: &[Octant<D>]) -> Vec<u128> {
    let mut keys = Vec::with_capacity(octs.len());
    pack_batch(octs, &mut keys);
    keys
}

fn unpacked<const D: usize>(keys: &[u128]) -> Vec<Octant<D>> {
    let mut octs = Vec::with_capacity(keys.len());
    unpack_batch(keys, &mut octs);
    octs
}

/// Old subtree balance (Figure 6). See the module docs.
pub fn balance_subtree_old<const D: usize>(
    root: &Octant<D>,
    input: &[Octant<D>],
    cond: Condition,
) -> Vec<Octant<D>> {
    balance_subtree_old_ext_scratch(root, input, &[], cond, &mut BalanceScratch::new()).0
}

/// [`balance_subtree_old_keys`] on struct octants.
pub fn balance_subtree_old_ext_scratch<const D: usize>(
    root: &Octant<D>,
    input: &[Octant<D>],
    exterior: &[Octant<D>],
    cond: Condition,
    scratch: &mut BalanceScratch<D>,
) -> (Vec<Octant<D>>, BalanceStats) {
    let root = PackedOctant::new(root);
    let (out, stats) =
        balance_subtree_old_keys(root, &packed(input), &packed(exterior), cond, scratch);
    (unpacked(&out), stats)
}

/// Old subtree balance on packed keys, with additional *exterior*
/// constraint octants and caller-provided working memory (for loops that
/// balance many subtrees in sequence), also returning operation counts.
///
/// Exterior octants lie outside `root` (e.g. response octants from a
/// neighboring tree or partition). They are not leaves of the result, but
/// their iteratively-constructed families and coarse neighborhoods —
/// the paper's "auxiliary octants" (Figure 4b) — propagate their balance
/// constraints into the subtree; members falling inside `root` are
/// inserted. This is the distance-dependent mechanism §IV replaces with
/// seed octants.
pub fn balance_subtree_old_keys<const D: usize>(
    root: PackedOctant<D>,
    input: &[u128],
    exterior: &[u128],
    cond: Condition,
    scratch: &mut BalanceScratch<D>,
) -> (Vec<u128>, BalanceStats) {
    debug_assert!(is_linear_keys::<D>(input));
    debug_assert!(input.iter().all(|&k| root.contains(PackedOctant(k))));
    debug_assert!(exterior
        .iter()
        .all(|&k| !root.contains(PackedOctant(k)) && !PackedOctant(k).contains(root)));
    let mut stats = BalanceStats::default();

    // Auxiliary octants may live outside the root, but only within its
    // insulation envelope: anything farther cannot constrain the subtree.
    // A finer octant lies in the envelope iff, per axis, its bit-plane
    // above the root's alignment is one of the root's shifted fields.
    let envelope = root.axis_fields();
    let above_root = !((1u128 << (D as u32 * (MAX_LEVEL - root.level()) as u32)) - 1);
    let within_insulation = |s: PackedOctant<D>| {
        (0..D).all(|j| envelope[j].contains(&(s.axis_field(j, 0) & above_root)))
    };

    // The auxiliary set is proportional to the input for the balanced-ish
    // inputs of the parallel phases; pre-size so steady-state invocations
    // never regrow (`ScratchStats::table_grows` tracks violations).
    let snew = &mut scratch.table_a;
    snew.reset_for(4 * (input.len() + exterior.len()) + 32);
    let work = &mut scratch.work;
    work.clear();
    work.extend(input.iter().chain(exterior));
    while let Some(o) = work.pop_front() {
        let o = PackedOctant::<D>(o);
        if o.level() <= root.level() {
            continue;
        }
        let mut try_add = |s: PackedOctant<D>| {
            if s.level() <= root.level() || !within_insulation(s) {
                return;
            }
            stats.hash_queries += 1;
            if snew.contains_key(s.0) {
                return;
            }
            stats.binary_searches += 1;
            if input.binary_search(&s.0).is_ok() {
                return;
            }
            snew.insert_key(s.0);
            work.push_back(s.0);
        };
        let p = o.parent();
        for i in 0..PackedOctant::<D>::NUM_CHILDREN {
            try_add(p.child(i));
        }
        for n in coarse_neighborhood(o, cond) {
            try_add(n);
        }
    }

    let all = &mut scratch.buf;
    all.clear();
    all.reserve(input.len() + snew.len());
    all.extend_from_slice(input);
    all.extend(snew.keys().filter(|&s| root.contains(PackedOctant(s))));
    stats.sorted_len = all.len();
    linearize_keys_with::<D>(all, &mut scratch.sort);
    // The family insertions make the result complete for complete inputs;
    // for incomplete inputs (seed reconstruction) fill remaining gaps in
    // the coarsest way.
    let mut out = Vec::with_capacity(all.len() * 2 + 1);
    complete_subtree_keys(root, all, &mut out);
    stats.output_len = out.len();
    (out, stats)
}

/// New subtree balance (Figure 7). See the module docs.
pub fn balance_subtree_new<const D: usize>(
    root: &Octant<D>,
    input: &[Octant<D>],
    cond: Condition,
) -> Vec<Octant<D>> {
    balance_subtree_new_with_stats_scratch(root, input, cond, &mut BalanceScratch::new()).0
}

/// [`balance_subtree_new_keys`] on struct octants.
pub fn balance_subtree_new_with_stats_scratch<const D: usize>(
    root: &Octant<D>,
    input: &[Octant<D>],
    cond: Condition,
    scratch: &mut BalanceScratch<D>,
) -> (Vec<Octant<D>>, BalanceStats) {
    let (out, stats) =
        balance_subtree_new_keys(PackedOctant::new(root), &packed(input), cond, scratch);
    (unpacked(&out), stats)
}

/// New subtree balance on packed keys, with caller-provided working memory
/// (for loops that balance many subtrees in sequence), also returning
/// operation counts. Also the seed reconstruction of §IV.
pub fn balance_subtree_new_keys<const D: usize>(
    root: PackedOctant<D>,
    input: &[u128],
    cond: Condition,
    scratch: &mut BalanceScratch<D>,
) -> (Vec<u128>, BalanceStats) {
    debug_assert!(is_linear_keys::<D>(input));
    debug_assert!(input.iter().all(|&k| root.contains(PackedOctant(k))));
    let mut stats = BalanceStats::default();

    // An input octant at the root's own level can only be the root itself
    // (the input is linear and inside the root, so then it is alone); it
    // pins nothing, and its canonical 0-sibling would lie outside the
    // subtree.
    let r = reduce::<D>(if input == [root.0] { &[] } else { input });
    // Representatives stand for whole families: both tables stay well
    // under the input length, so this pre-sizing never regrows in steady
    // state (`ScratchStats::table_grows` tracks violations).
    let rnew = &mut scratch.table_a;
    rnew.reset_for(input.len() + 16);
    let rprec = &mut scratch.table_b;
    rprec.reset_for(input.len() + 16);
    let work = &mut scratch.work;
    work.clear();
    work.extend(&r);

    while let Some(o) = work.pop_front() {
        let o = PackedOctant::<D>(o);
        if o.level() <= root.level() + 1 {
            // Coarse-neighborhood members would be at or above root size.
            continue;
        }
        for s0 in coarse_neighborhood(o, cond) {
            // Members are one level coarser than `o`, so below the root's.
            if !root.contains(s0) {
                continue;
            }
            let s = canonical(s0); // 0-sibling, equivalent under preclusion
            stats.hash_queries += 1;
            if rnew.contains_key(s.0) {
                continue;
            }
            // Single equivalent binary search in the reduced input: find
            // the greatest representative <= s; it is the only candidate
            // for either preclusion direction or equality.
            stats.binary_searches += 1;
            let pos = r.partition_point(|&t| t <= s.0);
            if pos > 0 {
                let t = PackedOctant::<D>(r[pos - 1]);
                if t == s {
                    continue; // already represented in the input
                }
                if precludes(t, s) {
                    // The input family region contains the new finer
                    // family: the input representative is now redundant.
                    rprec.insert_key(t.0);
                } else if precludes(s, t) {
                    // The new octant's family region contains finer input
                    // structure: the new octant is redundant, but its
                    // neighborhood constraints still propagate.
                    rprec.insert_key(s.0);
                }
            }
            if precludes(s, o) {
                rprec.insert_key(s.0); // Figure 7 line 9: s ≺ o
            }
            rnew.insert_key(s.0);
            work.push_back(s.0);
        }
    }

    let rfinal = &mut scratch.buf;
    rfinal.clear();
    rfinal.reserve(r.len() + rnew.len());
    rfinal.extend(r.iter().filter(|&&t| !rprec.contains_key(t)));
    rfinal.extend(rnew.keys().filter(|&t| !rprec.contains_key(t)));
    stats.sorted_len = rfinal.len();
    sort_keys_with::<D>(rfinal, &mut scratch.sort);
    // Robust sweep: drop any remaining nested family regions (preclusion
    // chains that insertion-time tagging does not see).
    remove_precluded::<D>(rfinal);
    let mut out = Vec::with_capacity(rfinal.len() * 2 + 1);
    complete_reduced(root, rfinal, &mut out);
    stats.output_len = out.len();
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{is_balanced_tree, ripple_balance};
    use forestbal_octant::is_complete;

    type Oct2 = Octant<2>;
    type Oct3 = Octant<3>;

    fn check_all_algorithms_2d(root: &Oct2, input: &[Oct2], cond: Condition) {
        let want = ripple_balance(root, input, cond);
        let old = balance_subtree_old(root, input, cond);
        let new = balance_subtree_new(root, input, cond);
        assert_eq!(old, want, "old algorithm mismatch vs oracle");
        assert_eq!(new, want, "new algorithm mismatch vs oracle");
        assert!(is_balanced_tree(&want, root, cond));
        assert!(is_complete(&want, root));
    }

    fn check_all_algorithms_3d(root: &Oct3, input: &[Oct3], cond: Condition) {
        let want = ripple_balance(root, input, cond);
        let old = balance_subtree_old(root, input, cond);
        let new = balance_subtree_new(root, input, cond);
        assert_eq!(old, want, "old algorithm mismatch vs oracle");
        assert_eq!(new, want, "new algorithm mismatch vs oracle");
    }

    #[test]
    fn empty_input() {
        let root = Oct2::root();
        for k in 1..=2 {
            let cond = Condition::new(k, 2).unwrap();
            assert_eq!(balance_subtree_old(&root, &[], cond), vec![root]);
            assert_eq!(balance_subtree_new(&root, &[], cond), vec![root]);
        }
    }

    #[test]
    fn single_deep_leaf_all_conditions_2d() {
        let root = Oct2::root();
        let mut leaf = root;
        for id in [0usize, 0, 0, 0, 0] {
            leaf = leaf.child(id);
        }
        for k in 1..=2 {
            check_all_algorithms_2d(&root, &[leaf], Condition::new(k, 2).unwrap());
        }
    }

    #[test]
    fn single_deep_leaf_center_2d() {
        let root = Oct2::root();
        let mut leaf = root;
        for id in [3usize, 0, 3, 0] {
            leaf = leaf.child(id);
        }
        for k in 1..=2 {
            check_all_algorithms_2d(&root, &[leaf], Condition::new(k, 2).unwrap());
        }
    }

    #[test]
    fn two_distant_leaves_2d() {
        let root = Oct2::root();
        let a = root.child(0).child(0).child(0).child(0);
        let b = root.child(3).child(3).child(1);
        let mut input = vec![a, b];
        input.sort();
        for k in 1..=2 {
            check_all_algorithms_2d(&root, &input, Condition::new(k, 2).unwrap());
        }
    }

    #[test]
    fn single_deep_leaf_all_conditions_3d() {
        let root = Oct3::root();
        let mut leaf = root;
        for id in [7usize, 0, 7] {
            leaf = leaf.child(id);
        }
        for k in 1..=3 {
            check_all_algorithms_3d(&root, &[leaf], Condition::new(k, 3).unwrap());
        }
    }

    #[test]
    fn subtree_root_not_global_root() {
        // Balance within a subtree rooted below the global root.
        let sub = Oct2::root().child(2).child(1);
        let mut leaf = sub;
        for id in [0usize, 3, 0] {
            leaf = leaf.child(id);
        }
        check_all_algorithms_2d(&sub, &[leaf], Condition::full(2));
    }

    #[test]
    fn incomplete_scattered_input_2d() {
        let root = Oct2::root();
        let mut input = vec![
            root.child(0).child(1).child(2).child(3),
            root.child(1).child(3),
            root.child(2).child(2).child(0),
        ];
        input.sort();
        for k in 1..=2 {
            check_all_algorithms_2d(&root, &input, Condition::new(k, 2).unwrap());
        }
    }

    #[test]
    fn new_algorithm_does_less_work() {
        // The headline operation-count claims: fewer hash queries and a
        // smaller final sort (factor 2^d on the sort for complete inputs).
        let root = Oct2::root();
        let mut leaf = root;
        for id in [0usize, 3, 0, 3, 0, 3] {
            leaf = leaf.child(id);
        }
        let input = ripple_balance(&root, &[leaf], Condition::full(2));
        let mut scratch = BalanceScratch::new();
        let cond = Condition::full(2);
        let (_, old) = balance_subtree_old_ext_scratch(&root, &input, &[], cond, &mut scratch);
        let (_, new) = balance_subtree_new_with_stats_scratch(&root, &input, cond, &mut scratch);
        assert!(
            new.hash_queries * 2 < old.hash_queries,
            "hash queries: old {} vs new {}",
            old.hash_queries,
            new.hash_queries
        );
        assert!(
            new.sorted_len * 2 < old.sorted_len,
            "sort size: old {} vs new {}",
            old.sorted_len,
            new.sorted_len
        );
    }

    #[test]
    fn exterior_constraints_build_auxiliary_octants() {
        // An exterior octant's constraints propagate into the subtree via
        // auxiliary construction; the result matches the global cone
        // T_k(o) clipped to the subtree.
        let g = Oct2::root();
        let sub = g.child(3);
        for k in 1..=2u8 {
            let cond = Condition::new(k, 2).unwrap();
            let mut o = g.child(0);
            for _ in 0..4 {
                o = o.child(3); // deep leaf hugging the center
            }
            let (got, _) =
                balance_subtree_old_ext_scratch(&sub, &[], &[o], cond, &mut BalanceScratch::new());
            let global = ripple_balance(&g, &[o], cond);
            let want: Vec<_> = global.into_iter().filter(|l| sub.contains(l)).collect();
            assert_eq!(got, want, "k={k}");
        }
    }

    #[test]
    fn exterior_and_interior_constraints_combine() {
        let g = Oct2::root();
        let sub = g.child(1);
        let cond = Condition::full(2);
        let mut ext = g.child(0);
        for _ in 0..4 {
            ext = ext.child(3);
        }
        let interior = sub.child(2).child(1).child(0);
        let (got, _) = balance_subtree_old_ext_scratch(
            &sub,
            &[interior],
            &[ext],
            cond,
            &mut BalanceScratch::new(),
        );
        let global = ripple_balance(&g, &[ext, interior], cond);
        let want: Vec<_> = global.into_iter().filter(|l| sub.contains(l)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn balancing_is_idempotent() {
        let root = Oct2::root();
        let leaf = root.child(0).child(3).child(0).child(3);
        let cond = Condition::full(2);
        let once = balance_subtree_new(&root, &[leaf], cond);
        let twice = balance_subtree_new(&root, &once, cond);
        assert_eq!(once, twice);
        let old_twice = balance_subtree_old(&root, &once, cond);
        assert_eq!(once, old_twice);
    }
}
