//! Property tests validating the paper's fast algorithms against the
//! independent ripple oracle, for all dimensions and balance conditions.

use forestbal_core::oracle::{is_balanced_tree, oracle_balanced_pair, ripple_balance};
use forestbal_core::{
    balance_subtree_new, balance_subtree_new_keys, balance_subtree_new_with_stats_scratch,
    balance_subtree_old, balance_subtree_old_ext_scratch, balance_subtree_old_keys,
    complete_reduced, find_seeds, find_seeds_keys, is_balanced_pair, reconstruct_from_seeds,
    reduce, BalanceScratch, Condition,
};
use forestbal_octant::{directions, is_complete, key, linearize, Octant, PackedOctant, ROOT_LEN};
use proptest::prelude::*;

fn keys<const D: usize>(octs: &[Octant<D>]) -> Vec<u128> {
    octs.iter().map(key::pack).collect()
}

fn octants<const D: usize>(keys: &[u128]) -> Vec<Octant<D>> {
    keys.iter().map(|&k| key::unpack(k)).collect()
}

/// The octant reached from `root` along a child-id path.
fn descend<const D: usize>(root: Octant<D>, path: &[usize]) -> Octant<D> {
    path.iter().fold(root, |o, &id| o.child(id))
}

/// The linearized octants reached from `root` along the paths.
fn descend_all<const D: usize>(root: Octant<D>, paths: &[Vec<usize>]) -> Vec<Octant<D>> {
    let mut v: Vec<_> = paths.iter().map(|p| descend(root, p)).collect();
    linearize(&mut v);
    v
}

/// The key kernels on one input: new ≡ pack(oracle), old ≡ new, and each
/// struct wrapper ≡ unpack(its key kernel) with equal `BalanceStats`.
fn check_key_kernels<const D: usize>(
    root: &Octant<D>,
    input: &[Octant<D>],
    cond: Condition,
) -> Result<(), String> {
    let want = keys(&ripple_balance(root, input, cond));
    let (proot, input_keys) = (PackedOctant::new(root), keys(input));
    let scratch = &mut BalanceScratch::new();
    let (new, new_stats) = balance_subtree_new_keys(proot, &input_keys, cond, scratch);
    prop_assert_eq!(&new, &want, "new key kernel vs oracle");
    let (old, old_stats) = balance_subtree_old_keys(proot, &input_keys, &[], cond, scratch);
    prop_assert_eq!(&old, &new, "old vs new key kernel");
    prop_assert_eq!(
        balance_subtree_new_with_stats_scratch(root, input, cond, scratch),
        (octants(&new), new_stats)
    );
    prop_assert_eq!(
        balance_subtree_old_ext_scratch(root, input, &[], cond, scratch),
        (octants(&old), old_stats)
    );
    Ok(())
}

/// The old key kernel with exterior constraints on `sub` ≡ the global
/// oracle of interior ∪ exterior clipped to `sub` (or `[sub]` where a
/// coarser global leaf covers it), and its struct wrapper ≡ unpack(key
/// kernel) with equal `BalanceStats`. Exterior octants that overlap `sub`
/// are dropped.
fn check_old_exterior<const D: usize>(
    sub: &Octant<D>,
    interior: &[Octant<D>],
    exterior: &[Octant<D>],
    cond: Condition,
) -> Result<(), String> {
    let exterior: Vec<_> = exterior
        .iter()
        .copied()
        .filter(|e| !e.overlaps(sub))
        .collect();
    let mut all = [interior, &exterior].concat();
    linearize(&mut all);
    let global = ripple_balance(&Octant::root(), &all, cond);
    let mut want: Vec<_> = global.into_iter().filter(|l| sub.contains(l)).collect();
    if want.is_empty() {
        want.push(*sub);
    }
    let scratch = &mut BalanceScratch::new();
    let (got, stats) = balance_subtree_old_keys(
        PackedOctant::new(sub),
        &keys(interior),
        &keys(&exterior),
        cond,
        scratch,
    );
    prop_assert_eq!(&got, &keys(&want), "old key kernel vs global oracle");
    prop_assert_eq!(
        balance_subtree_old_ext_scratch(sub, interior, &exterior, cond, scratch),
        (want, stats)
    );
    Ok(())
}

/// A random octant: a child-id path of bounded depth from the root.
fn arb_octant<const D: usize>(min_depth: u8, max_depth: u8) -> impl Strategy<Value = Octant<D>> {
    prop::collection::vec(0usize..(1 << D), min_depth as usize..=max_depth as usize).prop_map(
        |path| {
            let mut o = Octant::<D>::root();
            for id in path {
                o = o.child(id);
            }
            o
        },
    )
}

/// The step vector in `{-1, 0, 1}^D` whose base-3 digits (axis 0 lowest)
/// are `code`'s, each minus one.
fn steps<const D: usize>(code: usize) -> [i8; D] {
    std::array::from_fn(|j| (code / 3usize.pow(j as u32) % 3) as i8 - 1)
}

/// `o` moved by `s[j]` root lengths along each axis `j`.
fn shifted<const D: usize>(o: &Octant<D>, s: [i8; D]) -> Octant<D> {
    let coords = std::array::from_fn(|j| o.coords[j] + s[j] as i32 * ROOT_LEN);
    Octant::new(coords, o.level)
}

/// A strictly finer `o` in `r`'s insulation layer — a descendant along
/// `path` of `r`'s neighbor across direction code `dir`, possibly in
/// another root cell — with the pair moved by the step vector of `cell`.
fn near_pair<const D: usize>(
    r: &Octant<D>,
    dir: usize,
    path: &[usize],
    cell: usize,
) -> (Octant<D>, Octant<D>) {
    let o = descend(r.neighbor(&steps(dir)), path);
    (shifted(&o, steps(cell)), shifted(r, steps(cell)))
}

/// `find_seeds_keys` on a finer `o` and a coarser disjoint `r`, each in
/// any root cell of the packable window (as the pairs of cross-tree
/// queries are): it appends to `out`, agrees with the struct
/// `find_seeds`, and for every step vector `s` keeping both octants
/// packable, the seeds of the moved pair are the home seeds moved by `s`.
fn check_seed_keys_translate<const D: usize>(
    o: &Octant<D>,
    r: &Octant<D>,
    cond: Condition,
) -> Result<(), String> {
    let (po, pr) = (PackedOctant::new(o), PackedOctant::new(r));
    let mut home = vec![7]; // keys already in `out` are left alone
    let found = find_seeds_keys(po, pr, cond, &mut home);
    prop_assert_eq!(home[0], 7);
    prop_assert_eq!(found.then(|| octants(&home[1..])), find_seeds(o, r, cond));
    for s in std::iter::once([0; D]).chain(directions::<D>()) {
        if !key::packable(&shifted(o, s)) || !key::packable(&shifted(r, s)) {
            continue;
        }
        let mut got = Vec::new();
        let f = find_seeds_keys(po.translate(s), pr.translate(s), cond, &mut got);
        prop_assert_eq!(f, found, "moved by {:?}", s);
        let want: Vec<u128> = home[1..]
            .iter()
            .map(|&k| PackedOctant::<D>(k).translate(s).0)
            .collect();
        prop_assert_eq!(got, want, "moved by {:?}", s);
    }
    Ok(())
}

/// The family skip of the phase-3 responder: siblings share their
/// coarsest balanced tree, T_k(o) = T_k(s), so for every sibling `s` of a
/// finer in-root `o` that is disjoint from `r`, the seeds of `s`
/// reconstruct the same T_k ∩ r as the seeds of `o` — with the new key
/// kernel on the linearized seeds, as phase 4 runs it.
fn check_sibling_seeds<const D: usize>(
    o: &Octant<D>,
    r: &Octant<D>,
    cond: Condition,
) -> Result<(), String> {
    let pr = PackedOctant::new(r);
    let scratch = &mut BalanceScratch::new();
    let mut rebuilt = |o: &Octant<D>| {
        let mut seeds = Vec::new();
        find_seeds_keys(PackedOctant::new(o), pr, cond, &mut seeds);
        scratch.linearize(&mut seeds);
        balance_subtree_new_keys(pr, &seeds, cond, scratch).0
    };
    let want = rebuilt(o);
    for i in 0..1 << D {
        let s = o.sibling(i);
        if !s.overlaps(r) {
            prop_assert_eq!(rebuilt(&s), want.clone(), "sibling {} of {:?}", i, o);
        }
    }
    Ok(())
}

fn arb_cond(d: u8) -> impl Strategy<Value = Condition> {
    (1..=d).prop_map(move |k| Condition::new(k, d).unwrap())
}

/// A random linear input set.
fn arb_input<const D: usize>(max_depth: u8, max_n: usize) -> impl Strategy<Value = Vec<Octant<D>>> {
    prop::collection::vec(arb_octant::<D>(0, max_depth), 1..max_n).prop_map(|mut v| {
        linearize(&mut v);
        v
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    // ---- §III: subtree balance ----------------------------------------

    #[test]
    fn subtree_algorithms_match_oracle_2d(
        input in arb_input::<2>(6, 8),
        cond in arb_cond(2),
    ) {
        let root = Octant::<2>::root();
        let want = ripple_balance(&root, &input, cond);
        prop_assert!(is_balanced_tree(&want, &root, cond));
        prop_assert!(is_complete(&want, &root));
        let old = balance_subtree_old(&root, &input, cond);
        prop_assert_eq!(&old, &want, "old vs oracle");
        let new = balance_subtree_new(&root, &input, cond);
        prop_assert_eq!(&new, &want, "new vs oracle");
    }

    #[test]
    fn subtree_algorithms_match_oracle_3d(
        input in arb_input::<3>(4, 5),
        cond in arb_cond(3),
    ) {
        let root = Octant::<3>::root();
        let want = ripple_balance(&root, &input, cond);
        prop_assert!(is_balanced_tree(&want, &root, cond));
        let old = balance_subtree_old(&root, &input, cond);
        prop_assert_eq!(&old, &want, "old vs oracle");
        let new = balance_subtree_new(&root, &input, cond);
        prop_assert_eq!(&new, &want, "new vs oracle");
    }

    #[test]
    fn subtree_balance_on_sub_roots_2d(
        path in prop::collection::vec(0usize..4, 1..3),
        input_paths in prop::collection::vec(
            prop::collection::vec(0usize..4, 0..5), 1..6),
        cond in arb_cond(2),
    ) {
        // Balance within an arbitrary subtree root.
        let mut sub = Octant::<2>::root();
        for id in path {
            sub = sub.child(id);
        }
        let mut input: Vec<_> = input_paths
            .into_iter()
            .map(|p| {
                let mut o = sub;
                for id in p {
                    o = o.child(id);
                }
                o
            })
            .collect();
        linearize(&mut input);
        let want = ripple_balance(&sub, &input, cond);
        prop_assert_eq!(balance_subtree_old(&sub, &input, cond), want.clone());
        prop_assert_eq!(balance_subtree_new(&sub, &input, cond), want);
    }

    // ---- §III-B: Reduce / Complete -------------------------------------

    #[test]
    fn reduce_complete_roundtrip_2d(input in arb_input::<2>(6, 10)) {
        // For COMPLETE trees, completion of the reduction is the identity.
        let root = Octant::<2>::root();
        let complete = forestbal_octant::complete_subtree(&root, &input);
        let red = reduce::<2>(&keys(&complete));
        prop_assert!(red.len() * 4 <= complete.len().max(4),
            "|R| = {} vs |S| = {}", red.len(), complete.len());
        let mut back = vec![];
        complete_reduced(PackedOctant::new(&root), &red, &mut back);
        prop_assert_eq!(octants(&back), complete);
    }

    #[test]
    fn reduce_complete_roundtrip_3d(input in arb_input::<3>(4, 6)) {
        let root = Octant::<3>::root();
        let complete = forestbal_octant::complete_subtree(&root, &input);
        let red = reduce::<3>(&keys(&complete));
        let mut back = vec![];
        complete_reduced(PackedOctant::new(&root), &red, &mut back);
        prop_assert_eq!(octants(&back), complete);
    }

    // ---- key kernels: oracle, old ≡ new, struct wrappers ---------------

    #[test]
    fn key_kernels_match_oracle_under_sub_roots_2d(
        root_path in prop::collection::vec(0usize..4, 0..4),
        input_paths in prop::collection::vec(prop::collection::vec(0usize..4, 0..6), 0..8),
        cond in arb_cond(2),
    ) {
        let root = descend(Octant::<2>::root(), &root_path);
        check_key_kernels(&root, &descend_all(root, &input_paths), cond)?;
    }

    #[test]
    fn key_kernels_match_oracle_under_sub_roots_3d(
        root_path in prop::collection::vec(0usize..8, 0..3),
        input_paths in prop::collection::vec(prop::collection::vec(0usize..8, 0..4), 0..6),
        cond in arb_cond(3),
    ) {
        let root = descend(Octant::<3>::root(), &root_path);
        check_key_kernels(&root, &descend_all(root, &input_paths), cond)?;
    }

    #[test]
    fn key_kernels_rebuild_seed_sets_2d(
        o in arb_octant::<2>(3, 8),
        r in arb_octant::<2>(1, 4),
        cond in arb_cond(2),
    ) {
        prop_assume!(!o.overlaps(&r) && r.level < o.level);
        if let Some(seeds) = find_seeds(&o, &r, cond) {
            check_key_kernels(&r, &seeds, cond)?;
        }
    }

    #[test]
    fn key_kernels_rebuild_seed_sets_3d(
        o in arb_octant::<3>(3, 5),
        r in arb_octant::<3>(1, 3),
        cond in arb_cond(3),
    ) {
        prop_assume!(!o.overlaps(&r) && r.level < o.level);
        if let Some(seeds) = find_seeds(&o, &r, cond) {
            check_key_kernels(&r, &seeds, cond)?;
        }
    }

    #[test]
    fn old_key_kernel_exterior_matches_global_oracle_2d(
        sub_path in prop::collection::vec(0usize..4, 1..3),
        int_paths in prop::collection::vec(prop::collection::vec(0usize..4, 0..4), 0..4),
        ext_paths in prop::collection::vec(prop::collection::vec(0usize..4, 1..7), 1..5),
        cond in arb_cond(2),
    ) {
        let sub = descend(Octant::<2>::root(), &sub_path);
        let exterior = descend_all(Octant::root(), &ext_paths);
        check_old_exterior(&sub, &descend_all(sub, &int_paths), &exterior, cond)?;
    }

    #[test]
    fn old_key_kernel_exterior_matches_global_oracle_3d(
        sub_path in prop::collection::vec(0usize..8, 1..3),
        int_paths in prop::collection::vec(prop::collection::vec(0usize..8, 0..3), 0..3),
        ext_paths in prop::collection::vec(prop::collection::vec(0usize..8, 1..5), 1..4),
        cond in arb_cond(3),
    ) {
        let sub = descend(Octant::<3>::root(), &sub_path);
        let exterior = descend_all(Octant::root(), &ext_paths);
        check_old_exterior(&sub, &descend_all(sub, &int_paths), &exterior, cond)?;
    }

    // ---- §IV: λ-based O(1) balance decisions ---------------------------

    #[test]
    fn lambda_decision_matches_oracle_2d(
        o in arb_octant::<2>(2, 7),
        r in arb_octant::<2>(1, 5),
        cond in arb_cond(2),
    ) {
        prop_assume!(!o.overlaps(&r));
        let root = Octant::<2>::root();
        let fast = is_balanced_pair(&o, &r, cond);
        let slow = oracle_balanced_pair(&root, &o, &r, cond);
        prop_assert_eq!(fast, slow, "o={:?} r={:?} k={}", o, r, cond.k());
    }

    #[test]
    fn lambda_decision_matches_oracle_3d(
        o in arb_octant::<3>(2, 5),
        r in arb_octant::<3>(1, 4),
        cond in arb_cond(3),
    ) {
        prop_assume!(!o.overlaps(&r));
        let root = Octant::<3>::root();
        let fast = is_balanced_pair(&o, &r, cond);
        let slow = oracle_balanced_pair(&root, &o, &r, cond);
        prop_assert_eq!(fast, slow, "o={:?} r={:?} k={}", o, r, cond.k());
    }

    #[test]
    fn closest_octant_size_matches_tk_leaf_2d(
        o in arb_octant::<2>(3, 7),
        r in arb_octant::<2>(1, 3),
        cond in arb_cond(2),
    ) {
        // The λ-computed size of `a` equals the level of the finest
        // T_k(o) leaf overlapping r... at a's own position it IS a leaf.
        prop_assume!(!o.overlaps(&r) && r.level < o.level);
        let root = Octant::<2>::root();
        let a = forestbal_core::closest_balanced_octant(&o, cond, &r);
        prop_assert!(r.contains(&a));
        let t = ripple_balance(&root, &[o], cond);
        if a.level > r.level {
            // T_k(o) refines r: `a` must be its finest leaf inside r.
            prop_assert!(
                t.binary_search(&a).is_ok(),
                "a={:?} is not a leaf of T_k(o); o={:?} r={:?} k={}", a, o, r, cond.k()
            );
            let finest = t.iter().filter(|l| r.contains(l)).map(|l| l.level).max().unwrap();
            prop_assert_eq!(a.level, finest);
        } else {
            // Clamped to r: T_k(o) must have no leaf strictly inside r.
            prop_assert!(
                t.iter().all(|l| !r.is_ancestor_of(l)),
                "clamped to r but T_k(o) refines r; o={:?} r={:?} k={}", o, r, cond.k()
            );
        }
    }

    #[test]
    fn closest_octant_size_matches_tk_leaf_3d(
        o in arb_octant::<3>(3, 5),
        r in arb_octant::<3>(1, 2),
        cond in arb_cond(3),
    ) {
        prop_assume!(!o.overlaps(&r) && r.level < o.level);
        let root = Octant::<3>::root();
        let a = forestbal_core::closest_balanced_octant(&o, cond, &r);
        prop_assert!(r.contains(&a));
        let t = ripple_balance(&root, &[o], cond);
        if a.level > r.level {
            prop_assert!(
                t.binary_search(&a).is_ok(),
                "a={:?} not a T_k(o) leaf; o={:?} r={:?} k={}", a, o, r, cond.k()
            );
            let finest = t.iter().filter(|l| r.contains(l)).map(|l| l.level).max().unwrap();
            prop_assert_eq!(a.level, finest);
        } else {
            prop_assert!(t.iter().all(|l| !r.is_ancestor_of(l)));
        }
    }

    // ---- §IV: seeds -----------------------------------------------------

    #[test]
    fn seeds_reconstruct_oracle_overlap_2d(
        o in arb_octant::<2>(3, 8),
        r in arb_octant::<2>(1, 3),
        cond in arb_cond(2),
    ) {
        prop_assume!(!o.overlaps(&r) && r.level < o.level);
        let root = Octant::<2>::root();
        let t = ripple_balance(&root, &[o], cond);
        let want: Vec<_> = t.iter().filter(|l| r.contains(l)).copied().collect();
        match find_seeds(&o, &r, cond) {
            None => prop_assert!(
                want.is_empty() || want == vec![r],
                "no seeds but r must split: overlap {:?}", want
            ),
            Some(seeds) => {
                prop_assert!(seeds.len() <= 3, "2D seed bound 3^{{d-1}}");
                for s in &seeds {
                    prop_assert!(r.contains(s));
                    prop_assert!(t.binary_search(s).is_ok(), "seed not a T_k leaf");
                }
                let rebuilt = reconstruct_from_seeds(&r, &seeds, cond);
                prop_assert_eq!(rebuilt, want);
            }
        }
    }

    #[test]
    fn seeds_reconstruct_oracle_overlap_3d(
        o in arb_octant::<3>(3, 5),
        r in arb_octant::<3>(1, 2),
        cond in arb_cond(3),
    ) {
        prop_assume!(!o.overlaps(&r) && r.level < o.level);
        let root = Octant::<3>::root();
        let t = ripple_balance(&root, &[o], cond);
        let want: Vec<_> = t.iter().filter(|l| r.contains(l)).copied().collect();
        match find_seeds(&o, &r, cond) {
            None => prop_assert!(
                want.is_empty() || want == vec![r],
                "no seeds but r must split: overlap {:?}", want
            ),
            Some(seeds) => {
                prop_assert!(seeds.len() <= 9, "3D seed bound 3^{{d-1}}");
                for s in &seeds {
                    prop_assert!(r.contains(s));
                    prop_assert!(t.binary_search(s).is_ok(), "seed not a T_k leaf");
                }
                let rebuilt = reconstruct_from_seeds(&r, &seeds, cond);
                prop_assert_eq!(rebuilt, want);
            }
        }
    }

    #[test]
    fn seed_keys_commute_with_translation_2d(
        r in arb_octant::<2>(1, 4),
        dir in 0usize..9,
        path in prop::collection::vec(0usize..4, 1..6),
        cell in 0usize..9,
        cond in arb_cond(2),
    ) {
        let (o, r) = near_pair(&r, dir, &path, cell);
        prop_assume!(!o.overlaps(&r) && key::packable(&o) && key::packable(&r));
        check_seed_keys_translate(&o, &r, cond)?;
    }

    #[test]
    fn seed_keys_commute_with_translation_3d(
        r in arb_octant::<3>(1, 3),
        dir in 0usize..27,
        path in prop::collection::vec(0usize..8, 1..5),
        cell in 0usize..27,
        cond in arb_cond(3),
    ) {
        let (o, r) = near_pair(&r, dir, &path, cell);
        prop_assume!(!o.overlaps(&r) && key::packable(&o) && key::packable(&r));
        check_seed_keys_translate(&o, &r, cond)?;
    }

    #[test]
    fn sibling_seeds_reconstruct_alike_2d(
        r in arb_octant::<2>(1, 4),
        dir in 0usize..9,
        path in prop::collection::vec(0usize..4, 1..6),
        cond in arb_cond(2),
    ) {
        let o = descend(r.neighbor(&steps(dir)), &path);
        prop_assume!(!o.overlaps(&r) && o.is_inside_root());
        check_sibling_seeds(&o, &r, cond)?;
    }

    #[test]
    fn sibling_seeds_reconstruct_alike_3d(
        r in arb_octant::<3>(1, 3),
        dir in 0usize..27,
        path in prop::collection::vec(0usize..8, 1..5),
        cond in arb_cond(3),
    ) {
        let o = descend(r.neighbor(&steps(dir)), &path);
        prop_assume!(!o.overlaps(&r) && o.is_inside_root());
        check_sibling_seeds(&o, &r, cond)?;
    }

    // ---- invariants of the result ---------------------------------------

    #[test]
    fn balance_never_coarsens_2d(input in arb_input::<2>(6, 8), cond in arb_cond(2)) {
        // Balance may split input leaves (when inputs are mutually
        // unbalanced) but never coarsens: every output leaf overlapping an
        // input leaf is at least as fine.
        let root = Octant::<2>::root();
        let out = balance_subtree_new(&root, &input, cond);
        for o in &input {
            for l in out.iter().filter(|l| l.overlaps(o)) {
                prop_assert!(
                    l.level >= o.level,
                    "input {:?} coarsened to {:?}", o, l
                );
            }
        }
    }

    #[test]
    fn balance_is_idempotent_2d(input in arb_input::<2>(5, 6), cond in arb_cond(2)) {
        let root = Octant::<2>::root();
        let once = balance_subtree_new(&root, &input, cond);
        let twice = balance_subtree_new(&root, &once, cond);
        prop_assert_eq!(once, twice);
    }

    // ---- scratch arenas -------------------------------------------------

    #[test]
    fn scratch_reuse_is_invisible(
        inputs in prop::collection::vec(arb_input::<3>(5, 12), 2..8),
        cond in arb_cond(3),
    ) {
        // One scratch threaded through many mixed invocations produces
        // exactly what fresh scratches produce, outputs and stats.
        let root = Octant::<3>::root();
        let mut reused = BalanceScratch::<3>::new();
        for input in &inputs {
            let fresh = &mut BalanceScratch::new();
            prop_assert_eq!(
                balance_subtree_new_with_stats_scratch(&root, input, cond, &mut reused),
                balance_subtree_new_with_stats_scratch(&root, input, cond, fresh)
            );
            prop_assert_eq!(
                balance_subtree_old_ext_scratch(&root, input, &[], cond, &mut reused),
                balance_subtree_old_ext_scratch(&root, input, &[], cond, fresh)
            );
        }
    }

    #[test]
    fn presized_tables_do_not_regrow_in_steady_state(
        pins in prop::collection::vec(arb_input::<3>(5, 12), 1..6),
    ) {
        // The phase-1 workload: inputs that are already balanced (the
        // normal state of a forest being rebalanced). With
        // `input.len()`-derived pre-sizing, neither kernel's tables may
        // regrow, whatever the arena held before.
        let root = Octant::<3>::root();
        let cond = Condition::full(3);
        let mut scratch = BalanceScratch::<3>::new();
        for pins in &pins {
            let balanced = balance_subtree_new(&root, pins, cond);
            balance_subtree_new_with_stats_scratch(&root, &balanced, cond, &mut scratch);
            balance_subtree_old_ext_scratch(&root, &balanced, &[], cond, &mut scratch);
            prop_assert_eq!(scratch.stats().table_grows, 0);
        }
    }

    // ---- exterior constraints (auxiliary octants, Figure 4b) ------------

    #[test]
    fn exterior_constraints_match_global_oracle_2d(
        sub_id in 0usize..4,
        ext_paths in prop::collection::vec(
            prop::collection::vec(0usize..4, 1..6), 1..4),
        int_paths in prop::collection::vec(
            prop::collection::vec(0usize..4, 0..4), 0..3),
        cond in arb_cond(2),
    ) {
        // Balance a root child with random exterior octants living in the
        // other children: must equal the global cone overlay clipped to
        // the subtree.
        let g = Octant::<2>::root();
        let sub = g.child(sub_id);
        let mut exterior: Vec<Octant<2>> = Vec::new();
        for p in &ext_paths {
            let mut o = g.child((sub_id + 1) % 4);
            for &id in p {
                o = o.child(id);
            }
            exterior.push(o);
        }
        linearize(&mut exterior);
        let mut interior: Vec<Octant<2>> = Vec::new();
        for p in &int_paths {
            let mut o = sub;
            for &id in p {
                o = o.child(id);
            }
            interior.push(o);
        }
        linearize(&mut interior);
        let (got, _) = balance_subtree_old_ext_scratch(
            &sub,
            &interior,
            &exterior,
            cond,
            &mut BalanceScratch::new(),
        );
        let mut all = interior.clone();
        all.extend_from_slice(&exterior);
        linearize(&mut all);
        let global = ripple_balance(&g, &all, cond);
        let want: Vec<_> = global.into_iter().filter(|l| sub.contains(l)).collect();
        prop_assert_eq!(got, want);
    }
}
