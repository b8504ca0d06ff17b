//! Differential tests: the packed-key kernels (OctantTable + radix sort +
//! scratch) must reproduce the original `HashSet`-based kernels
//! octant-for-octant, *including* the `BalanceStats` operation counts.
//!
//! The reference implementations below are verbatim copies of the kernels
//! as they stood before the packed-key fast path, pinned here so any
//! behavioral drift in the optimized path fails loudly.

use forestbal_core::{
    balance_subtree_new_with_stats_scratch, balance_subtree_old_ext_scratch, coarse_neighborhood,
    complete_reduced, precludes, reduce, remove_precluded, BalanceScratch, BalanceStats, Condition,
};
use forestbal_octant::{complete_subtree, linearize, Octant, OctantSet};
use std::collections::VecDeque;

fn canonical<const D: usize>(o: &Octant<D>) -> Octant<D> {
    o.sibling(0)
}

/// Reference old kernel: the pre-packed-path implementation, verbatim.
fn reference_old_ext<const D: usize>(
    root: &Octant<D>,
    input: &[Octant<D>],
    exterior: &[Octant<D>],
    cond: Condition,
) -> (Vec<Octant<D>>, BalanceStats) {
    let mut stats = BalanceStats::default();
    let ins_lo: [_; D] = std::array::from_fn(|i| root.coords[i] - root.len());
    let within_insulation = |s: &Octant<D>| {
        (0..D).all(|i| {
            s.coords[i] >= ins_lo[i] && s.coords[i] + s.len() <= ins_lo[i] + 3 * root.len()
        })
    };

    let mut snew: OctantSet<D> = OctantSet::default();
    let mut work: VecDeque<Octant<D>> = input.iter().chain(exterior.iter()).copied().collect();
    while let Some(o) = work.pop_front() {
        if o.level <= root.level {
            continue;
        }
        let try_add = |s: Octant<D>,
                       snew: &mut OctantSet<D>,
                       work: &mut VecDeque<Octant<D>>,
                       stats: &mut BalanceStats| {
            if s.level <= root.level || !within_insulation(&s) {
                return;
            }
            stats.hash_queries += 1;
            if snew.contains(&s) {
                return;
            }
            stats.binary_searches += 1;
            if input.binary_search(&s).is_ok() {
                return;
            }
            snew.insert(s);
            work.push_back(s);
        };
        for i in 0..Octant::<D>::NUM_CHILDREN {
            try_add(o.sibling(i), &mut snew, &mut work, &mut stats);
        }
        for n in &coarse_neighborhood(&o, cond) {
            try_add(*n, &mut snew, &mut work, &mut stats);
        }
    }

    let mut all: Vec<Octant<D>> = Vec::with_capacity(input.len() + snew.len());
    all.extend_from_slice(input);
    all.extend(snew.into_iter().filter(|s| root.contains(s)));
    stats.sorted_len = all.len();
    all.sort_unstable();
    all.dedup();
    linearize(&mut all);
    let out = complete_subtree(root, &all);
    stats.output_len = out.len();
    (out, stats)
}

/// Reference new kernel: the pre-packed-path implementation, verbatim.
fn reference_new_with_stats<const D: usize>(
    root: &Octant<D>,
    input: &[Octant<D>],
    cond: Condition,
) -> (Vec<Octant<D>>, BalanceStats) {
    let mut stats = BalanceStats::default();
    let interior: Vec<Octant<D>> = input
        .iter()
        .copied()
        .filter(|o| o.level > root.level)
        .collect();
    let r = reduce(&interior);
    let mut rnew: OctantSet<D> = OctantSet::default();
    let mut rprec: OctantSet<D> = OctantSet::default();
    let mut work: VecDeque<Octant<D>> = r.iter().copied().collect();

    while let Some(o) = work.pop_front() {
        if o.level <= root.level + 1 {
            continue;
        }
        for s0 in &coarse_neighborhood(&o, cond) {
            if s0.level <= root.level || !root.contains(s0) {
                continue;
            }
            let s = canonical(s0);
            stats.hash_queries += 1;
            if rnew.contains(&s) {
                continue;
            }
            stats.binary_searches += 1;
            let pos = r.partition_point(|t| t <= &s);
            if pos > 0 {
                let t = r[pos - 1];
                if t == s {
                    continue;
                }
                if precludes(&t, &s) {
                    rprec.insert(t);
                } else if precludes(&s, &t) {
                    rprec.insert(s);
                }
            }
            if precludes(&s, &o) {
                rprec.insert(s);
            }
            rnew.insert(s);
            work.push_back(s);
        }
    }

    let mut rfinal: Vec<Octant<D>> = Vec::new();
    rfinal.extend(r.iter().filter(|t| !rprec.contains(t)));
    rfinal.extend(rnew.iter().filter(|t| !rprec.contains(t)));
    stats.sorted_len = rfinal.len();
    rfinal.sort_unstable();
    remove_precluded(&mut rfinal);
    let out = complete_reduced(root, &rfinal);
    stats.output_len = out.len();
    (out, stats)
}

/// Deterministic xorshift generator of linear inputs inside `root`.
fn random_linear_input<const D: usize>(
    root: &Octant<D>,
    n: usize,
    max_extra_depth: u8,
    seed: u64,
) -> Vec<Octant<D>> {
    let mut state = seed | 1;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut v: Vec<Octant<D>> = (0..n)
        .map(|_| {
            let depth = (rng() % (max_extra_depth as u64 + 1)) as u8;
            let mut o = *root;
            for _ in 0..depth {
                o = o.child(rng() as usize % Octant::<D>::NUM_CHILDREN);
            }
            o
        })
        .collect();
    linearize(&mut v);
    v
}

fn check_both_kernels<const D: usize>(
    root: &Octant<D>,
    input: &[Octant<D>],
    cond: Condition,
    scratch: &mut BalanceScratch<D>,
) {
    let (ref_out, ref_stats) = reference_old_ext(root, input, &[], cond);
    let (out, stats) =
        balance_subtree_old_ext_scratch(root, input, &[], cond, &mut BalanceScratch::new());
    assert_eq!(out, ref_out, "old kernel output diverged");
    assert_eq!(stats, ref_stats, "old kernel stats diverged");
    let (out_s, stats_s) = balance_subtree_old_ext_scratch(root, input, &[], cond, scratch);
    assert_eq!(out_s, ref_out, "old kernel (reused scratch) diverged");
    assert_eq!(stats_s, ref_stats);

    let (ref_out, ref_stats) = reference_new_with_stats(root, input, cond);
    let (out, stats) =
        balance_subtree_new_with_stats_scratch(root, input, cond, &mut BalanceScratch::new());
    assert_eq!(out, ref_out, "new kernel output diverged");
    assert_eq!(stats, ref_stats, "new kernel stats diverged");
    let (out_s, stats_s) = balance_subtree_new_with_stats_scratch(root, input, cond, scratch);
    assert_eq!(out_s, ref_out, "new kernel (reused scratch) diverged");
    assert_eq!(stats_s, ref_stats);
}

#[test]
fn packed_kernels_match_reference_2d() {
    let mut scratch = BalanceScratch::<2>::new();
    for k in 1..=2u8 {
        let cond = Condition::new(k, 2).unwrap();
        for seed in [2, 11, 42, 1234] {
            for root in [Octant::<2>::root(), Octant::<2>::root().child(1).child(2)] {
                let input = random_linear_input(&root, 40, 8, seed);
                check_both_kernels(&root, &input, cond, &mut scratch);
            }
        }
    }
}

#[test]
fn packed_kernels_match_reference_3d() {
    let mut scratch = BalanceScratch::<3>::new();
    for k in 1..=3u8 {
        let cond = Condition::new(k, 3).unwrap();
        for seed in [7, 99] {
            for root in [Octant::<3>::root(), Octant::<3>::root().child(5)] {
                let input = random_linear_input(&root, 30, 6, seed);
                check_both_kernels(&root, &input, cond, &mut scratch);
            }
        }
    }
}

#[test]
fn packed_old_kernel_matches_reference_with_exterior() {
    // Exterior constraint octants exercise the out-of-root packed keys.
    let g = Octant::<2>::root();
    let sub = g.child(3);
    let mut scratch = BalanceScratch::<2>::new();
    for k in 1..=2u8 {
        let cond = Condition::new(k, 2).unwrap();
        let mut ext = g.child(0);
        for _ in 0..5 {
            ext = ext.child(3);
        }
        let interior = random_linear_input(&sub, 10, 5, 77);
        let (ref_out, ref_stats) = reference_old_ext(&sub, &interior, &[ext], cond);
        let (out, stats) = balance_subtree_old_ext_scratch(
            &sub,
            &interior,
            &[ext],
            cond,
            &mut BalanceScratch::new(),
        );
        assert_eq!(out, ref_out);
        assert_eq!(stats, ref_stats);
        let (out_s, stats_s) =
            balance_subtree_old_ext_scratch(&sub, &interior, &[ext], cond, &mut scratch);
        assert_eq!(out_s, ref_out);
        assert_eq!(stats_s, ref_stats);
    }
}

#[test]
fn scratch_reuse_is_invisible() {
    // A single scratch threaded through many mixed invocations produces
    // exactly what fresh scratches produce.
    let root = Octant::<3>::root();
    let cond = Condition::full(3);
    let mut reused = BalanceScratch::<3>::new();
    for seed in 1..20u64 {
        let input = random_linear_input(&root, 25, 6, seed * 31);
        let fresh =
            balance_subtree_new_with_stats_scratch(&root, &input, cond, &mut BalanceScratch::new());
        let shared = balance_subtree_new_with_stats_scratch(&root, &input, cond, &mut reused);
        assert_eq!(fresh, shared, "seed {seed}");
    }
}

#[test]
fn presized_tables_do_not_regrow_in_steady_state() {
    // The phase-1 workload: inputs that are already balanced (the normal
    // state of a forest being rebalanced). With `input.len()`-derived
    // pre-sizing, neither kernel's tables may regrow.
    let root = Octant::<3>::root();
    let cond = Condition::full(3);
    let mut scratch = BalanceScratch::<3>::new();
    for seed in 1..8u64 {
        let pins = random_linear_input(&root, 20, 5, seed * 17);
        let balanced = forestbal_core::balance_subtree_new(&root, &pins, cond);
        let grows_before = scratch.stats().table_grows;
        balance_subtree_new_with_stats_scratch(&root, &balanced, cond, &mut scratch);
        balance_subtree_old_ext_scratch(&root, &balanced, &[], cond, &mut scratch);
        let grown = scratch.stats().table_grows - grows_before;
        assert_eq!(grown, 0, "seed {seed}: steady-state input regrew tables");
    }
}
