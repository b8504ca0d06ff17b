//! Property-based tests for octant arithmetic and linear-octree operations.

use forestbal_octant::{
    complete_subtree, is_complete, is_linear, key, linearize, morton, sort_octants_with, Octant,
    OctantTable, PackedOctant, SortScratch, MAX_LEVEL, ROOT_LEN,
};
use proptest::prelude::*;
use std::collections::HashSet;

/// Strategy: a random in-root octant built by a random child-id path.
fn arb_octant<const D: usize>(max_depth: u8) -> impl Strategy<Value = Octant<D>> {
    prop::collection::vec(0usize..(1 << D), 0..=max_depth as usize).prop_map(|path| {
        let mut o = Octant::<D>::root();
        for id in path {
            o = o.child(id);
        }
        o
    })
}

/// Strategy: a random sorted linear set of octants (descend-and-prune).
fn arb_linear_set<const D: usize>(max_depth: u8) -> impl Strategy<Value = Vec<Octant<D>>> {
    prop::collection::vec(arb_octant::<D>(max_depth), 1..40).prop_map(|mut v| {
        linearize(&mut v);
        v
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn parent_contains_child_2d(o in arb_octant::<2>(8)) {
        if o.level > 0 {
            let p = o.parent();
            prop_assert!(p.is_ancestor_of(&o));
            prop_assert!(p.contains(&o));
            prop_assert!(p < o);
            prop_assert_eq!(p.child(o.child_id()), o);
        }
    }

    #[test]
    fn parent_contains_child_3d(o in arb_octant::<3>(8)) {
        if o.level > 0 {
            let p = o.parent();
            prop_assert!(p.is_ancestor_of(&o));
            prop_assert_eq!(p.child(o.child_id()), o);
        }
    }

    #[test]
    fn morton_matches_index_2d(a in arb_octant::<2>(8), b in arb_octant::<2>(8)) {
        // For disjoint octants the coordinate comparison agrees with the
        // interleaved-index comparison.
        if !a.overlaps(&b) {
            prop_assert_eq!(a.cmp(&b), a.index().cmp(&b.index()));
        } else {
            // Overlapping octants: the ancestor comes first.
            let (anc, desc) = if a.contains(&b) { (a, b) } else { (b, a) };
            if anc != desc {
                prop_assert!(anc < desc);
            }
        }
    }

    #[test]
    fn morton_matches_index_3d(a in arb_octant::<3>(6), b in arb_octant::<3>(6)) {
        if !a.overlaps(&b) {
            prop_assert_eq!(a.cmp(&b), a.index().cmp(&b.index()));
        }
    }

    #[test]
    fn nca_is_common_and_nearest_3d(a in arb_octant::<3>(6), b in arb_octant::<3>(6)) {
        let n = a.nearest_common_ancestor(&b);
        prop_assert!(n.contains(&a) && n.contains(&b));
        // No strictly deeper common ancestor exists.
        if n.level < a.level.min(b.level) {
            let deeper = a.ancestor(n.level + 1);
            prop_assert!(!(deeper.contains(&a) && deeper.contains(&b)));
        }
    }

    #[test]
    fn linearize_idempotent_2d(v in prop::collection::vec(arb_octant::<2>(7), 1..50)) {
        let mut once = v.clone();
        linearize(&mut once);
        prop_assert!(is_linear(&once));
        let mut twice = once.clone();
        linearize(&mut twice);
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn linearize_keeps_finest_2d(v in prop::collection::vec(arb_octant::<2>(7), 1..50)) {
        let mut lin = v.clone();
        linearize(&mut lin);
        // Every input octant is represented: it survives or an input
        // descendant of it survives.
        for o in &v {
            prop_assert!(
                lin.iter().any(|l| o.contains(l)),
                "input octant {:?} lost entirely", o
            );
        }
    }

    #[test]
    fn completion_is_complete_2d(v in arb_linear_set::<2>(7)) {
        let root = Octant::<2>::root();
        let full = complete_subtree(&root, &v);
        prop_assert!(is_linear(&full));
        prop_assert!(is_complete(&full, &root));
        for o in &v {
            prop_assert!(full.binary_search(o).is_ok(), "pinned leaf lost");
        }
    }

    #[test]
    fn completion_is_complete_3d(v in arb_linear_set::<3>(5)) {
        let root = Octant::<3>::root();
        let full = complete_subtree(&root, &v);
        prop_assert!(is_linear(&full));
        prop_assert!(is_complete(&full, &root));
        for o in &v {
            prop_assert!(full.binary_search(o).is_ok());
        }
    }

    #[test]
    fn completion_is_coarsest_2d(v in arb_linear_set::<2>(6)) {
        // No filler octant could be replaced by its parent without
        // overlapping a pinned leaf or another filler outside the parent.
        let root = Octant::<2>::root();
        let full = complete_subtree(&root, &v);
        let pinned: std::collections::BTreeSet<_> = v.iter().copied().collect();
        for o in &full {
            if pinned.contains(o) || o.level == 0 {
                continue;
            }
            let p = o.parent();
            // Replacing o by p must break something: p overlaps a pinned
            // leaf not inside o, or p's extent is not fully covered by
            // fillers (i.e. some sibling region holds a pinned leaf or a
            // finer structure).
            let p_ok = full
                .iter()
                .filter(|f| p.contains(f))
                .all(|f| !pinned.contains(f))
                && full.iter().filter(|f| p.contains(f)).map(|f| f.cell_count()).sum::<u128>()
                    == p.cell_count()
                && full.iter().filter(|f| p.contains(f)).all(|f| f.level == o.level);
            prop_assert!(!p_ok, "filler {:?} could be coarsened to {:?}", o, p);
        }
    }

    #[test]
    fn descendant_indices_nest_3d(o in arb_octant::<3>(6)) {
        if o.level < MAX_LEVEL {
            for i in 0..8 {
                let c = o.child(i);
                prop_assert!(c.index() >= o.index());
                prop_assert!(c.last_index() <= o.last_index());
            }
            prop_assert_eq!(o.child(0).index(), o.index());
            prop_assert_eq!(o.child(7).last_index(), o.last_index());
        }
    }
}

/// Strategy: a random octant that may lie outside the root cube, shifted by
/// up to one root length per axis — the full range the balance algorithms
/// produce and the packed-key codec supports.
fn arb_shifted_octant<const D: usize>(max_depth: u8) -> impl Strategy<Value = Octant<D>> {
    arb_octant::<D>(max_depth).prop_flat_map(|o| {
        prop::collection::vec(-1i32..=1, D).prop_map(move |shifts| {
            let mut o = o;
            for (c, s) in o.coords.iter_mut().zip(shifts) {
                *c += s * ROOT_LEN;
            }
            o
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn packed_key_roundtrips_2d(o in arb_shifted_octant::<2>(10)) {
        prop_assert!(key::packable(&o));
        prop_assert_eq!(key::unpack::<2>(key::pack(&o)), o);
        prop_assert_eq!(key::unpack::<2>(key::pack(&o) as u64 as u128), o);
    }

    #[test]
    fn packed_key_roundtrips_3d(o in arb_shifted_octant::<3>(10)) {
        prop_assert_eq!(key::unpack::<3>(key::pack(&o)), o);
    }

    #[test]
    fn packed_key_order_matches_morton_2d(
        a in arb_shifted_octant::<2>(10),
        b in arb_shifted_octant::<2>(10),
    ) {
        prop_assert_eq!(key::pack(&a).cmp(&key::pack(&b)), morton::cmp(&a, &b));
        prop_assert_eq!((key::pack(&a) as u64).cmp(&(key::pack(&b) as u64)), morton::cmp(&a, &b));
    }

    #[test]
    fn packed_key_order_matches_morton_3d(
        a in arb_shifted_octant::<3>(10),
        b in arb_shifted_octant::<3>(10),
    ) {
        prop_assert_eq!(key::pack(&a).cmp(&key::pack(&b)), morton::cmp(&a, &b));
    }

    #[test]
    fn radix_sort_matches_sort_unstable_2d(
        v in prop::collection::vec(arb_shifted_octant::<2>(9), 0..300),
    ) {
        let mut radix = v.clone();
        let mut cmp = v;
        sort_octants_with(&mut radix, &mut SortScratch::new());
        cmp.sort_unstable();
        prop_assert_eq!(radix, cmp);
    }

    #[test]
    fn radix_sort_matches_sort_unstable_3d(
        v in prop::collection::vec(arb_shifted_octant::<3>(9), 0..300),
    ) {
        let mut radix = v.clone();
        let mut cmp = v;
        let mut s = SortScratch::new();
        sort_octants_with(&mut radix, &mut s);
        cmp.sort_unstable();
        prop_assert_eq!(radix, cmp);
    }

    #[test]
    fn octant_table_matches_hash_set_2d(
        v in prop::collection::vec(arb_shifted_octant::<2>(8), 1..200),
        probes in prop::collection::vec(arb_shifted_octant::<2>(8), 0..50),
    ) {
        let mut table = OctantTable::<2>::with_capacity_for(v.len());
        let mut set = HashSet::<Octant<2>>::new();
        for o in &v {
            prop_assert_eq!(table.insert(o), set.insert(*o));
        }
        prop_assert_eq!(table.len(), set.len());
        prop_assert_eq!(table.grow_count(), 0, "pre-sized table regrew");
        for o in v.iter().chain(&probes) {
            prop_assert_eq!(table.contains(o), set.contains(o));
        }
    }

    #[test]
    fn octant_table_matches_hash_set_3d(
        v in prop::collection::vec(arb_shifted_octant::<3>(8), 1..200),
        probes in prop::collection::vec(arb_shifted_octant::<3>(8), 0..50),
    ) {
        let mut table = OctantTable::<3>::with_capacity_for(v.len());
        let mut set = HashSet::<Octant<3>>::new();
        for o in &v {
            prop_assert_eq!(table.insert(o), set.insert(*o));
        }
        prop_assert_eq!(table.len(), set.len());
        prop_assert_eq!(table.grow_count(), 0, "pre-sized table regrew");
        for o in v.iter().chain(&probes) {
            prop_assert_eq!(table.contains(o), set.contains(o));
        }
        let mut stored: Vec<_> = table.keys().collect();
        stored.sort_unstable();
        let mut expect: Vec<_> = set.iter().map(key::pack).collect();
        expect.sort_unstable();
        prop_assert_eq!(stored, expect);
    }
}

/// The frame change on keys against the coordinates: for every step
/// vector in `{-1, 0, 1}^D` that keeps `o` inside the packable window,
/// `translate` equals the packed coordinate shift, and `tree_steps` is
/// each coordinate's root-length cell `div_euclid(ROOT_LEN)`, before and
/// after the move.
fn translate_matches_shift<const D: usize>(o: Octant<D>) {
    let p = PackedOctant::<D>::new(&o);
    assert_eq!(
        p.tree_steps(),
        o.coords.map(|c| c.div_euclid(ROOT_LEN) as i8)
    );
    let mut moved = 0;
    for code in 0..3usize.pow(D as u32) {
        let steps: [i8; D] = std::array::from_fn(|j| (code / 3usize.pow(j as u32) % 3) as i8 - 1);
        let mut shifted = o;
        for (c, &s) in shifted.coords.iter_mut().zip(&steps) {
            *c += s as i32 * ROOT_LEN;
        }
        if !key::packable(&shifted) {
            continue;
        }
        moved += 1;
        let q = p.translate(steps);
        assert_eq!(q.0, key::pack(&shifted), "{o:?} by {steps:?}");
        assert_eq!(
            q.tree_steps(),
            shifted.coords.map(|c| c.div_euclid(ROOT_LEN) as i8)
        );
    }
    // At least the identity, and every axis can move one way or the other.
    assert!(moved >= 2usize.pow(D as u32));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn translate_matches_shift_2d(o in arb_shifted_octant::<2>(MAX_LEVEL)) {
        translate_matches_shift(o);
    }

    #[test]
    fn translate_matches_shift_3d(o in arb_shifted_octant::<3>(MAX_LEVEL)) {
        translate_matches_shift(o);
    }
}

/// The bit-serial interleave the word-parallel kernels replaced: bit `b`
/// of axis `i` lands at bit `b * D + i`. Kept here as the oracle.
fn interleave_bit_serial<const D: usize>(coords: &[i32; D]) -> u128 {
    let mut idx = 0u128;
    for bit in 0..MAX_LEVEL as u32 {
        for (i, &c) in coords.iter().enumerate() {
            idx |= ((c as u128 >> bit) & 1) << (bit * D as u32 + i as u32);
        }
    }
    idx
}

/// Inverse of [`interleave_bit_serial`].
fn deinterleave_bit_serial<const D: usize>(idx: u128) -> [i32; D] {
    let mut coords = [0i32; D];
    for bit in 0..MAX_LEVEL as u32 {
        for (i, c) in coords.iter_mut().enumerate() {
            *c |= (((idx >> (bit * D as u32 + i as u32)) & 1) as i32) << bit;
        }
    }
    coords
}

/// Random in-root coordinates, with the extremes `0` and `ROOT_LEN - 1`
/// substituted on the axes whose `pin` digit (base 3) says so.
fn pinned<const D: usize>(raw: [i32; 3], pin: u32) -> [i32; D] {
    std::array::from_fn(|i| match pin / 3u32.pow(i as u32) % 3 {
        0 => 0,
        1 => ROOT_LEN - 1,
        _ => raw[i],
    })
}

fn interleave_matches_bit_serial<const D: usize>(raw: [i32; 3], pin: u32) {
    let c = pinned::<D>(raw, pin);
    let idx = morton::interleave(&c);
    assert_eq!(idx, interleave_bit_serial(&c), "D={D} {c:?}");
    assert_eq!(morton::deinterleave::<D>(idx), c, "D={D} {c:?}");
    assert_eq!(deinterleave_bit_serial::<D>(idx), c, "D={D} {c:?}");
}

fn index_roundtrips_and_matches_packed<const D: usize>(o: Octant<D>) {
    assert_eq!(o.index(), interleave_bit_serial(&o.coords));
    assert_eq!(Octant::<D>::from_index(o.index(), o.level), o);
    let p = PackedOctant::new(&o);
    assert_eq!(p.octant(), o);
    assert_eq!(o.index(), p.index());
    assert_eq!(o.last_index(), p.last_index());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn interleave_matches_bit_serial_all_dims(
        raw in prop::collection::vec(0..ROOT_LEN, 3),
        pin in 0u32..27,
    ) {
        let raw = [raw[0], raw[1], raw[2]];
        interleave_matches_bit_serial::<1>(raw, pin);
        interleave_matches_bit_serial::<2>(raw, pin);
        interleave_matches_bit_serial::<3>(raw, pin);
    }

    #[test]
    fn index_roundtrips_and_matches_packed_1d(o in arb_octant::<1>(MAX_LEVEL)) {
        index_roundtrips_and_matches_packed(o);
    }

    #[test]
    fn index_roundtrips_and_matches_packed_2d(o in arb_octant::<2>(MAX_LEVEL)) {
        index_roundtrips_and_matches_packed(o);
    }

    #[test]
    fn index_roundtrips_and_matches_packed_3d(o in arb_octant::<3>(MAX_LEVEL)) {
        index_roundtrips_and_matches_packed(o);
    }
}
