//! Criterion micro-benchmark: seed construction and reconstruction (§IV)
//! versus the old auxiliary-octant cascade, across scale separations.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use forestbal_core::{
    balance_subtree_old_ext_scratch, find_seeds, reconstruct_from_seeds, BalanceScratch, Condition,
};
use forestbal_octant::Octant;
use std::hint::black_box;

fn bench_seeds(c: &mut Criterion) {
    let cond = Condition::full(2);
    let root = Octant::<2>::root();
    let r = root.child(1);
    let left = root.child(0);

    let mut g = c.benchmark_group("remote_overlap_reconstruction");
    for depth in [6u8, 9, 12] {
        let mut o = left;
        while o.level < depth {
            o = o.child(1);
        }
        g.bench_with_input(BenchmarkId::new("old_auxiliary", depth), &o, |b, o| {
            b.iter(|| {
                balance_subtree_old_ext_scratch(
                    &r,
                    &[],
                    black_box(&[*o]),
                    cond,
                    &mut BalanceScratch::new(),
                )
            })
        });
        g.bench_with_input(BenchmarkId::new("new_seeds", depth), &o, |b, o| {
            b.iter(|| {
                let seeds = find_seeds(black_box(o), &r, cond).unwrap();
                reconstruct_from_seeds(&r, &seeds, cond)
            })
        });
        g.bench_with_input(BenchmarkId::new("find_seeds_only", depth), &o, |b, o| {
            b.iter(|| find_seeds(black_box(o), &r, cond))
        });
    }
    g.finish();
}

fn fast_config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(300))
}

criterion_group! {
    name = benches;
    config = fast_config();
    targets = bench_seeds
}
criterion_main!(benches);
