//! Regression-tree performance: build, cross-validate, and the D2
//! ablation (sparsity-aware sorted split scan vs the naive quadratic scan
//! the paper describes literally).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use fuzzyphase::regtree::{cross_validate, CrossValidation, Dataset, Fitter};
use fuzzyphase::stats::{seeded_rng, SparseVec};
use rand::Rng;

/// A realistic EIPV-shaped dataset: `n` vectors, `features` unique EIPs,
/// ~`nnz` non-zeros per vector, phased targets.
fn eipv_dataset(n: usize, features: u32, nnz: usize, seed: u64) -> Dataset {
    let mut rng = seeded_rng(seed);
    let mut rows = Vec::with_capacity(n);
    let mut ys = Vec::with_capacity(n);
    for i in 0..n {
        let phase = (i / 20) % 3;
        let base = phase as u32 * (features / 3);
        let pairs: Vec<(u32, f64)> = (0..nnz)
            .map(|_| {
                (
                    base + rng.gen_range(0..features / 3),
                    rng.gen_range(1.0..5.0),
                )
            })
            .collect();
        rows.push(SparseVec::from_pairs(pairs));
        ys.push(1.0 + phase as f64 * 0.8 + rng.gen_range(-0.05..0.05));
    }
    Dataset::new(rows, ys)
}

/// D2 reference implementation: evaluate every (feature, threshold) pair
/// by re-partitioning from scratch — O(features × rows²)-ish.
fn naive_best_split(ds: &Dataset) -> (u32, f64) {
    let n = ds.len();
    let mut features: Vec<u32> = Vec::new();
    for i in 0..n {
        for (f, _) in ds.row(i).iter() {
            features.push(f);
        }
    }
    features.sort_unstable();
    features.dedup();

    let mut best = (0u32, 0.0f64, f64::INFINITY);
    for &f in &features {
        let mut values: Vec<f64> = (0..n).map(|i| ds.row(i).get(f)).collect();
        values.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        values.dedup();
        for &t in &values[..values.len().saturating_sub(1)] {
            let (mut ls, mut lq, mut ln) = (0.0f64, 0.0f64, 0.0f64);
            let (mut rs, mut rq, mut rn) = (0.0f64, 0.0f64, 0.0f64);
            for i in 0..n {
                let y = ds.target(i);
                if ds.row(i).get(f) <= t {
                    ls += y;
                    lq += y * y;
                    ln += 1.0;
                } else {
                    rs += y;
                    rq += y * y;
                    rn += 1.0;
                }
            }
            let sse = (lq - ls * ls / ln.max(1.0)) + (rq - rs * rs / rn.max(1.0));
            if sse < best.2 {
                best = (f, t, sse);
            }
        }
    }
    (best.0, best.1)
}

fn bench_regtree(c: &mut Criterion) {
    let small = eipv_dataset(250, 3_000, 100, 1);
    let large = eipv_dataset(250, 20_000, 100, 2);

    c.bench_function("tree_build_250x3k", |b| {
        b.iter(|| Fitter::new().full(&small))
    });
    c.bench_function("tree_build_250x20k", |b| {
        b.iter(|| Fitter::new().full(&large))
    });
    c.bench_function("cross_validate_10fold_k50", |b| {
        b.iter(|| cross_validate(&small, 7))
    });
    // Fold-parallel cross-validation (bit-identical curve, 4 workers).
    let cv4 = CrossValidation {
        seed: 7,
        workers: 4,
        ..Default::default()
    };
    c.bench_function("cross_validate_10fold_k50_4workers", |b| {
        b.iter(|| cv4.run(&small))
    });

    // D2 ablation: the sparsity-aware search (one root split via a
    // 2-leaf build) vs the naive quadratic scan.
    let tiny = eipv_dataset(120, 500, 40, 3);
    c.bench_function("split_search_sorted(root)", |b| {
        b.iter_batched(
            || tiny.clone(),
            |ds| Fitter::new().max_leaves(2).full(&ds),
            BatchSize::SmallInput,
        )
    });
    c.bench_function("split_search_naive(root)", |b| {
        b.iter(|| naive_best_split(&tiny))
    });
}

criterion_group!(benches, bench_regtree);
criterion_main!(benches);
