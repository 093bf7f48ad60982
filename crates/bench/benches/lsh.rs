//! Micro-benchmarks of the LSH substrate.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use d3l_lsh::forest::LshForest;
use d3l_lsh::minhash::{MinHashSignature, MinHasher};

fn token_set(i: usize, n: usize) -> Vec<String> {
    (0..n).map(|j| format!("tok{}_{}", i % 37, j)).collect()
}

fn bench_minhash(c: &mut Criterion) {
    let mh = MinHasher::new(256, 1);
    let toks = token_set(0, 100);
    c.bench_function("minhash/sign_100_tokens_256perm", |b| {
        b.iter(|| black_box(mh.sign_strs(toks.iter().map(String::as_str))))
    });
    let a = mh.sign_strs(toks.iter().map(String::as_str));
    let bb = mh.sign_strs(token_set(1, 100).iter().map(String::as_str));
    c.bench_function("minhash/jaccard_estimate", |b| {
        b.iter(|| black_box(a.jaccard(&bb)))
    });
}

fn build_forest(items: usize, mh: &MinHasher) -> LshForest<MinHashSignature> {
    let mut f = LshForest::new(256, 16);
    for i in 0..items {
        let toks = token_set(i, 40);
        f.insert(i as u64, mh.sign_strs(toks.iter().map(String::as_str)));
    }
    f.commit();
    f
}

fn bench_forest_query(c: &mut Criterion) {
    let mh = MinHasher::new(256, 2);
    let mut group = c.benchmark_group("lsh_query");
    for &n in &[1_000usize, 4_000] {
        let forest = build_forest(n, &mh);
        let q = mh.sign_strs(token_set(3, 40).iter().map(String::as_str));
        group.bench_with_input(BenchmarkId::new("forest_top50", n), &n, |b, _| {
            b.iter(|| black_box(forest.query(&q, 50)))
        });
    }
    group.finish();
}

fn bench_forest_insert(c: &mut Criterion) {
    let mh = MinHasher::new(256, 3);
    let sigs: Vec<MinHashSignature> = (0..500)
        .map(|i| {
            let toks = token_set(i, 40);
            mh.sign_strs(toks.iter().map(String::as_str))
        })
        .collect();
    c.bench_function("lsh_forest/insert_and_build_500", |b| {
        b.iter(|| {
            let mut f = LshForest::new(256, 16);
            for (i, s) in sigs.iter().enumerate() {
                f.insert(i as u64, s.clone());
            }
            f.commit();
            black_box(f.len())
        })
    });
}

criterion_group!(
    benches,
    bench_minhash,
    bench_forest_query,
    bench_forest_insert
);
criterion_main!(benches);
