//! Criterion view of the page-evaluation hot path: the same three
//! configurations as the `bench_core` binary (scalar fallback, blocked
//! kernels, kernels + parallel evaluation) on a small 64-d batch, so
//! regressions show up in routine bench runs without the full harness.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mq_bench::baseline::NaiveEuclidean;
use mq_core::{EngineOptions, QueryEngine, QueryType};
use mq_datagen::image_histograms;
use mq_index::LinearScan;
use mq_metric::{Euclidean, Metric, Vector};
use mq_storage::{Dataset, PageLayout, PagedDatabase, SimulatedDisk};
use std::hint::black_box;

const N: usize = 2_000;
const M: usize = 8;
const K: usize = 20;

fn run_batch<Me: Metric<Vector> + Sync>(
    dataset: &Dataset<Vector>,
    queries: &[(Vector, QueryType)],
    metric: Me,
    threads: usize,
) -> usize {
    let db = PagedDatabase::pack(dataset, PageLayout::PAPER);
    let index = LinearScan::new(db.page_count());
    let disk = SimulatedDisk::new(db, 0.10);
    let engine = QueryEngine::new(&disk, &index, metric).with_options(EngineOptions {
        threads,
        ..EngineOptions::default()
    });
    let answers = engine.multiple_similarity_query(queries.to_vec());
    answers.iter().map(Vec::len).sum()
}

fn bench_page_eval(c: &mut Criterion) {
    let objects = image_histograms(N, 20000203);
    let queries: Vec<(Vector, QueryType)> = (0..M)
        .map(|i| (objects[i * N / M].clone(), QueryType::knn(K)))
        .collect();
    let dataset = Dataset::new(objects);

    let mut group = c.benchmark_group("page-eval");
    group.bench_with_input(BenchmarkId::new("scalar", 1), &1usize, |b, _| {
        b.iter(|| run_batch(black_box(&dataset), &queries, NaiveEuclidean, 1))
    });
    group.bench_with_input(BenchmarkId::new("kernel", 1), &1usize, |b, _| {
        b.iter(|| run_batch(black_box(&dataset), &queries, Euclidean, 1))
    });
    for threads in [2usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("kernel-parallel", threads),
            &threads,
            |b, &t| b.iter(|| run_batch(black_box(&dataset), &queries, Euclidean, t)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_page_eval);
criterion_main!(benches);
