//! Multiple-query benchmarks: block-size sweep and the §5.2 avoidance
//! ablation — the central measurement of the paper in wall-clock form.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mq_core::{EngineOptions, QueryEngine, QueryType};
use mq_datagen::{classification_query_ids, image_histograms_config, tycho_like};
use mq_index::{LinearScan, XTree, XTreeConfig};
use mq_metric::{Euclidean, Vector};
use mq_storage::{Dataset, PagedDatabase, SimulatedDisk};
use std::hint::black_box;

fn queries_for(ds: &Dataset<Vector>, m: usize, k: usize) -> Vec<(Vector, QueryType)> {
    classification_query_ids(ds.len(), m, 7)
        .into_iter()
        .map(|id| (ds.object(id).clone(), QueryType::knn(k)))
        .collect()
}

fn bench_block_size_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("multiple-query-scan");
    group.sample_size(10);
    let ds = Dataset::new(tycho_like(8_000, 1));
    let db = PagedDatabase::pack(&ds, Default::default());
    let scan = LinearScan::new(db.page_count());
    let disk = SimulatedDisk::new(db, 0.1);
    let engine = QueryEngine::new(&disk, &scan, Euclidean);
    let queries = queries_for(&ds, 64, 10);
    group.throughput(Throughput::Elements(64));
    for m in [1usize, 8, 64] {
        group.bench_with_input(BenchmarkId::new("m", m), &m, |b, &m| {
            b.iter(|| {
                for block in queries.chunks(m) {
                    black_box(engine.multiple_similarity_query(block.to_vec()));
                }
            })
        });
    }
    group.finish();
}

fn bench_avoidance_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("avoidance-ablation");
    group.sample_size(10);
    // Clustered 64-d data: the avoidance sweet spot (§6.2).
    let ds = Dataset::new(image_histograms_config(6_000, 64, 80, 0.004, 3));
    let db = PagedDatabase::pack(&ds, Default::default());
    let scan = LinearScan::new(db.page_count());
    let disk = SimulatedDisk::new(db, 0.1);
    let queries = queries_for(&ds, 64, 20);
    group.throughput(Throughput::Elements(64));
    group.bench_function("with-avoidance", |b| {
        let engine = QueryEngine::new(&disk, &scan, Euclidean);
        b.iter(|| black_box(engine.multiple_similarity_query(queries.clone())))
    });
    group.bench_function("without-avoidance", |b| {
        let engine = QueryEngine::new(&disk, &scan, Euclidean).with_options(EngineOptions {
            avoidance: false,
            ..EngineOptions::default()
        });
        b.iter(|| black_box(engine.multiple_similarity_query(queries.clone())))
    });
    group.finish();
}

fn bench_xtree_multiple(c: &mut Criterion) {
    let mut group = c.benchmark_group("multiple-query-xtree");
    group.sample_size(10);
    let ds = Dataset::new(tycho_like(8_000, 5));
    let (tree, db) = XTree::bulk_load(&ds, XTreeConfig::default());
    let disk = SimulatedDisk::new(db, 0.1);
    let engine = QueryEngine::new(&disk, &tree, Euclidean);
    let queries = queries_for(&ds, 64, 10);
    group.throughput(Throughput::Elements(64));
    for m in [1usize, 64] {
        group.bench_with_input(BenchmarkId::new("m", m), &m, |b, &m| {
            b.iter(|| {
                for block in queries.chunks(m) {
                    black_box(engine.multiple_similarity_query(block.to_vec()));
                }
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_block_size_sweep,
    bench_avoidance_ablation,
    bench_xtree_multiple
);
criterion_main!(benches);
