//! `knn-batch`: the paper's astronomy setting (Figs. 7–9). Tycho-like
//! 20-d vectors in an X-tree with the paper's page layout and a 10%
//! buffer; 4096 distinct kNN-10 queries drawn from the database, sent
//! closed-loop as multiple similarity queries of m = 16 with the engine's
//! default options.

use crate::common::{
    close, counters, record_environment, same_ranking, timed_setup, Args, Outcome, Rng, DATA_SEED,
};
use crate::layers::Layers;
use crate::rules::{median, percentile};
use crate::trace::{IndexClock, MetricClock, StoreClock, TimedIndex, TimedMetric, TimedStore};
use mq_core::{Answer, AvoidanceStats, ExecutionStats, QueryEngine, QueryType};
use mq_datagen::tycho_like;
use mq_index::{SimilarityIndex, XTree, XTreeConfig};
use mq_metric::{CountingMetric, DistanceCounter, Euclidean, Metric, ObjectId, Vector};
use mq_storage::{Dataset, PageLayout, PageStore, SimulatedDisk};
use std::sync::Arc;
use std::time::Instant;

/// Queries per multiple similarity query.
const M: usize = 16;
/// Neighbours per query.
const K: usize = 10;
/// Queries checked against brute force.
const ORACLE_SAMPLE: usize = 48;
/// Batches a run times at least, so that its p99 rests on 10 samples.
const MIN_BATCHES: usize = 1000;

type Batch = Vec<(Vector, QueryType)>;

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let (n, queries) = if args.smoke {
        (3_000, 256)
    } else {
        (60_000, 4096)
    };
    let objects = tycho_like(n, DATA_SEED);
    let dataset = Dataset::new(objects.clone());
    let ids = Rng::new(args.seed, 1).distinct(n, queries);
    let batches: Vec<Batch> = ids
        .chunks(M)
        .map(|c| {
            c.iter()
                .map(|&i| (objects[i].clone(), QueryType::knn(K)))
                .collect()
        })
        .collect();
    let cfg = XTreeConfig {
        layout: PageLayout::PAPER,
        ..Default::default()
    };
    let (setup_s, (tree, disk)) = timed_setup(|| {
        let (tree, db) = XTree::bulk_load(&dataset, cfg);
        (tree, SimulatedDisk::new(db, 0.10))
    });

    let mut out = Outcome::default();
    record_environment(&mut out, args);
    out.record("objects", n.to_string());
    out.record("dims", objects[0].dim().to_string());
    out.record("queries", queries.to_string());
    out.record("m", M.to_string());
    out.record("k", K.to_string());
    out.record("index", "\"x-tree, PAPER layout\"");
    out.record("data_pages", tree.page_count().to_string());
    out.record("buffer_pages", disk.buffer_capacity().to_string());

    if args.trace {
        traced(args, &disk, &tree, &batches, &mut out);
    } else {
        untraced(args, &disk, &tree, &objects, &batches, setup_s, &mut out);
    }
    out
}

fn untraced(
    args: &Args,
    disk: &SimulatedDisk<Vector>,
    tree: &XTree,
    objects: &[Vector],
    batches: &[Batch],
    setup_s: f64,
    out: &mut Outcome,
) {
    disk.cold_restart();
    let metric = CountingMetric::new(Euclidean);
    let engine = QueryEngine::new(disk, tree, metric.clone());
    let mut latencies_ms = Vec::new();
    let mut pass_qps = Vec::new();
    let mut first_pass: Vec<Vec<Answer>> = Vec::new();
    // Whole passes over the query set until the run is long enough and
    // the p99 rests on ten samples.
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds || latencies_ms.len() < MIN_BATCHES {
        let pass_start = Instant::now();
        for batch in batches {
            let t = Instant::now();
            let answers = engine.multiple_similarity_query(batch.clone());
            latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
            if pass_qps.is_empty() {
                first_pass.extend(answers);
            }
        }
        pass_qps.push((batches.len() * M) as f64 / pass_start.elapsed().as_secs_f64());
    }
    let elapsed = start.elapsed().as_secs_f64();
    let answered = (latencies_ms.len() * M) as u64;

    // Oracle, outside the timed region: a seeded sample of the first
    // pass against exhaustive search.
    let flat: Vec<&(Vector, QueryType)> = batches.iter().flatten().collect();
    let sample = Rng::new(args.seed, 2).distinct(flat.len(), ORACLE_SAMPLE.min(flat.len()));
    let wrong = sample
        .iter()
        .filter(|&&i| {
            let query = &flat[i].0;
            let want = brute_knn(objects, query, K, |a, b| Euclidean.distance(a, b));
            let got = &first_pass[i];
            let ids_ok = got.iter().all(|a| {
                close(
                    Euclidean.distance(query, &objects[a.id.index()]),
                    a.distance,
                )
            });
            !(ids_ok && same_ranking(got, &want))
        })
        .count() as u64;

    out.correct = wrong == 0;
    out.attempted = answered;
    out.failed = wrong;
    out.metric("setup_s", setup_s, "s");
    out.metric(
        "throughput_qps",
        median(&pass_qps).expect("one pass"),
        "1/s",
    );
    out.metric(
        "p50_ms",
        percentile(&latencies_ms, 0.5).unwrap_or(0.0),
        "ms",
    );
    out.metric(
        "p99_ms",
        percentile(&latencies_ms, 0.99).unwrap_or(0.0),
        "ms",
    );
    out.metric("peak_rss_mb", crate::common::peak_rss_mb(), "MiB");
    out.record("batches_timed", latencies_ms.len().to_string());
    out.record("pass_qps", crate::common::json_list(&pass_qps));
    out.record("dist_calcs", metric.counter().get().to_string());
    out.record("oracle_checked", sample.len().to_string());
    out.notes.push(format!(
        "throughput = median over {} passes of kNN queries per second; request = one \
         multiple similarity query of m = {M} kNN-{K} queries; {} requests in {elapsed:.2} s",
        pass_qps.len(),
        latencies_ms.len()
    ));
}

/// The `k` nearest neighbours of `query` by exhaustive search, ascending
/// by distance then id.
pub fn brute_knn<O>(
    objects: &[O],
    query: &O,
    k: usize,
    dist: impl Fn(&O, &O) -> f64,
) -> Vec<Answer> {
    let mut all: Vec<Answer> = objects
        .iter()
        .enumerate()
        .map(|(i, o)| Answer {
            id: ObjectId(i as u32),
            distance: dist(query, o),
        })
        .collect();
    all.sort_by(|a, b| a.distance.total_cmp(&b.distance).then(a.id.0.cmp(&b.id.0)));
    all.truncate(k);
    all
}

/// One pass over every batch from a cold buffer: answers, counters, wall
/// seconds of the pass and seconds inside the engine.
fn pass<M: Metric<Vector>>(
    engine: &QueryEngine<'_, Vector, M>,
    disk: &dyn PageStore<Vector>,
    counter: &DistanceCounter,
    batches: &[Batch],
) -> (Vec<Vec<Answer>>, ExecutionStats, f64, f64) {
    disk.cold_restart();
    counter.reset();
    let mut answers = Vec::new();
    let mut avoidance = AvoidanceStats::default();
    let mut engine_s = 0.0;
    let start = Instant::now();
    for batch in batches {
        let t = Instant::now();
        let mut session = engine.new_session(batch.clone());
        engine.run_to_completion(&mut session);
        engine_s += t.elapsed().as_secs_f64();
        avoidance += session.avoidance_stats();
        answers.extend(session.into_answers());
    }
    let secs = start.elapsed().as_secs_f64();
    let stats = ExecutionStats {
        io: disk.stats(),
        dist_calcs: counter.get(),
        avoidance,
        elapsed: Default::default(),
    };
    (answers, stats, secs, engine_s)
}

fn traced(
    args: &Args,
    disk: &SimulatedDisk<Vector>,
    tree: &XTree,
    batches: &[Batch],
    out: &mut Outcome,
) {
    let plain = CountingMetric::new(Euclidean);
    let untraced = QueryEngine::new(disk, tree, plain.clone());
    let (mclock, iclock, sclock) = (
        Arc::new(MetricClock::default()),
        Arc::new(IndexClock::default()),
        Arc::new(StoreClock::default()),
    );
    let store = TimedStore::new(disk, Arc::clone(&sclock));
    let index = TimedIndex::new(tree, Arc::clone(&iclock));
    let counting = CountingMetric::new(Euclidean);
    let engine = QueryEngine::new(
        &store,
        &index,
        TimedMetric::new(counting.clone(), Arc::clone(&mclock)),
    );
    let mut layers = Layers::default();
    let (mut base_secs, mut pass_secs) = (Vec::new(), Vec::new());
    let mut identical = true;
    let start = Instant::now();
    // Untraced and traced passes alternate, so both see the same host.
    while pass_secs.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let (want, want_stats, base_s, _) = pass(&untraced, disk, plain.counter(), batches);
        let (answers, stats, secs, engine_s) = pass(&engine, &store, counting.counter(), batches);
        identical &=
            crate::common::same_bits(&answers, &want) && counters(stats) == counters(want_stats);
        base_secs.push(base_s);
        pass_secs.push(secs);
        layers.queries += answers.len() as f64;
        layers.engine_busy_s += engine_s;
        layers.stats += stats;
    }
    layers.add_clocks(&mclock, &iclock, &sclock);
    layers.trace_overhead_ratio =
        median(&pass_secs).expect("one pass") / median(&base_secs).expect("one pass") - 1.0;

    out.correct = identical;
    out.attempted = layers.queries as u64;
    out.failed = if identical { 0 } else { 1 };
    out.notes.push(format!(
        "{} traced passes, each after an untraced one; answers and ExecutionStats \
         {} the untraced passes; tracing overhead {:+.1}%",
        pass_secs.len(),
        if identical {
            "identical to"
        } else {
            "DIFFER from"
        },
        layers.trace_overhead_ratio * 100.0
    ));
    layers.emit(out);
}
