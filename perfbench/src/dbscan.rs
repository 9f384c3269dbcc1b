//! `dbscan-sessions`: the paper's mining use. Web sessions over 12
//! navigation trails compared by edit distance, in an M-tree with a 10%
//! buffer, clustered by `Dbscan::new(2.0, 5).run_multiple(engine, 64)`:
//! dependent ε-range queries through incremental Definition-4 sessions,
//! each distance expensive.

use crate::common::{counters, record_environment, timed_setup, Args, Outcome, Rng, DATA_SEED};
use crate::layers::Layers;
use crate::rules::{median, percentile};
use crate::trace::{IndexClock, MetricClock, StoreClock, TimedIndex, TimedMetric, TimedStore};
use mq_core::{AvoidanceStats, ExecutionStats, QueryEngine, QueryType};
use mq_datagen::sessions::{web_sessions, SessionConfig};
use mq_index::{MTree, MTreeConfig, SimilarityIndex};
use mq_metric::{CountingMetric, EditDistance, Metric, Symbols};
use mq_mining::{Dbscan, DbscanResult, Label};
use mq_obs::{Recorder, Snapshot};
use mq_storage::{Dataset, PageStore, SimulatedDisk};
use std::sync::Arc;
use std::time::Instant;

/// DBSCAN radius.
const EPS: f64 = 2.0;
/// DBSCAN density threshold.
const MIN_PTS: usize = 5;
/// Lookahead of the multiple-query seed list.
const BATCH: usize = 64;
/// Seconds of `--seconds` per clustering job: a run makes a fixed number
/// of jobs, so that its memory peak does not depend on the host's speed.
const SECONDS_PER_JOB: f64 = 2.0;
/// Objects whose labels are checked against brute force.
const ORACLE_SAMPLE: usize = 160;

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    // 4000 sessions keep a job near 2 s, so a run alternates about ten
    // jobs with ten chunks of single queries.
    let n = if args.smoke { 600 } else { 4_000 };
    let cfg = SessionConfig {
        num_trails: 12,
        ..Default::default()
    };
    let (sessions, _) = web_sessions(n, cfg, DATA_SEED);
    let dataset = Dataset::new(sessions.clone());
    let (setup_s, (tree, disk)) = timed_setup(|| {
        let (tree, db) = MTree::insert_load(&dataset, EditDistance, MTreeConfig::default());
        (tree, SimulatedDisk::new(db, 0.10))
    });

    let mut out = Outcome::default();
    record_environment(&mut out, args);
    out.record("objects", n.to_string());
    out.record("trails", cfg.num_trails.to_string());
    out.record("eps", EPS.to_string());
    out.record("min_pts", MIN_PTS.to_string());
    out.record("batch", BATCH.to_string());
    out.record("index", "\"m-tree\"");
    out.record("data_pages", tree.page_count().to_string());
    out.record("buffer_pages", disk.buffer_capacity().to_string());

    if args.trace {
        traced(args, &disk, &tree, &mut out);
    } else {
        untraced(args, &disk, &tree, &sessions, setup_s, &mut out);
    }
    out
}

fn untraced(
    args: &Args,
    disk: &SimulatedDisk<Symbols>,
    tree: &MTree<Symbols, EditDistance>,
    sessions: &[Symbols],
    setup_s: f64,
    out: &mut Outcome,
) {
    let metric = CountingMetric::new(EditDistance);
    let engine = QueryEngine::new(disk, tree, metric.clone());
    let dbscan = Dbscan::new(EPS, MIN_PTS);

    // Clustering jobs, each from a cold buffer, alternating with chunks of
    // single ε-range queries issued one at a time — the interactive request
    // a user makes against the same database. The single queries cover
    // every object once, in seeded order, so their latency distribution is
    // the same for every seed; alternating spreads both measurements over
    // the whole run.
    let jobs = ((args.seconds / SECONDS_PER_JOB).round() as usize).max(1);
    let picks = Rng::new(args.seed, 3).distinct(sessions.len(), sessions.len());
    let chunk = picks.len().div_ceil(jobs);
    let qtype = QueryType::range(EPS);
    let mut latencies_ms = Vec::with_capacity(picks.len());
    let mut single_answers = Vec::with_capacity(ORACLE_SAMPLE);
    let mut job_qps = Vec::with_capacity(jobs);
    let mut results: Vec<DbscanResult> = Vec::with_capacity(jobs);
    let start = Instant::now();
    for picks in picks.chunks(chunk) {
        disk.cold_restart();
        let t = Instant::now();
        let result = dbscan.run_multiple(&engine, BATCH);
        job_qps.push(result.queries as f64 / t.elapsed().as_secs_f64());
        results.push(result);
        for &i in picks {
            let t = Instant::now();
            let answers = engine.similarity_query(&sessions[i], &qtype);
            latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
            // Only the answers the oracle checks are kept.
            if single_answers.len() < ORACLE_SAMPLE {
                single_answers.push(answers);
            }
        }
    }
    let run_s = start.elapsed().as_secs_f64();

    // Oracle, outside the timed region.
    let labels = &results[0].labels;
    let mut wrong = results.iter().filter(|r| r.labels != *labels).count() as u64;
    let sample = Rng::new(args.seed, 4).distinct(sessions.len(), ORACLE_SAMPLE.min(sessions.len()));
    for &i in &sample {
        if !label_consistent(sessions, labels, i) {
            wrong += 1;
        }
    }
    for (&i, answers) in picks.iter().zip(&single_answers) {
        let mut got: Vec<u32> = answers.ids().map(|id| id.0).collect();
        got.sort_unstable();
        if got != neighbours(sessions, i) {
            wrong += 1;
        }
    }

    let queries: usize = results.iter().map(|r| r.queries).sum();
    out.correct = wrong == 0;
    out.attempted = (queries + picks.len()) as u64;
    out.failed = wrong;
    out.metric("setup_s", setup_s, "s");
    out.metric("throughput_qps", median(&job_qps).expect("one job"), "1/s");
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
    out.record("job_qps", crate::common::json_list(&job_qps));
    out.record("run_seconds", crate::common::json_num(run_s));
    out.record("clusters", results[0].clusters.to_string());
    out.record("noise", results[0].noise_count().to_string());
    out.record("queries_per_job", results[0].queries.to_string());
    out.record("dist_calcs", metric.counter().get().to_string());
    out.record(
        "oracle_checked",
        (sample.len() + single_answers.len()).to_string(),
    );
    out.notes.push(format!(
        "throughput = median over {} DBSCAN jobs of range queries per second; \
         p50/p99 = {} single ε-range queries issued one at a time between jobs",
        results.len(),
        latencies_ms.len()
    ));
}

/// Ids within `EPS` of object `i` by exhaustive search, ascending.
fn neighbours(sessions: &[Symbols], i: usize) -> Vec<u32> {
    (0..sessions.len() as u32)
        .filter(|&j| EditDistance.distance(&sessions[i], &sessions[j as usize]) <= EPS)
        .collect()
}

/// DBSCAN's definitions at object `i`: a core object (≥ `MIN_PTS`
/// neighbours, itself included) is in a cluster together with every
/// neighbour; a noise object is no core object.
fn label_consistent(sessions: &[Symbols], labels: &[Label], i: usize) -> bool {
    let around = neighbours(sessions, i);
    let core = around.len() >= MIN_PTS;
    match labels[i] {
        Label::Noise => !core,
        Label::Cluster(c) => {
            !core
                || around
                    .iter()
                    .all(|&j| labels[j as usize] == Label::Cluster(c))
        }
    }
}

/// One DBSCAN job from a cold buffer with the engine's own counters on:
/// the result, its counters, wall seconds and seconds inside engine steps.
fn job<M: Metric<Symbols>>(
    disk: &dyn PageStore<Symbols>,
    index: &dyn SimilarityIndex<Symbols>,
    metric: M,
    counting: &CountingMetric<EditDistance>,
) -> (DbscanResult, ExecutionStats, f64, f64) {
    let recorder = Recorder::enabled();
    let engine = QueryEngine::new(disk, index, metric).with_recorder(&recorder);
    disk.cold_restart();
    counting.counter().reset();
    let before = recorder.snapshot();
    let t = Instant::now();
    let result = Dbscan::new(EPS, MIN_PTS).run_multiple(&engine, BATCH);
    let secs = t.elapsed().as_secs_f64();
    let delta = recorder.snapshot().delta(&before);
    let stats = ExecutionStats {
        io: disk.stats(),
        dist_calcs: counting.counter().get(),
        avoidance: avoidance(&delta),
        elapsed: Default::default(),
    };
    let step_s = delta.value("mq_core_stage_seconds_sum{stage=\"step\"}");
    (result, stats, secs, step_s)
}

/// The §5.2 counters from the engine's own recorder.
fn avoidance(delta: &Snapshot) -> AvoidanceStats {
    let avoided = delta.value("mq_core_distance_calculations_total{outcome=\"avoided\"}") as u64;
    let computed = delta.value("mq_core_distance_calculations_total{outcome=\"performed\"}") as u64;
    AvoidanceStats {
        tries: delta.value("mq_core_avoidance_tries_total") as u64,
        avoided,
        computed,
    }
}

fn traced(
    args: &Args,
    disk: &SimulatedDisk<Symbols>,
    tree: &MTree<Symbols, EditDistance>,
    out: &mut Outcome,
) {
    let plain = CountingMetric::new(EditDistance);
    let (mclock, iclock, sclock) = (
        Arc::new(MetricClock::default()),
        Arc::new(IndexClock::default()),
        Arc::new(StoreClock::default()),
    );
    let store = TimedStore::new(disk, Arc::clone(&sclock));
    let index = TimedIndex::new(tree, Arc::clone(&iclock));
    let counting = CountingMetric::new(EditDistance);
    let metric = TimedMetric::new(counting.clone(), Arc::clone(&mclock));

    let mut layers = Layers::default();
    let (mut base_secs, mut job_secs) = (Vec::new(), Vec::new());
    let mut identical = true;
    let start = Instant::now();
    // Untraced and traced jobs alternate, so both see the same host.
    while job_secs.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let (want, want_stats, base_s, _) = job(disk, tree, &plain, &plain);
        let (result, stats, secs, step_s) = job(&store, &index, &metric, &counting);
        identical &= result == want && counters(stats) == counters(want_stats);
        base_secs.push(base_s);
        job_secs.push(secs);
        layers.queries += result.queries as f64;
        layers.mining_queries += result.queries as f64;
        layers.engine_busy_s += step_s;
        layers.mining_self_s += secs - step_s;
        layers.stats += stats;
    }
    layers.add_clocks(&mclock, &iclock, &sclock);
    layers.trace_overhead_ratio =
        median(&job_secs).expect("one job") / median(&base_secs).expect("one job") - 1.0;

    out.correct = identical;
    out.attempted = layers.queries as u64;
    out.failed = if identical { 0 } else { 1 };
    out.notes.push(format!(
        "{} traced DBSCAN jobs, each after an untraced one; labels and ExecutionStats \
         {} the untraced jobs; \
         tracing overhead {:+.1}%; engine time = the engine's own step spans, \
         mining self time = job time outside them (includes query admission)",
        job_secs.len(),
        if identical {
            "identical to"
        } else {
            "DIFFER from"
        },
        layers.trace_overhead_ratio * 100.0
    ));
    layers.emit(out);
}
