//! `serve-open`: how `mq serve` users reach the system. 64-d image
//! histograms behind the event-loop frontend (`mq-front`) with
//! `ServerConfig::default()` and a linear scan, driven over loopback by
//! an open loop of Poisson kNN-10 requests on a Zipf-0.8 pool, pipelined
//! on one connection by two load threads (a pacing sender and an
//! in-order reader). The offered rate climbs a ladder from 200 qps by
//! ×√2 per rung until two rungs miss the SLO; three bursts far past the
//! knee then measure the saturation throughput.

use crate::common::{
    counters, json_num, record_environment, same_bits, same_ranking, timed_setup, Args, Outcome,
    Rng, DATA_SEED,
};
use crate::layers::Layers;
use crate::rules::{fail_ratio, max_qps_at_slo, median, percentile, ratio, Failures, Rung};
use crate::trace::{
    BackendClock, BatchRecord, IndexClock, MetricClock, StoreClock, TimedBackend, TimedIndex,
    TimedStore,
};
use mq_core::{Answer, ExecutionStats, QueryEngine, QueryType};
use mq_datagen::image_histograms;
use mq_front::FrontServer;
use mq_index::{LinearScan, SimilarityIndex};
use mq_loadgen::{Mode, RequestPlan, WorkloadSpec};
use mq_metric::{Euclidean, Vector};
use mq_obs::{Recorder, Snapshot};
use mq_server::protocol::{read_message, Message, ProtocolError};
use mq_server::{QueryBackend, ServerConfig, SingleEngineBackend};
use mq_storage::{Dataset, PageLayout, PageStore, PagedDatabase, SimulatedDisk};
use std::cmp::Ordering;
use std::io::{BufReader, ErrorKind, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Neighbours per request.
const K: usize = 10;
/// Zipf exponent of the key skew.
const SKEW: f64 = 0.8;
/// Rate of the first (light) rung.
const LIGHT_QPS: f64 = 200.0;
/// Rung index of the heavy rung: 200 · √2⁴ = 800 qps.
const HEAVY_RUNG: usize = 4;
/// Rate of the heavy rung.
const HEAVY_QPS: f64 = 800.0;
/// Windows the heavy rung runs in.
const HEAVY_WINDOWS: usize = 3;
/// A rung lasts `--seconds` / this, or longer to reach its request floor.
const RUNG_DIVISOR: f64 = 10.0;
/// Offered rate of the saturation bursts: four times the heavy rung.
const SATURATION_QPS: f64 = 3200.0;
/// Saturation bursts after the ladder.
const SATURATION_BURSTS: usize = 3;
/// The ladder stops after this many rungs missed the SLO.
const MISSES_TO_STOP: usize = 2;
/// Upper bound on the ladder's length.
const MAX_RUNGS: usize = 14;
/// Requests per rung at least, so that its p99 rests on 10 samples.
const MIN_RUNG_REQUESTS: usize = 1000;
/// The same floor in smoke mode, where tails are not reported.
const SMOKE_RUNG_REQUESTS: usize = 100;
/// A reply later than this counts as a timeout.
const REPLY_TIMEOUT: Duration = Duration::from_secs(20);
/// The sender sleeps until this long before a request is due, then spins.
const SPIN: Duration = Duration::from_micros(100);
/// Batches replayed through both backends for the identity check.
const REPLAY_BATCHES: usize = 32;
/// Alternating plain/traced replays; the overhead is their median ratio.
const REPLAY_ROUNDS: usize = 5;

/// The traced server's clocks.
#[derive(Default)]
struct Clocks {
    store: Arc<StoreClock>,
    index: Arc<IndexClock>,
    backend: Arc<BackendClock>,
}

/// A backend as `build_backend` configures one for the in-memory store,
/// over any page store and index.
fn backend_of(
    store: Box<dyn PageStore<Vector>>,
    index: Box<dyn SimilarityIndex<Vector>>,
    config: &ServerConfig,
) -> SingleEngineBackend {
    SingleEngineBackend::from_store(store, index, config.avoidance)
        .with_metric(config.metric)
        .with_threads(config.threads)
        .with_prefetch_depth(config.prefetch_depth)
        .with_leader(config.leader)
        .with_retry_budget(config.retry_budget)
}

/// Packs the database and builds the backend, timed when `clocks` is set.
fn build_backend(
    dataset: &Dataset<Vector>,
    config: &ServerConfig,
    clocks: Option<&Clocks>,
) -> Box<dyn QueryBackend> {
    let db = PagedDatabase::pack(dataset, PageLayout::PAPER);
    let scan = LinearScan::new(db.page_count());
    let disk = Box::new(SimulatedDisk::new(db, 0.10));
    match clocks {
        None => Box::new(backend_of(disk, Box::new(scan), config)),
        Some(c) => {
            let store = TimedStore::new(disk, Arc::clone(&c.store));
            let index = TimedIndex::new(scan, Arc::clone(&c.index));
            let inner = backend_of(Box::new(store), Box::new(index), config);
            Box::new(TimedBackend::new(Box::new(inner), Arc::clone(&c.backend)))
        }
    }
}

/// One rung as measured.
struct RungRun {
    rung: Rung,
    latencies_ms: Vec<f64>,
    late_ms: Vec<f64>,
    failures: Failures,
    /// From the first due time to the last reply, seconds.
    wall_s: f64,
}

impl RungRun {
    /// One rung from consecutive windows at the same rate: samples and
    /// failures pooled, rates taken from the window that kept up worst.
    fn merge(step_qps: f64, parts: Vec<RungRun>) -> RungRun {
        let keep_up = |r: &RungRun| r.rung.achieved_qps / r.rung.offered_qps;
        let worst = parts
            .iter()
            .min_by(|a, b| keep_up(a).total_cmp(&keep_up(b)))
            .expect("one window");
        let (offered_qps, achieved_qps) = (worst.rung.offered_qps, worst.rung.achieved_qps);
        let mut merged = RungRun {
            rung: Rung {
                step_qps,
                offered_qps,
                achieved_qps,
                p99_ms: None,
                attempted: 0,
                failed: 0,
            },
            latencies_ms: Vec::new(),
            late_ms: Vec::new(),
            failures: Failures::default(),
            wall_s: 0.0,
        };
        for p in parts {
            merged.rung.attempted += p.rung.attempted;
            merged.rung.failed += p.rung.failed;
            merged.latencies_ms.extend(p.latencies_ms);
            merged.late_ms.extend(p.late_ms);
            merged.failures += p.failures;
            merged.wall_s += p.wall_s;
        }
        merged.rung.p99_ms = percentile(&merged.latencies_ms, 0.99);
        merged
    }
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let (n, pool_size) = if args.smoke {
        (1_000, 128)
    } else {
        (10_000, 1024)
    };
    let objects = image_histograms(n, DATA_SEED);
    let dataset = Dataset::new(objects.clone());
    let pool_ids = Rng::new(args.seed, 5).distinct(n, pool_size);
    let pool: Vec<Vector> = pool_ids.iter().map(|&i| objects[i].clone()).collect();
    let config = ServerConfig::default();
    let recorder = if args.trace {
        Recorder::enabled()
    } else {
        Recorder::disabled()
    };

    let (setup_s, (server, clocks)) = timed_setup(|| {
        let clocks = args.trace.then(Clocks::default);
        let backend = build_backend(&dataset, &config, clocks.as_ref());
        let server = FrontServer::bind_with_recorder("127.0.0.1:0", backend, &config, &recorder)
            .expect("bind the frontend on loopback");
        (server, clocks)
    });
    let addr = server.local_addr();

    // Oracle answers for every pool object, computed before the ladder
    // by an in-process engine over an identical database.
    let reference: Vec<Vec<Answer>> = {
        let db = PagedDatabase::pack(&dataset, PageLayout::PAPER);
        let scan = LinearScan::new(db.page_count());
        let disk = SimulatedDisk::new(db, 0.10);
        let engine = QueryEngine::new(&disk, &scan, Euclidean);
        pool.iter()
            .map(|q| {
                engine
                    .similarity_query(q, &QueryType::knn(K))
                    .as_slice()
                    .to_vec()
            })
            .collect()
    };

    let mut out = Outcome::default();
    record_environment(&mut out, args);
    out.record("objects", n.to_string());
    out.record("dims", objects[0].dim().to_string());
    out.record("index", "\"scan\"");
    out.record("k", K.to_string());
    out.record("pool", pool_size.to_string());
    out.record("skew", json_num(SKEW));
    out.record("frontend", "\"event-loop (mq-front)\"");
    out.record("max_batch", config.max_batch.to_string());
    out.record("max_wait_ms", json_num(config.max_wait.as_secs_f64() * 1e3));
    out.record("workers", config.workers.to_string());
    out.record("max_queue", config.max_queue.to_string());
    out.record("connections", "1");
    out.record("load_threads", "2");

    let rung_secs = args.seconds / RUNG_DIVISOR;
    let floor = if args.smoke {
        SMOKE_RUNG_REQUESTS
    } else {
        MIN_RUNG_REQUESTS
    };
    let heavy_requests = floor.max((HEAVY_QPS * rung_secs) as usize);
    let mut client = Client {
        addr,
        pool: &pool,
        reference: &reference,
        seen: vec![false; pool_size],
        sent: 0,
        repeats: 0,
        plans_ok: true,
        fingerprints: Vec::new(),
        late_ms: Vec::new(),
        failures: Failures::default(),
    };
    let mut runs: Vec<RungRun> = Vec::new();
    let mut per_rung: Vec<Layers> = Vec::new();
    let mut misses = 0;
    let mut rung_table = Vec::new();
    let (mut heavy_p50_ms, mut heavy_p99_ms) = (0.0, 0.0);
    for k in 0..MAX_RUNGS {
        if misses >= MISSES_TO_STOP && k > HEAVY_RUNG {
            break;
        }
        let rate = LIGHT_QPS * 2f64.powf(k as f64 / 2.0);
        // Rungs from the heavy one up send a fixed number of requests, so
        // that the largest backlog is the same size in every run. The heavy
        // rung runs in windows; its reported latencies are their medians.
        let (requests, windows) = match k.cmp(&HEAVY_RUNG) {
            Ordering::Less => (floor.max((rate * rung_secs) as usize), 1),
            Ordering::Equal => (heavy_requests, HEAVY_WINDOWS),
            Ordering::Greater => (heavy_requests, 1),
        };
        let before = args
            .trace
            .then(|| (recorder.snapshot(), clock_reading(clocks.as_ref())));
        let parts: Vec<RungRun> = (0..windows)
            .map(|w| {
                let seed = args.seed.wrapping_mul(1000) + (100 * w + k) as u64;
                client.drive(rate, requests, seed)
            })
            .collect();
        if k == HEAVY_RUNG {
            let window = |p: f64| {
                let per: Vec<f64> = parts
                    .iter()
                    .filter_map(|r| percentile(&r.latencies_ms, p))
                    .collect();
                median(&per).unwrap_or(0.0)
            };
            heavy_p50_ms = window(0.5);
            heavy_p99_ms = window(0.99);
        }
        let run = RungRun::merge(rate, parts);
        let mut traced_cols = String::new();
        if let (Some((snap, clock0)), Some(c)) = (before, clocks.as_ref()) {
            let mut l = Layers::default();
            let batches = c.backend.take();
            scrape_server(&mut l, &recorder.snapshot().delta(&snap), &batches, &run);
            time_backend(&mut l, &batches, &run, &clock0, &clock_reading(Some(c)));
            traced_cols = format!(
                ", \"sched.batch_size_mean\": {}, \"sched.deadline_flush_ratio\": {}, \
                 \"sched.queue_wait_p50_ms\": {}, \"sched.queue_wait_p99_ms\": {}, \
                 \"backend.busy_ratio\": {}, \"front.other_mean_ms\": {}",
                json_num(l.sched_batch_size_mean),
                json_num(l.sched_deadline_flush_ratio),
                json_num(l.sched_queue_wait_p50_ms),
                json_num(l.sched_queue_wait_p99_ms),
                json_num(l.backend_busy_ratio),
                json_num(l.front_other_mean_ms),
            );
            per_rung.push(l);
        }
        if !run.rung.meets_slo() {
            misses += 1;
        }
        rung_table.push(format!(
            "{{\"step_qps\": {}, \"offered_qps\": {}, \"achieved_qps\": {}, \"requests\": {}, \
             \"p50_ms\": {}, \"p99_ms\": {}, \"failed\": {}, \"meets_slo\": {}{traced_cols}}}",
            json_num(run.rung.step_qps),
            json_num(run.rung.offered_qps),
            json_num(run.rung.achieved_qps),
            run.rung.attempted,
            json_num(percentile(&run.latencies_ms, 0.5).unwrap_or(0.0)),
            json_num(run.rung.p99_ms.unwrap_or(0.0)),
            run.rung.failed,
            run.rung.meets_slo()
        ));
        runs.push(run);
    }

    // Saturation bursts well past the knee: the server answers at its
    // capacity, and the median burst is the saturation throughput.
    let bursts_qps: Vec<f64> = (0..SATURATION_BURSTS)
        .map(|b| {
            let seed = args.seed.wrapping_mul(1000).wrapping_add(500 + b as u64);
            client
                .drive(SATURATION_QPS, 2 * heavy_requests, seed)
                .rung
                .achieved_qps
        })
        .collect();
    let saturation_qps = median(&bursts_qps).expect("one burst");

    let Client {
        sent,
        repeats,
        plans_ok,
        fingerprints,
        late_ms: all_late,
        failures,
        ..
    } = client;
    let rungs: Vec<Rung> = runs.iter().map(|r| r.rung.clone()).collect();
    let max_qps = max_qps_at_slo(&rungs).unwrap_or(0.0);
    let light = &runs[0];

    out.correct = plans_ok && failures.wrong == 0;
    out.attempted = sent;
    out.failed = failures.total();
    out.record("fingerprints", format!("[{}]", fingerprints.join(", ")));
    out.record("repeat_share", json_num(repeats as f64 / sent as f64));
    out.record("rungs", format!("[{}]", rung_table.join(", ")));
    out.record(
        "saturation_bursts_qps",
        crate::common::json_list(&bursts_qps),
    );
    out.record("errors", failures.errors.to_string());
    out.record("timeouts", failures.timeouts.to_string());
    out.record("refusals", failures.refusals.to_string());
    out.record("wrong", failures.wrong.to_string());
    let summary = [
        ("light_p50_ms", percentile(&light.latencies_ms, 0.5)),
        ("light_p99_ms", percentile(&light.latencies_ms, 0.99)),
        ("heavy_p50_ms", Some(heavy_p50_ms)),
        ("heavy_p99_ms", Some(heavy_p99_ms)),
    ];
    for (name, value) in summary {
        out.notes.push(format!(
            "{name} = {} ms",
            value.map_or("n/a".into(), |v| format!("{v:.3}"))
        ));
    }
    out.notes.push(format!("max_qps_at_slo = {max_qps:.1} 1/s"));
    out.record("max_qps_at_slo", json_num(max_qps));
    out.notes.push(format!(
        "fail_ratio = {} (errors {}, timeouts {}, refusals {}, wrong {} of {sent})",
        fail_ratio(&failures, sent),
        failures.errors,
        failures.timeouts,
        failures.refusals,
        failures.wrong
    ));

    if args.trace {
        // Engine-side layers at the heavy rung, scheduler and frontend at
        // the light rung, where the flush deadline dominates.
        let mut layers = per_rung[HEAVY_RUNG].clone();
        let l = &per_rung[0];
        layers.sched_batches = l.sched_batches;
        layers.sched_batch_size_mean = l.sched_batch_size_mean;
        layers.sched_deadline_flush_ratio = l.sched_deadline_flush_ratio;
        layers.sched_queue_wait_p50_ms = l.sched_queue_wait_p50_ms;
        layers.sched_queue_wait_p99_ms = l.sched_queue_wait_p99_ms;
        layers.front_other_mean_ms = l.front_other_mean_ms;
        layers.admission_rejected = per_rung.iter().map(|l| l.admission_rejected).sum();
        layers.client_late_p99_ms = percentile(&all_late, 0.99).unwrap_or(0.0);
        layers.client_repeat_share = repeats as f64 / sent as f64;
        layers.client_sent = sent as f64;
        layers.client_light_p50_ms = percentile(&light.latencies_ms, 0.5).unwrap_or(0.0);
        layers.client_light_p99_ms = percentile(&light.latencies_ms, 0.99).unwrap_or(0.0);
        layers.client_fail_ratio = fail_ratio(&failures, sent);
        layers.client_max_qps_at_slo = max_qps;
        let (identical, overhead) = replay_check(&dataset, &config, &pool, args.seed);
        layers.trace_overhead_ratio = overhead;
        out.correct &= identical;
        out.failed += (!identical) as u64;
        out.notes.push(format!(
            "replayed {REPLAY_BATCHES} batches {REPLAY_ROUNDS} times: answers and ExecutionStats {} \
             between the plain and the traced backend; tracing overhead {:+.1}%",
            if identical { "identical" } else { "DIFFER" },
            overhead * 100.0
        ));
        layers.emit(&mut out);
    } else {
        out.metric("setup_s", setup_s, "s");
        out.metric("throughput_qps", saturation_qps, "1/s");
        out.metric("p50_ms", heavy_p50_ms, "ms");
        out.metric("p99_ms", heavy_p99_ms, "ms");
        out.metric("peak_rss_mb", crate::common::peak_rss_mb(), "MiB");
        out.notes.push(
            "throughput_qps = saturation throughput, the median replies/s of the bursts; \
             p50/p99 = request latency at the heavy (800 qps) rung, timed from each \
             request's due time, median over the rung's windows"
                .into(),
        );
    }
    let mut server = server;
    server.begin_drain();
    server.drain(Duration::from_secs(10));
    server.shutdown();
    out
}

/// The load client's state across rungs: traffic accounting and the oracle.
struct Client<'a> {
    addr: std::net::SocketAddr,
    pool: &'a [Vector],
    /// The in-process engine's answer for every pool object.
    reference: &'a [Vec<Answer>],
    /// Pool slots requested so far.
    seen: Vec<bool>,
    sent: u64,
    /// Requests whose pool slot was requested before.
    repeats: u64,
    /// Every plan materialized twice to the same fingerprint.
    plans_ok: bool,
    fingerprints: Vec<String>,
    late_ms: Vec<f64>,
    failures: Failures,
}

impl Client<'_> {
    /// Materializes an open-loop plan at `rate` (twice, comparing
    /// fingerprints), replays it, and checks every reply against the oracle.
    fn drive(&mut self, rate: f64, requests: usize, seed: u64) -> RungRun {
        let spec = WorkloadSpec {
            mode: Mode::Open { offered_qps: rate },
            requests,
            qtype: QueryType::knn(K),
            pool: self.pool.to_vec(),
            skew: SKEW,
            seed,
        };
        let plan = RequestPlan::materialize(&spec);
        self.plans_ok &= plan.fingerprint() == RequestPlan::materialize(&spec).fingerprint();
        self.fingerprints
            .push(format!("\"{:016x}\"", plan.fingerprint()));
        for r in &plan.requests {
            self.sent += 1;
            self.repeats += self.seen[r.pool_slot] as u64;
            self.seen[r.pool_slot] = true;
        }
        let (mut run, replies) = run_rung(self.addr, &plan, rate);
        for (r, reply) in plan.requests.iter().zip(&replies) {
            if let Some(answers) = reply {
                if !same_ranking(answers, &self.reference[r.pool_slot]) {
                    run.failures.wrong += 1;
                    run.rung.failed += 1;
                }
            }
        }
        self.late_ms.extend_from_slice(&run.late_ms);
        self.failures += run.failures;
        run
    }
}

/// Sleeps until shortly before `due`, then spins until it passes.
fn pace(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Replays one rung's plan over a fresh connection: a sender thread paces
/// the pipelined requests, this thread reads the replies in order.
fn run_rung(
    addr: std::net::SocketAddr,
    plan: &RequestPlan,
    step_qps: f64,
) -> (RungRun, Vec<Option<Vec<Answer>>>) {
    let frames: Vec<Vec<u8>> = plan
        .requests
        .iter()
        .map(|r| {
            Message::Query {
                object: plan.query(r).clone(),
                qtype: r.qtype,
                collection: String::new(),
                tenant: String::new(),
            }
            .encode()
            .to_vec()
        })
        .collect();
    let total = frames.len();
    let stream = TcpStream::connect(addr).expect("connect to the frontend");
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    stream
        .set_read_timeout(Some(REPLY_TIMEOUT))
        .expect("set read timeout");
    stream
        .set_write_timeout(Some(REPLY_TIMEOUT))
        .expect("set write timeout");
    let mut writer = stream.try_clone().expect("clone the client socket");
    let mut reader = BufReader::new(stream);
    let t0 = Instant::now() + Duration::from_millis(20);
    let dues: Vec<Instant> = plan.requests.iter().map(|r| t0 + r.offset).collect();

    let mut failures = Failures::default();
    let mut latencies_ms = Vec::with_capacity(total);
    let mut replies: Vec<Option<Vec<Answer>>> = vec![None; total];
    let mut first_reply = None;
    let mut last_reply = t0;
    let late_ms = std::thread::scope(|s| {
        let dues = &dues;
        let sender = s.spawn(move || {
            let mut late = Vec::with_capacity(total);
            for (frame, &due) in frames.iter().zip(dues) {
                pace(due);
                late.push((Instant::now() - due).as_secs_f64() * 1e3);
                if writer.write_all(frame).is_err() {
                    break;
                }
            }
            late
        });
        for i in 0..total {
            let msg = read_message(&mut reader);
            let now = Instant::now();
            match msg {
                Ok(Message::Answers { answers, .. }) => {
                    latencies_ms.push((now - dues[i]).as_secs_f64() * 1e3);
                    replies[i] = Some(answers);
                    first_reply.get_or_insert(now);
                    last_reply = now;
                    continue;
                }
                Ok(Message::Overloaded { .. }) => failures.refusals += 1,
                Ok(_) => failures.errors += 1,
                Err(ProtocolError::Io(e))
                    if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) =>
                {
                    failures.timeouts += (total - i) as u64;
                    break;
                }
                Err(_) => {
                    failures.errors += (total - i) as u64;
                    break;
                }
            }
            // A failed request misses every latency limit.
            latencies_ms.push(f64::INFINITY);
        }
        let _ = reader.get_ref().shutdown(Shutdown::Both);
        sender.join().expect("sender thread panicked")
    });
    // Failed requests cut short by a broken connection still miss the limit.
    latencies_ms.resize(total, f64::INFINITY);

    let ok = replies.iter().filter(|r| r.is_some()).count();
    let span = |a: Instant, b: Instant| (b - a).as_secs_f64();
    let offered_qps = (total - 1) as f64 / span(dues[0], dues[total - 1]);
    // Replies per second between the first and the last reply: below the
    // offered rate only when latency grew across the rung (a backlog).
    let achieved_qps = match first_reply {
        Some(first) if ok > 1 => (ok - 1) as f64 / span(first, last_reply),
        _ => 0.0,
    };
    let rung = Rung {
        step_qps,
        offered_qps,
        achieved_qps,
        p99_ms: percentile(&latencies_ms, 0.99),
        attempted: total as u64,
        failed: failures.total(),
    };
    let run = RungRun {
        rung,
        latencies_ms,
        late_ms,
        failures,
        wall_s: span(t0, last_reply),
    };
    (run, replies)
}

/// The wrapper clocks' cumulative readings.
fn clock_reading(clocks: Option<&Clocks>) -> Layers {
    let mut l = Layers::default();
    if let Some(c) = clocks {
        l.add_clocks(&MetricClock::default(), &c.index, &c.store);
    }
    l
}

/// Mean execute seconds per query: each query waits for its whole batch.
fn execute_per_query(batches: &[BatchRecord]) -> f64 {
    let queries: usize = batches.iter().map(|b| b.size).sum();
    ratio(
        batches.iter().map(|b| b.size as f64 * b.secs).sum(),
        queries as f64,
    )
}

/// Scheduler, admission and frontend readings of one rung, from the
/// server recorder's change over the rung.
fn scrape_server(layers: &mut Layers, delta: &Snapshot, batches: &[BatchRecord], run: &RungRun) {
    let flushes = ["full", "deadline", "closed"]
        .map(|r| delta.value(&format!("mq_server_batches_total{{reason=\"{r}\"}}")));
    let total: f64 = flushes.iter().sum();
    layers.sched_batches = total;
    layers.sched_batch_size_mean = ratio(
        delta.value("mq_server_batch_size_sum"),
        delta.value("mq_server_batch_size_count"),
    );
    layers.sched_deadline_flush_ratio = ratio(flushes[1], total);
    let wait = |q| {
        delta
            .quantile("mq_server_queue_wait_seconds", q)
            .unwrap_or(0.0)
            * 1e3
    };
    layers.sched_queue_wait_p50_ms = wait(0.5);
    layers.sched_queue_wait_p99_ms = wait(0.99);
    let wait_mean_ms = ratio(
        delta.value("mq_server_queue_wait_seconds_sum"),
        delta.value("mq_server_queue_wait_seconds_count"),
    ) * 1e3;
    let finite: Vec<f64> = run
        .latencies_ms
        .iter()
        .copied()
        .filter(|v| v.is_finite())
        .collect();
    let client_mean_ms = ratio(finite.iter().sum(), finite.len() as f64);
    layers.front_other_mean_ms = client_mean_ms - wait_mean_ms - execute_per_query(batches) * 1e3;
    layers.admission_rejected = delta.value("mq_front_rejected_total");
}

/// Backend, engine, index and store readings of one rung.
fn time_backend(
    layers: &mut Layers,
    batches: &[BatchRecord],
    run: &RungRun,
    before: &Layers,
    after: &Layers,
) {
    let execute_s: f64 = batches.iter().map(|b| b.secs).sum();
    layers.backend_execute_s = execute_s;
    layers.backend_busy_ratio = ratio(execute_s, run.wall_s);
    layers.engine_busy_s = execute_s;
    layers.queries = batches.iter().map(|b| b.size as f64).sum();
    layers.stats = batches
        .iter()
        .fold(ExecutionStats::default(), |acc, b| acc + counters(b.stats));
    layers.index_plan_calls = after.index_plan_calls - before.index_plan_calls;
    layers.index_pages_yielded = after.index_pages_yielded - before.index_pages_yielded;
    layers.index_mindist_calls = after.index_mindist_calls - before.index_mindist_calls;
    layers.index_busy_s = after.index_busy_s - before.index_busy_s;
    layers.storage_read_s = after.storage_read_s - before.storage_read_s;
    // The backend owns its metric, so distances are counted (from the
    // batches' statistics) but not timed.
    layers.metric_calls = layers.stats.dist_calcs as f64;
}

/// Replays the same batches through a plain and a traced backend, each
/// built fresh: whether answers and counters are identical, and the
/// traced/plain time ratio minus one.
fn replay_check(
    dataset: &Dataset<Vector>,
    config: &ServerConfig,
    pool: &[Vector],
    seed: u64,
) -> (bool, f64) {
    let mut rng = Rng::new(seed, 6);
    let batches: Vec<Vec<(Vector, QueryType)>> = (0..REPLAY_BATCHES)
        .map(|_| {
            (0..config.max_batch)
                .map(|_| (pool[rng.below(pool.len())].clone(), QueryType::knn(K)))
                .collect()
        })
        .collect();
    let replay = |backend: Box<dyn QueryBackend>| {
        let start = Instant::now();
        let results: Vec<(Vec<Vec<Answer>>, ExecutionStats)> =
            batches.iter().map(|b| backend.execute(b.clone())).collect();
        (results, start.elapsed().as_secs_f64())
    };
    let mut identical = true;
    let mut ratios = Vec::with_capacity(REPLAY_ROUNDS);
    for _ in 0..REPLAY_ROUNDS {
        let (plain, plain_s) = replay(build_backend(dataset, config, None));
        let (traced, traced_s) = replay(build_backend(dataset, config, Some(&Clocks::default())));
        identical &= plain
            .iter()
            .zip(&traced)
            .all(|((a, sa), (b, sb))| same_bits(a, b) && counters(*sa) == counters(*sb));
        ratios.push(traced_s / plain_s);
    }
    (identical, median(&ratios).expect("one round") - 1.0)
}
