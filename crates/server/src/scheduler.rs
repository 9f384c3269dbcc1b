//! The batching scheduler: turns a stream of independent requests into
//! multiple similarity queries.
//!
//! Requests from any number of connections flow into one queue. A pool of
//! [`ServerConfig::workers`] worker threads (default 1) collects them and
//! flushes the queue as `multiple_similarity_query` batches once
//! [`ServerConfig::max_batch`] requests accumulated or
//! [`ServerConfig::max_wait`] passed since the first queued request — the
//! server-side analogue of the paper's m-block: concurrent traffic pays one
//! shared pass instead of m separate ones. With one worker, batches execute
//! strictly sequentially; with more, batch execution overlaps batch
//! collection.

use crate::config::{ExecutionMode, FileIndex, ServerConfig, StoreChoice};
use crate::protocol::ServiceMetrics;
use crossbeam::channel::{self, Receiver, RecvTimeoutError, Sender};
use mq_approx::{build_prescreen, ApproxTier};
use mq_core::{Answer, EngineOptions, ExecutionStats, FaultPolicy, LeaderPolicy, QueryType};
use mq_index::{LinearScan, SimilarityIndex};
use mq_metric::{Metric, ObjectId, Vector, VectorMetric};
use mq_obs::{Counter, Histogram, Recorder, DURATION_BOUNDS, SIZE_BOUNDS};
use mq_parallel::{Declustering, Server, SharedNothingCluster};
use mq_storage::{buffer_pages, Dataset, PageStore, PagedDatabase, SimulatedDisk, VectorCodec};
use mq_store::{
    FilePageStore, PartitionManifest, SegmentMeta, StoreError, SEGMENT_FILE, SEGMENT_HEADER_LEN,
};
use mq_vafile::VaPageIndex;
use parking_lot::Mutex;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The answers of one request plus its batch's shared statistics.
#[derive(Clone, Debug)]
pub struct QueryReply {
    /// Identifier of the batch that carried this query (1-based).
    pub batch_id: u64,
    /// Queries in that batch.
    pub batch_size: u32,
    /// Execution statistics of the whole batch.
    pub stats: ExecutionStats,
    /// The answers, ascending by distance.
    pub answers: Vec<Answer>,
}

/// Executes one flushed batch. Implementations own their storage and
/// index; the scheduler's worker threads are their only callers, and with
/// more than one worker `execute` runs concurrently — hence `Sync`.
pub trait QueryBackend: Send + Sync + 'static {
    /// Evaluates the whole batch, returning per-query answer lists in
    /// input order plus the batch's execution statistics.
    fn execute(&self, queries: Vec<(Vector, QueryType)>) -> (Vec<Vec<Answer>>, ExecutionStats);

    /// Dimensionality of the stored vectors, or 0 when unknown (empty
    /// database). The frontend rejects mismatched queries up front so a
    /// single bad request cannot reach — let alone poison — a batch that
    /// carries other clients' queries.
    fn dimensions(&self) -> usize;

    /// Number of live objects served (0 when unknown) — what the
    /// `ListCollections` opcode reports per collection.
    fn object_count(&self) -> u64 {
        0
    }

    /// One-line description for logs.
    fn describe(&self) -> String;
}

/// The serving backend: a §5.3 shared-nothing cluster of one or more
/// partitions, each an engine over its own page store (simulated or
/// file-backed) and access method. A single engine is the one-partition
/// case with identity global ids, so both execution modes share one
/// construction path and one `execute`.
pub struct EngineBackend {
    cluster: SharedNothingCluster<Vector, VectorMetric>,
    dims: usize,
}

/// An alias of [`EngineBackend`] that exists only because the benchmark
/// harness names it; in-repo callers use [`EngineBackend`].
pub type SingleEngineBackend = EngineBackend;

impl EngineBackend {
    /// Wraps a database and its index as one partition. `buffer_fraction`
    /// sizes the page buffer as in [`SimulatedDisk::new`].
    pub fn new(
        db: PagedDatabase<Vector>,
        index: Box<dyn SimilarityIndex<Vector>>,
        buffer_fraction: f64,
        avoidance: bool,
    ) -> Self {
        let disk = Box::new(SimulatedDisk::new(db, buffer_fraction));
        Self::from_store(disk, index, avoidance)
    }

    /// Wraps an already-built page store (any backend) and its index as
    /// one partition.
    pub fn from_store(
        disk: Box<dyn PageStore<Vector>>,
        index: Box<dyn SimilarityIndex<Vector>>,
        avoidance: bool,
    ) -> Self {
        Self::from_servers(vec![whole_server(disk, index, VectorMetric::default())]).with_options(
            EngineOptions {
                avoidance,
                ..EngineOptions::default()
            },
        )
    }

    /// Assembles the backend from already-built partitions (any page-store
    /// backend); their engines start at [`EngineOptions::default`].
    pub fn from_servers(servers: Vec<Server<Vector, VectorMetric>>) -> Self {
        let dims = servers
            .iter()
            .map(|s| dims_of(s.disk().database()))
            .find(|&d| d > 0)
            .unwrap_or(0);
        Self {
            cluster: SharedNothingCluster::from_servers(servers),
            dims,
        }
    }

    /// Runs every partition's engine with `options`. Answers and counters
    /// are identical for every thread count, prefetch depth and leader
    /// policy; with `threads > 1` each partition gets a persistent worker
    /// pool reused across batches.
    pub fn with_options(mut self, options: EngineOptions) -> Self {
        self.cluster = self.cluster.with_options(options);
        self
    }

    /// Changes one field of the engine options.
    fn with_option(self, set: impl FnOnce(&mut EngineOptions)) -> Self {
        let mut options = self.cluster.options();
        set(&mut options);
        self.with_options(options)
    }

    /// Sets [`EngineOptions::threads`].
    pub fn with_threads(self, threads: usize) -> Self {
        self.with_option(|o| o.threads = threads)
    }

    /// Sets [`EngineOptions::prefetch_depth`].
    pub fn with_prefetch_depth(self, depth: usize) -> Self {
        self.with_option(|o| o.prefetch_depth = depth)
    }

    /// Sets [`EngineOptions::leader`].
    pub fn with_leader(self, leader: LeaderPolicy) -> Self {
        self.with_option(|o| o.leader = leader)
    }

    /// Sets the retry budget of [`EngineOptions::fault_policy`].
    pub fn with_retry_budget(self, budget: u32) -> Self {
        self.with_option(|o| o.fault_policy = FaultPolicy::new(budget))
    }

    /// Selects the distance function. Non-Euclidean metrics must be paired
    /// with a sequential-scan index (see [`ServerConfig::metric`]).
    pub fn with_metric(mut self, metric: VectorMetric) -> Self {
        self.cluster = self.cluster.with_metric(metric);
        self
    }

    /// Attaches an observability [`Recorder`]: engine counters and stage
    /// spans, per-partition counters, every disk's buffer/prefetch/fault
    /// counters, and the worker pools' per-worker counters.
    pub fn with_recorder(mut self, recorder: &Recorder) -> Self {
        self.cluster = self.cluster.with_recorder(recorder);
        self
    }

    /// Installs the approximate candidate tier (`None` keeps the backend
    /// exact): one prescreen per partition, built over that partition's
    /// local id space. `store_dirs` holds each file-backed partition's
    /// directory, where its binary sketch is loaded from — or rebuilt
    /// into — `sketch.mqbq`; it is empty for simulated stores.
    pub fn with_approx(mut self, tier: Option<ApproxTier>, store_dirs: &[PathBuf]) -> Self {
        let Some(tier) = tier else { return self };
        let prescreens = self
            .cluster
            .servers()
            .iter()
            .enumerate()
            .map(|(p, s)| {
                build_prescreen(
                    tier,
                    s.disk().database(),
                    store_dirs.get(p).map(PathBuf::as_path),
                )
            })
            .collect();
        self.cluster = self.cluster.with_prescreens(prescreens);
        self
    }
}

/// One partition holding the whole database: identity global ids.
fn whole_server(
    disk: Box<dyn PageStore<Vector>>,
    index: Box<dyn SimilarityIndex<Vector>>,
    metric: VectorMetric,
) -> Server<Vector, VectorMetric> {
    let ids = (0..disk.database().object_count() as u32)
        .map(ObjectId)
        .collect();
    Server::from_parts(disk, index, metric, ids)
}

/// Dimensionality of the first live vector, or 0 when the database holds
/// none (empty, or every id tombstoned).
fn dims_of(db: &PagedDatabase<Vector>) -> usize {
    (0..db.object_count() as u32)
        .find_map(|i| db.try_object(ObjectId(i)))
        .map_or(0, |v| v.dim())
}

impl QueryBackend for EngineBackend {
    fn execute(&self, queries: Vec<(Vector, QueryType)>) -> (Vec<Vec<Answer>>, ExecutionStats) {
        let (answers, cluster_stats) = self.cluster.multiple_query(&queries);
        // Sum of per-partition work; elapsed is the parallel wall-clock,
        // not the sum.
        let mut stats = cluster_stats.total();
        stats.elapsed = cluster_stats.elapsed;
        (answers, stats)
    }

    fn dimensions(&self) -> usize {
        self.dims
    }

    fn object_count(&self) -> u64 {
        self.cluster
            .servers()
            .iter()
            .map(|s| s.disk().database().object_count() as u64)
            .sum()
    }

    fn describe(&self) -> String {
        let servers = self.cluster.servers();
        format!(
            "engine over {} partition(s), {} pages, avoidance {}, approx {}",
            servers.len(),
            servers
                .iter()
                .map(|s| s.disk().database().page_count())
                .sum::<usize>(),
            if self.cluster.options().avoidance {
                "on"
            } else {
                "off"
            },
            self.cluster
                .prescreen_names()
                .first()
                .copied()
                .unwrap_or("off"),
        )
    }
}

/// Where a job's reply goes: the frontend's sink enqueues the encoded
/// reply on the connection's outbox and wakes the poll thread. A sink is
/// invoked exactly once — with `Some` when the batch executed, `None`
/// when it died first (backend panic or queue closed), so the frontend
/// can always send *something*.
type ReplySink = Box<dyn FnOnce(Option<QueryReply>) + Send>;

struct Job {
    object: Vector,
    qtype: QueryType,
    sink: Option<ReplySink>,
    /// When the job entered the queue (queue-wait observability).
    submitted: Instant,
    /// The scheduler's in-flight count; decremented on drop, so every
    /// exit path — reply delivered, batch panicked, queue drained on
    /// shutdown — retires the job exactly once.
    pending: Arc<AtomicU64>,
}

impl Job {
    fn deliver(&mut self, reply: QueryReply) {
        if let Some(sink) = self.sink.take() {
            sink(Some(reply));
        }
    }
}

impl Drop for Job {
    fn drop(&mut self) {
        // A sink still present here means the job is being retired without
        // a reply (batch panic, queue closed at shutdown): deliver the
        // failure so the frontend answers with a typed error instead of
        // leaving the connection waiting forever.
        if let Some(sink) = self.sink.take() {
            sink(None);
        }
        self.pending.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Why a batch stopped collecting and flushed.
#[derive(Clone, Copy)]
enum FlushReason {
    /// The batch reached [`ServerConfig::max_batch`] jobs.
    Full,
    /// [`ServerConfig::max_wait`] passed since the first queued job.
    Deadline,
    /// The submission queue was closed (shutdown drain).
    Closed,
}

/// Pre-registered scheduler instruments: batch-size and queue-wait
/// distributions plus flush-reason counters.
struct SchedObs {
    batch_size: Arc<Histogram>,
    queue_wait: Arc<Histogram>,
    flush_full: Arc<Counter>,
    flush_deadline: Arc<Counter>,
    flush_closed: Arc<Counter>,
    queries: Arc<Counter>,
}

impl SchedObs {
    fn new(recorder: &Recorder) -> Option<Arc<Self>> {
        let flush = |reason: &'static str| {
            recorder.counter(
                "mq_server_batches_total",
                "Batches flushed by the scheduler, by flush reason.",
                &[("reason", reason)],
            )
        };
        Some(Arc::new(Self {
            batch_size: recorder.histogram(
                "mq_server_batch_size",
                "Queries per flushed batch.",
                &[],
                &SIZE_BOUNDS,
            )?,
            queue_wait: recorder.histogram(
                "mq_server_queue_wait_seconds",
                "Time each query waited in the submission queue before its \
                 batch flushed.",
                &[],
                &DURATION_BOUNDS,
            )?,
            flush_full: flush("full")?,
            flush_deadline: flush("deadline")?,
            flush_closed: flush("closed")?,
            queries: recorder.counter(
                "mq_server_queries_total",
                "Queries accepted into flushed batches.",
                &[],
            )?,
        }))
    }

    fn record_flush(&self, jobs: &[Job], reason: FlushReason) {
        self.batch_size.observe(jobs.len() as f64);
        self.queries.add(jobs.len() as u64);
        let now = Instant::now();
        for job in jobs {
            self.queue_wait
                .observe(now.saturating_duration_since(job.submitted).as_secs_f64());
        }
        match reason {
            FlushReason::Full => self.flush_full.inc(),
            FlushReason::Deadline => self.flush_deadline.inc(),
            FlushReason::Closed => self.flush_closed.inc(),
        }
    }
}

/// The batching scheduler: one submission queue, a pool of worker threads
/// (usually just one), one shared backend.
pub struct BatchScheduler {
    tx: Sender<Job>,
    metrics: Arc<Mutex<ServiceMetrics>>,
    dims: usize,
    workers: Vec<std::thread::JoinHandle<()>>,
    /// Jobs accepted but not yet retired (queued or executing).
    in_flight: Arc<AtomicU64>,
    /// Scheduler instruments (None when the recorder is disabled); kept
    /// here so admission control can read the live queue-wait p99.
    obs: Option<Arc<SchedObs>>,
}

impl BatchScheduler {
    /// Starts [`ServerConfig::workers`] worker threads over `backend` with
    /// the given batching knobs. The workers share the submission queue
    /// (each job is delivered to exactly one) and draw batch ids from one
    /// shared counter. Batch-size and queue-wait histograms plus
    /// flush-reason counters are registered on `recorder`; a disabled
    /// recorder records nothing.
    pub fn start(
        backend: Box<dyn QueryBackend>,
        config: &ServerConfig,
        recorder: &Recorder,
    ) -> Self {
        let (tx, rx) = channel::unbounded::<Job>();
        let metrics = Arc::new(Mutex::new(ServiceMetrics::default()));
        let max_batch = config.max_batch.max(1);
        let max_wait = config.max_wait;
        let dims = backend.dimensions();
        let backend: Arc<dyn QueryBackend> = Arc::from(backend);
        let batch_ids = Arc::new(AtomicU64::new(0));
        let obs = SchedObs::new(recorder);
        let workers = (0..config.workers.max(1))
            .map(|w| {
                let rx = rx.clone();
                let backend = Arc::clone(&backend);
                let metrics = Arc::clone(&metrics);
                let batch_ids = Arc::clone(&batch_ids);
                let obs = obs.clone();
                std::thread::Builder::new()
                    .name(format!("mq-scheduler-{w}"))
                    .spawn(move || {
                        worker_loop(rx, backend, max_batch, max_wait, metrics, batch_ids, obs)
                    })
                    .expect("spawn scheduler worker")
            })
            .collect();
        Self {
            tx,
            metrics,
            dims,
            workers,
            in_flight: Arc::new(AtomicU64::new(0)),
            obs,
        }
    }

    /// Dimensionality the backend expects of query vectors (0 = unknown).
    pub fn dimensions(&self) -> usize {
        self.dims
    }

    /// Test helper: submits one query; the reply arrives on the returned
    /// channel once the query's batch flushed. A job dropped unanswered
    /// (backend panic, queue closed) disconnects the channel instead.
    #[cfg(test)]
    pub(crate) fn submit(&self, object: Vector, qtype: QueryType) -> Receiver<QueryReply> {
        let (reply_tx, reply_rx) = channel::bounded(1);
        self.submit_with(object, qtype, move |reply| {
            if let Some(reply) = reply {
                let _ = reply_tx.send(reply);
            }
        });
        reply_rx
    }

    /// Submits one query whose reply is delivered by invoking `sink` from
    /// the worker thread: `Some(reply)` once the batch executed, `None` if
    /// the job was dropped unanswered (backend panic, queue closed). No
    /// thread parks per in-flight query.
    pub fn submit_with<F>(&self, object: Vector, qtype: QueryType, sink: F)
    where
        F: FnOnce(Option<QueryReply>) + Send + 'static,
    {
        // Count the job before it enters the queue, so `in_flight` never
        // under-reports; the job's drop guard retires it on every path.
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        // If the queue already closed the job is dropped right here and
        // its drop guard fires the sink with `None`.
        let _ = self.tx.send(Job {
            object,
            qtype,
            sink: Some(Box::new(sink)),
            submitted: Instant::now(),
            pending: Arc::clone(&self.in_flight),
        });
    }

    /// p99 of the queue-wait distribution since startup, when scheduler
    /// observability is on and at least one query has been recorded.
    /// Admission control uses this as the `retry_after_ms` hint on
    /// `Overloaded` replies — a saturated queue advertises its own delay.
    pub fn queue_wait_p99(&self) -> Option<f64> {
        self.obs.as_ref()?.queue_wait.quantile(0.99)
    }

    /// Jobs accepted but not yet retired: still queued, collecting into a
    /// batch, or executing. Zero means every submitted query has either
    /// been answered or dropped — the signal
    /// [`CollectionRegistry::drain`](crate::CollectionRegistry::drain)
    /// polls so a load run can end with no work left behind.
    pub fn in_flight(&self) -> u64 {
        self.in_flight.load(Ordering::SeqCst)
    }

    /// A snapshot of the aggregate counters.
    pub fn metrics(&self) -> ServiceMetrics {
        *self.metrics.lock()
    }
}

impl Drop for BatchScheduler {
    fn drop(&mut self) {
        // Closing the queue lets the workers drain pending jobs and exit.
        let (closed_tx, _) = channel::bounded(1);
        let _ = std::mem::replace(&mut self.tx, closed_tx);
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn worker_loop(
    rx: Receiver<Job>,
    backend: Arc<dyn QueryBackend>,
    max_batch: usize,
    max_wait: std::time::Duration,
    metrics: Arc<Mutex<ServiceMetrics>>,
    batch_ids: Arc<AtomicU64>,
    obs: Option<Arc<SchedObs>>,
) {
    loop {
        // Block until traffic arrives; an empty queue costs nothing.
        let first = match rx.recv() {
            Ok(job) => job,
            Err(_) => return,
        };
        let mut jobs = vec![first];
        // Collect until the batch is full or the deadline passes.
        let deadline = Instant::now() + max_wait;
        let mut reason = FlushReason::Full;
        while jobs.len() < max_batch {
            match rx.recv_deadline(deadline) {
                Ok(job) => jobs.push(job),
                Err(RecvTimeoutError::Timeout) => {
                    reason = FlushReason::Deadline;
                    break;
                }
                Err(RecvTimeoutError::Disconnected) => {
                    reason = FlushReason::Closed;
                    break;
                }
            }
        }
        if let Some(obs) = &obs {
            obs.record_flush(&jobs, reason);
        }

        let batch_id = batch_ids.fetch_add(1, Ordering::Relaxed) + 1;
        let batch_size = jobs.len() as u32;
        let queries: Vec<(Vector, QueryType)> =
            jobs.iter().map(|j| (j.object.clone(), j.qtype)).collect();
        // The frontend validates queries, but the worker must survive a
        // backend panic regardless — one poisoned batch must not take the
        // service down for every later client.
        let executed =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| backend.execute(queries)));
        let (answers, stats) = match executed {
            Ok(result) => result,
            Err(_) => {
                eprintln!(
                    "mq-scheduler: batch #{batch_id} ({batch_size} queries) panicked; \
                     its clients get an error reply"
                );
                // Dropping the jobs disconnects their reply channels, which
                // the connection handlers report as a server error.
                continue;
            }
        };
        debug_assert_eq!(answers.len(), jobs.len());

        {
            let mut m = metrics.lock();
            m.queries += batch_size as u64;
            m.batches += 1;
            m.max_batch_size = m.max_batch_size.max(batch_size);
            m.totals += stats;
        }

        for (mut job, answers) in jobs.into_iter().zip(answers) {
            job.deliver(QueryReply {
                batch_id,
                batch_size,
                stats,
                answers,
            });
        }
    }
}

/// Builds the backend selected by `config.mode` and `config.store` from a
/// database and an index-builder callback (invoked once per simulated
/// partition; ignored by the file-backed store, which always serves its
/// recovered layout as-is). `recorder` is threaded through the backend:
/// engine counters, disk counters, worker pools, store durability
/// counters and per-partition counters.
///
/// # Errors
/// Fails in file-store mode when the store directory cannot be created,
/// opened, or recovered, and on a metric that the approximate tier or the
/// VA page index cannot serve.
pub fn build_backend<F>(
    db: &PagedDatabase<Vector>,
    config: &ServerConfig,
    buffer_fraction: f64,
    recorder: &Recorder,
    build_index: F,
) -> Result<Box<dyn QueryBackend>, StoreError>
where
    F: Fn(
        &mq_storage::Dataset<Vector>,
    ) -> (Box<dyn SimilarityIndex<Vector>>, PagedDatabase<Vector>),
{
    // The approximate tier ranks candidates by Euclidean proximity
    // (Hamming over quantile planes); pairing it with another metric
    // would silently mis-rank, so refuse up front.
    if config.approx.is_some() && config.metric != VectorMetric::Euclidean {
        return Err(StoreError::Format(format!(
            "--approx requires the euclidean metric; the candidate tier ranks by \
             Euclidean proximity and would mis-screen under '{}'",
            config.metric.name()
        )));
    }
    // The VA page index prunes with Euclidean lower bounds, like the
    // trees; any other metric must scan.
    if config.file_index == FileIndex::VaPage && config.metric != VectorMetric::Euclidean {
        return Err(StoreError::Format(format!(
            "--index vafile prunes with Euclidean page bounds; --metric {} \
             requires --index scan",
            config.metric.name()
        )));
    }
    let (servers, store_dirs) = match (&config.mode, &config.store) {
        (mode, StoreChoice::Sim) => {
            let parts = match mode {
                ExecutionMode::Single => 1,
                ExecutionMode::Cluster { servers } => (*servers).max(1),
            };
            let ds = db.to_dataset();
            let servers = Declustering::RoundRobin
                .partition(ds.len(), parts)
                .iter()
                .map(|part| {
                    Server::build(
                        ds.objects(),
                        part,
                        config.metric,
                        buffer_fraction,
                        &build_index,
                    )
                })
                .collect();
            (servers, Vec::new())
        }
        (ExecutionMode::Single, StoreChoice::File(dir)) => {
            // A partition of a clustered store must not be served alone:
            // its answers would carry partition-local ids.
            if let Some(manifest) = PartitionManifest::load(dir)? {
                return Err(StoreError::Format(format!(
                    "{} is partition {} of a {}-way cluster store; serve its parent \
                     directory with --cluster {} instead",
                    dir.display(),
                    manifest.partition,
                    manifest.parts,
                    manifest.parts
                )));
            }
            let store = open_or_create_store(dir, db, buffer_fraction)?;
            let index = file_store_index(store.database(), config.file_index);
            let server = whole_server(Box::new(store), index, config.metric);
            (vec![server], vec![dir.clone()])
        }
        (ExecutionMode::Cluster { servers }, StoreChoice::File(dir)) => {
            let parts = open_or_create_partition_stores(
                dir,
                db,
                (*servers).max(1),
                buffer_fraction,
                config.metric,
                config.file_index,
            )?;
            let dirs = (0..parts.len()).map(|p| partition_dir(dir, p)).collect();
            (parts, dirs)
        }
    };
    Ok(Box::new(
        EngineBackend::from_servers(servers)
            .with_options(config.engine_options())
            .with_recorder(recorder)
            .with_approx(config.approx, &store_dirs),
    ))
}

/// Builds the access method for a recovered file-store layout: a
/// sequential scan, or VA-quantized page bounds summarized in place (no
/// repacking — the recovered layout is served as-is either way).
fn file_store_index(
    db: &PagedDatabase<Vector>,
    choice: FileIndex,
) -> Box<dyn SimilarityIndex<Vector>> {
    match choice {
        FileIndex::Scan => Box::new(LinearScan::new(db.page_count())),
        FileIndex::VaPage => Box::new(VaPageIndex::build(db, 6)),
    }
}

/// Opens the durable store in `dir` if a segment exists there, otherwise
/// creates one seeded with `db`'s pages (layout preserved as packed —
/// never repacked, so the segment stays valid for any later access).
fn open_or_create_store(
    dir: &Path,
    db: &PagedDatabase<Vector>,
    buffer_fraction: f64,
) -> Result<FilePageStore<Vector, VectorCodec>, StoreError> {
    let seg = dir.join(SEGMENT_FILE);
    if seg.exists() {
        // Only the header is needed for buffer sizing; open() reads the
        // frames itself, so a full std::fs::read here would double the
        // startup I/O of a large segment.
        let mut header = [0u8; SEGMENT_HEADER_LEN as usize];
        std::io::Read::read_exact(&mut std::fs::File::open(&seg)?, &mut header).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                StoreError::Format("segment header truncated".into())
            } else {
                StoreError::Io(e)
            }
        })?;
        let meta = SegmentMeta::decode_header(&header)?;
        let pages = buffer_pages(meta.page_count as usize, buffer_fraction);
        FilePageStore::open(dir, VectorCodec, pages)
    } else {
        let pages = buffer_pages(db.page_count(), buffer_fraction);
        FilePageStore::create(dir, db.clone(), VectorCodec, pages)
    }
}

/// The store directory of cluster partition `p` under `dir`.
fn partition_dir(dir: &Path, p: usize) -> PathBuf {
    dir.join(format!("part-{p}"))
}

/// Builds one durable store per cluster partition under
/// `dir/part-<i>/`.
///
/// When `dir/part-0/` already holds a segment, every existing partition is
/// reopened (their count wins over `servers` so a recovered cluster keeps
/// its declustering). Otherwise `db` is declustered with
/// [`Declustering::RoundRobin`], the simulated cluster's rule, so answers
/// stay bit-identical to it.
///
/// Each partition directory carries a [`PartitionManifest`] recording the
/// partition count, its index, and the **explicit** local→global id
/// mapping. Reopen reads the mapping back instead of deriving ids
/// positionally, and cross-checks it against the recovered store — a
/// partition mutated behind the cluster's back (offline `mq insert` on a
/// single `part-<i>/`), a missing manifest, or a duplicated global id is
/// a typed error rather than silently mis-addressed answers.
fn open_or_create_partition_stores(
    dir: &Path,
    db: &PagedDatabase<Vector>,
    servers: usize,
    buffer_fraction: f64,
    metric: VectorMetric,
    file_index: FileIndex,
) -> Result<Vec<Server<Vector, VectorMetric>>, StoreError> {
    let part_dir = |p: usize| partition_dir(dir, p);
    let mut out = Vec::new();
    if part_dir(0).join(SEGMENT_FILE).exists() {
        let mut parts = 0;
        while part_dir(parts).join(SEGMENT_FILE).exists() {
            parts += 1;
        }
        let mut seen_gids = std::collections::HashSet::new();
        for p in 0..parts {
            let pdir = part_dir(p);
            let manifest = PartitionManifest::load(&pdir)?.ok_or_else(|| {
                StoreError::Format(format!(
                    "{} has no partition manifest; cannot reconstruct its global ids",
                    pdir.display()
                ))
            })?;
            if manifest.parts as usize != parts || manifest.partition as usize != p {
                return Err(StoreError::Format(format!(
                    "{} declares itself partition {} of {}, but the directory holds \
                     partition {p} of {parts}",
                    pdir.display(),
                    manifest.partition,
                    manifest.parts
                )));
            }
            let store = open_or_create_store(&pdir, db, buffer_fraction)?;
            let local = store.database();
            if manifest.global_ids.len() != local.object_count() {
                return Err(StoreError::Format(format!(
                    "{} holds {} object ids but its manifest maps {} — the partition \
                     was mutated outside the cluster",
                    pdir.display(),
                    local.object_count(),
                    manifest.global_ids.len()
                )));
            }
            for gid in &manifest.global_ids {
                if !seen_gids.insert(*gid) {
                    return Err(StoreError::Format(format!(
                        "global id {gid} is mapped by two partitions"
                    )));
                }
            }
            let index = file_store_index(local, file_index);
            out.push(Server::from_parts(
                Box::new(store),
                index,
                metric,
                manifest.global_ids,
            ));
        }
    } else {
        let ds = db.to_dataset();
        let parts = Declustering::RoundRobin.partition(ds.len(), servers);
        for (p, global_ids) in parts.into_iter().enumerate() {
            let local: Vec<Vector> = global_ids.iter().map(|&id| ds.object(id).clone()).collect();
            let part_db = PagedDatabase::pack(&Dataset::new(local), db.layout());
            let pages = buffer_pages(part_db.page_count(), buffer_fraction);
            let store = FilePageStore::create(part_dir(p), part_db, VectorCodec, pages)?;
            PartitionManifest {
                parts: servers as u32,
                partition: p as u32,
                global_ids: global_ids.clone(),
            }
            .save(&part_dir(p))?;
            let index = file_store_index(store.database(), file_index);
            out.push(Server::from_parts(
                Box::new(store),
                index,
                metric,
                global_ids,
            ));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mq_index::LinearScan;
    use mq_storage::{Dataset, PageLayout};
    use std::time::Duration;

    fn line_db(n: usize) -> PagedDatabase<Vector> {
        let ds = Dataset::new((0..n).map(|i| Vector::new(vec![i as f32])).collect());
        PagedDatabase::pack(&ds, PageLayout::new(256, 16))
    }

    fn scan_backend(n: usize) -> Box<dyn QueryBackend> {
        let db = line_db(n);
        let scan = LinearScan::new(db.page_count());
        Box::new(EngineBackend::new(db, Box::new(scan), 0.10, true))
    }

    #[test]
    fn replies_match_submissions() {
        let config = ServerConfig {
            max_batch: 4,
            max_wait: Duration::from_millis(5),
            ..ServerConfig::default()
        };
        let scheduler = BatchScheduler::start(scan_backend(100), &config, &Recorder::disabled());
        let rxs: Vec<_> = (0..8)
            .map(|i| scheduler.submit(Vector::new(vec![i as f32 * 10.0]), QueryType::knn(1)))
            .collect();
        for (i, rx) in rxs.into_iter().enumerate() {
            let reply = rx.recv().expect("reply");
            assert_eq!(reply.answers.len(), 1);
            assert_eq!(reply.answers[0].id.0, i as u32 * 10);
            assert!(reply.batch_size >= 1);
        }
        let m = scheduler.metrics();
        assert_eq!(m.queries, 8);
        assert!(m.batches >= 2, "max_batch 4 forces at least two batches");
        assert!(m.max_batch_size <= 4);
    }

    #[test]
    fn in_flight_counts_down_to_zero() {
        let config = ServerConfig {
            max_batch: 4,
            max_wait: Duration::from_millis(2),
            ..ServerConfig::default()
        };
        let scheduler = BatchScheduler::start(scan_backend(100), &config, &Recorder::disabled());
        assert_eq!(scheduler.in_flight(), 0);
        let rxs: Vec<_> = (0..6)
            .map(|i| scheduler.submit(Vector::new(vec![i as f32]), QueryType::knn(1)))
            .collect();
        for rx in rxs {
            rx.recv_timeout(Duration::from_secs(5)).expect("reply");
        }
        // Replies are sent before the jobs retire; give the worker a
        // bounded moment to drop the batch.
        let deadline = Instant::now() + Duration::from_secs(5);
        while scheduler.in_flight() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_micros(100));
        }
        assert_eq!(scheduler.in_flight(), 0, "all jobs must retire");
    }

    #[test]
    fn deadline_flushes_partial_batch() {
        let config = ServerConfig {
            max_batch: 1000,
            max_wait: Duration::from_millis(10),
            ..ServerConfig::default()
        };
        let scheduler = BatchScheduler::start(scan_backend(50), &config, &Recorder::disabled());
        let rx = scheduler.submit(Vector::new(vec![7.0]), QueryType::knn(2));
        let reply = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("deadline flush");
        assert_eq!(reply.batch_size, 1);
        assert_eq!(reply.answers[0].id.0, 7);
    }

    #[test]
    fn full_batch_flushes_before_deadline() {
        let config = ServerConfig {
            max_batch: 3,
            max_wait: Duration::from_secs(3600),
            ..ServerConfig::default()
        };
        let scheduler = BatchScheduler::start(scan_backend(50), &config, &Recorder::disabled());
        let rxs: Vec<_> = (0..3)
            .map(|i| scheduler.submit(Vector::new(vec![i as f32]), QueryType::knn(1)))
            .collect();
        for rx in rxs {
            let reply = rx
                .recv_timeout(Duration::from_secs(5))
                .expect("size-triggered flush despite huge max_wait");
            assert_eq!(reply.batch_size, 3);
            assert_eq!(reply.batch_id, 1);
        }
    }

    #[test]
    fn worker_pool_serves_every_client() {
        let config = ServerConfig {
            max_batch: 1,
            max_wait: Duration::from_millis(1),
            workers: 3,
            ..ServerConfig::default()
        };
        let scheduler = BatchScheduler::start(scan_backend(100), &config, &Recorder::disabled());
        let rxs: Vec<_> = (0..12)
            .map(|i| scheduler.submit(Vector::new(vec![i as f32 * 5.0]), QueryType::knn(1)))
            .collect();
        let mut batch_ids = Vec::new();
        for (i, rx) in rxs.into_iter().enumerate() {
            let reply = rx.recv_timeout(Duration::from_secs(5)).expect("reply");
            assert_eq!(reply.answers[0].id.0, i as u32 * 5);
            batch_ids.push(reply.batch_id);
        }
        // One job per batch: ids are unique even across concurrent workers.
        batch_ids.sort_unstable();
        batch_ids.dedup();
        assert_eq!(batch_ids.len(), 12, "duplicate batch ids across workers");
        let m = scheduler.metrics();
        assert_eq!(m.queries, 12);
        assert_eq!(m.batches, 12);
    }

    #[test]
    fn zero_batch_workers_and_threads_clamp_to_one() {
        // A literal may carry zeros no setter checks; the scheduler and
        // the engines clamp each to 1 where it is consumed, and answers
        // stay exact.
        let config = ServerConfig {
            max_batch: 0,
            max_wait: Duration::from_millis(1),
            workers: 0,
            threads: 0,
            ..ServerConfig::default()
        };
        let backend = build_backend(&line_db(100), &config, 0.10, &Recorder::disabled(), |ds| {
            let db = PagedDatabase::pack(ds, PageLayout::new(256, 16));
            (
                Box::new(LinearScan::new(db.page_count())) as Box<dyn SimilarityIndex<Vector>>,
                db,
            )
        })
        .expect("sim backend builds");
        let scheduler = BatchScheduler::start(backend, &config, &Recorder::disabled());
        let rxs: Vec<_> = (0..6)
            .map(|i| scheduler.submit(Vector::new(vec![i as f32 * 10.0 + 0.2]), QueryType::knn(2)))
            .collect();
        for (i, rx) in rxs.into_iter().enumerate() {
            let reply = rx.recv_timeout(Duration::from_secs(5)).expect("reply");
            assert_eq!(
                reply.batch_size, 1,
                "max_batch 0 flushes one query at a time"
            );
            let ids: Vec<u32> = reply.answers.iter().map(|a| a.id.0).collect();
            let i = i as u32;
            assert_eq!(ids, vec![i * 10, i * 10 + 1], "query {i}");
        }
        assert_eq!(scheduler.metrics().batches, 6);
    }

    #[test]
    fn pipelined_backend_agrees_with_sequential_across_batches() {
        let queries: Vec<(Vector, QueryType)> = (0..6)
            .map(|i| (Vector::new(vec![i as f32 * 13.0 + 0.2]), QueryType::knn(3)))
            .collect();
        let plain = scan_backend(120).execute(queries.clone());
        let db = line_db(120);
        let scan = LinearScan::new(db.page_count());
        let pipelined =
            EngineBackend::new(db, Box::new(scan), 0.10, true).with_options(EngineOptions {
                threads: 2,
                prefetch_depth: 2,
                leader: LeaderPolicy::NearestChain,
                ..EngineOptions::default()
            });
        // Two batches through the same backend: the persistent pool is
        // created once and must survive reuse.
        for round in 0..2 {
            let (answers, _) = pipelined.execute(queries.clone());
            for (qi, (a, b)) in plain.0.iter().zip(&answers).enumerate() {
                let ia: Vec<u32> = a.iter().map(|x| x.id.0).collect();
                let ib: Vec<u32> = b.iter().map(|x| x.id.0).collect();
                assert_eq!(ia, ib, "round {round}, query {qi}");
            }
        }
    }

    #[test]
    fn one_partition_matches_a_bare_engine_and_three_partitions_agree() {
        use mq_core::{QueryEngine, StatsProbe};
        use mq_metric::CountingMetric;
        let queries: Vec<(Vector, QueryType)> = (0..6)
            .map(|i| (Vector::new(vec![i as f32 * 17.0 + 0.4]), QueryType::knn(3)))
            .collect();
        let bits = |answers: &[Vec<Answer>]| -> Vec<Vec<(u32, u64)>> {
            answers
                .iter()
                .map(|list| {
                    list.iter()
                        .map(|a| (a.id.0, a.distance.to_bits()))
                        .collect()
                })
                .collect()
        };
        for avoidance in [true, false] {
            for threads in [1, 2] {
                let options = EngineOptions {
                    avoidance,
                    threads,
                    ..EngineOptions::default()
                };
                let label = format!("avoidance {avoidance}, threads {threads}");

                // A plain engine over an identical store.
                let db = line_db(120);
                let scan = LinearScan::new(db.page_count());
                let disk = SimulatedDisk::new(db, 0.10);
                let metric = CountingMetric::new(VectorMetric::default());
                let engine = QueryEngine::new(&disk, &scan, metric.clone()).with_options(options);
                let probe = StatsProbe::start(&disk, metric.counter(), Default::default());
                let mut session = engine.new_session(queries.clone());
                engine.run_to_completion(&mut session);
                let mut want_stats = probe.finish(&disk, session.avoidance_stats());
                let want = session.into_answers();

                let db = line_db(120);
                let scan = LinearScan::new(db.page_count());
                let backend =
                    EngineBackend::new(db, Box::new(scan), 0.10, avoidance).with_options(options);
                let (got, mut got_stats) = backend.execute(queries.clone());
                assert_eq!(bits(&got), bits(&want), "{label}");
                want_stats.elapsed = Duration::ZERO;
                got_stats.elapsed = Duration::ZERO;
                assert_eq!(got_stats, want_stats, "{label}");

                let config = ServerConfig {
                    mode: ExecutionMode::Cluster { servers: 3 },
                    avoidance,
                    threads,
                    ..ServerConfig::default()
                };
                let cluster =
                    build_backend(&line_db(120), &config, 0.10, &Recorder::disabled(), |ds| {
                        let db = PagedDatabase::pack(ds, PageLayout::new(256, 16));
                        (
                            Box::new(LinearScan::new(db.page_count()))
                                as Box<dyn SimilarityIndex<Vector>>,
                            db,
                        )
                    })
                    .expect("sim cluster backend");
                let (clustered, _) = cluster.execute(queries.clone());
                assert_eq!(bits(&clustered), bits(&want), "3 partitions, {label}");
            }
        }
    }

    /// Stands in for any backend bug: panics when a query with the wrong
    /// dimensionality slips through.
    struct FussyBackend {
        inner: Box<dyn QueryBackend>,
    }

    impl QueryBackend for FussyBackend {
        fn execute(&self, queries: Vec<(Vector, QueryType)>) -> (Vec<Vec<Answer>>, ExecutionStats) {
            if queries.iter().any(|(v, _)| v.dim() != 1) {
                panic!("unexpected dimensionality reached the backend");
            }
            self.inner.execute(queries)
        }

        fn dimensions(&self) -> usize {
            1
        }

        fn describe(&self) -> String {
            "fussy test backend".into()
        }
    }

    #[test]
    fn worker_survives_backend_panic() {
        let config = ServerConfig {
            max_batch: 1,
            max_wait: Duration::from_millis(1),
            ..ServerConfig::default()
        };
        let backend = Box::new(FussyBackend {
            inner: scan_backend(30),
        });
        let scheduler = BatchScheduler::start(backend, &config, &Recorder::disabled());
        let bad = scheduler.submit(Vector::new(vec![1.0, 2.0]), QueryType::knn(1));
        assert!(
            bad.recv_timeout(Duration::from_secs(5)).is_err(),
            "panicked batch must drop its reply channel"
        );
        let good = scheduler.submit(Vector::new(vec![7.0]), QueryType::knn(1));
        let reply = good
            .recv_timeout(Duration::from_secs(5))
            .expect("worker must keep serving after a backend panic");
        assert_eq!(reply.answers[0].id.0, 7);
    }

    #[test]
    fn file_store_backends_agree_with_sim_and_survive_restart() {
        use crate::config::StoreChoice;
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "mq-sched-store-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let db = line_db(120);
        let build = |ds: &Dataset<Vector>| {
            let db = PagedDatabase::pack(ds, db.layout());
            (
                Box::new(LinearScan::new(db.page_count())) as Box<dyn SimilarityIndex<Vector>>,
                db,
            )
        };
        let queries: Vec<(Vector, QueryType)> = (0..6)
            .map(|i| (Vector::new(vec![i as f32 * 19.0 + 0.3]), QueryType::knn(3)))
            .collect();
        let oracle = build_backend(
            &db,
            &ServerConfig::default(),
            0.10,
            &Recorder::disabled(),
            build,
        )
        .expect("sim backend")
        .execute(queries.clone());

        for (mode, sub) in [
            (ExecutionMode::Single, "single"),
            (ExecutionMode::Cluster { servers: 3 }, "cluster"),
        ] {
            let config = ServerConfig {
                mode,
                store: StoreChoice::File(dir.join(sub)),
                ..ServerConfig::default()
            };
            // First build creates the store, second reopens it from disk.
            for round in ["create", "reopen"] {
                let backend = build_backend(&db, &config, 0.10, &Recorder::disabled(), build)
                    .expect("file backend builds");
                let (answers, _) = backend.execute(queries.clone());
                for (qi, (a, b)) in oracle.0.iter().zip(&answers).enumerate() {
                    let ia: Vec<u32> = a.iter().map(|x| x.id.0).collect();
                    let ib: Vec<u32> = b.iter().map(|x| x.id.0).collect();
                    assert_eq!(ia, ib, "{sub} {round}, query {qi}");
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cluster_reopen_validates_partition_manifests() {
        use crate::config::StoreChoice;
        use mq_store::PARTITION_MANIFEST_FILE;
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let root = std::env::temp_dir().join(format!(
            "mq-sched-manifest-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let db = line_db(120);
        let build = |ds: &Dataset<Vector>| {
            let db = PagedDatabase::pack(ds, db.layout());
            (
                Box::new(LinearScan::new(db.page_count())) as Box<dyn SimilarityIndex<Vector>>,
                db,
            )
        };
        let cluster_config = |dir: &std::path::Path| ServerConfig {
            mode: ExecutionMode::Cluster { servers: 3 },
            store: StoreChoice::File(dir.to_path_buf()),
            ..ServerConfig::default()
        };

        // An offline insert against a single partition desynchronizes the
        // persisted global-id mapping; reopen must refuse rather than
        // silently mis-address answers.
        let dir = root.join("mutated");
        let config = cluster_config(&dir);
        drop(
            build_backend(&db, &config, 0.10, &Recorder::disabled(), build)
                .expect("create cluster"),
        );
        {
            let mut part: FilePageStore<Vector, VectorCodec> =
                FilePageStore::open(dir.join("part-1"), VectorCodec, 1).expect("open partition");
            part.insert(Vector::new(vec![500.0]))
                .expect("offline insert");
        }
        match build_backend(&db, &config, 0.10, &Recorder::disabled(), build) {
            Err(StoreError::Format(msg)) => {
                assert!(msg.contains("mutated outside the cluster"), "{msg}")
            }
            Err(e) => panic!("unexpected error: {e}"),
            Ok(_) => panic!("reopen of a desynchronized partition must fail"),
        }

        // A missing manifest leaves the global ids unknowable.
        let dir = root.join("missing");
        let config = cluster_config(&dir);
        drop(
            build_backend(&db, &config, 0.10, &Recorder::disabled(), build)
                .expect("create cluster"),
        );
        std::fs::remove_file(dir.join("part-2").join(PARTITION_MANIFEST_FILE)).unwrap();
        match build_backend(&db, &config, 0.10, &Recorder::disabled(), build) {
            Err(StoreError::Format(msg)) => {
                assert!(msg.contains("no partition manifest"), "{msg}")
            }
            Err(e) => panic!("unexpected error: {e}"),
            Ok(_) => panic!("reopen without a manifest must fail"),
        }

        // Serving one partition standalone would answer with local ids.
        let dir = root.join("single");
        let config = cluster_config(&dir);
        drop(
            build_backend(&db, &config, 0.10, &Recorder::disabled(), build)
                .expect("create cluster"),
        );
        let single = ServerConfig {
            store: StoreChoice::File(dir.join("part-0")),
            ..ServerConfig::default()
        };
        match build_backend(&db, &single, 0.10, &Recorder::disabled(), build) {
            Err(StoreError::Format(msg)) => assert!(msg.contains("--cluster 3"), "{msg}"),
            Err(e) => panic!("unexpected error: {e}"),
            Ok(_) => panic!("single-mode serve of a partition must fail"),
        }

        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn configured_metric_reaches_the_engine() {
        // Under the dot-product ranking the best match for q=[5] in the
        // 0..60 line is the *largest* vector, not the nearest one — so a
        // Euclidean engine would answer id 5 and give the game away.
        let db = line_db(60);
        let config = ServerConfig {
            metric: VectorMetric::Dot,
            ..ServerConfig::default()
        };
        let backend = build_backend(&db, &config, 0.10, &Recorder::disabled(), |ds| {
            let db = PagedDatabase::pack(ds, PageLayout::new(256, 16));
            (
                Box::new(LinearScan::new(db.page_count())) as Box<dyn SimilarityIndex<Vector>>,
                db,
            )
        })
        .expect("sim backend");
        let (answers, _) = backend.execute(vec![(Vector::new(vec![5.0]), QueryType::knn(1))]);
        assert_eq!(answers[0][0].id.0, 59);
        assert_eq!(answers[0][0].distance, -(5.0 * 59.0));
    }

    #[test]
    fn approx_tier_with_full_budget_agrees_with_exact_in_every_mode() {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "mq-sched-approx-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let db = line_db(120);
        let build = |ds: &Dataset<Vector>| {
            let db = PagedDatabase::pack(ds, PageLayout::new(256, 16));
            (
                Box::new(LinearScan::new(db.page_count())) as Box<dyn SimilarityIndex<Vector>>,
                db,
            )
        };
        let queries: Vec<(Vector, QueryType)> = (0..6)
            .map(|i| (Vector::new(vec![i as f32 * 17.0 + 0.4]), QueryType::knn(3)))
            .collect();
        let exact = build_backend(
            &db,
            &ServerConfig::default(),
            0.10,
            &Recorder::disabled(),
            build,
        )
        .expect("exact backend")
        .execute(queries.clone());

        // A budget covering the whole collection must reproduce the exact
        // answers bit-for-bit in every mode × store combination.
        let tier = ApproxTier::Bq { budget: 120 };
        for (mode, store, label) in [
            (ExecutionMode::Single, StoreChoice::Sim, "single/sim"),
            (
                ExecutionMode::Cluster { servers: 3 },
                StoreChoice::Sim,
                "cluster/sim",
            ),
            (
                ExecutionMode::Single,
                StoreChoice::File(dir.join(format!("single-{tier}"))),
                "single/file",
            ),
            (
                ExecutionMode::Cluster { servers: 3 },
                StoreChoice::File(dir.join(format!("cluster-{tier}"))),
                "cluster/file",
            ),
        ] {
            let config = ServerConfig {
                mode,
                store,
                approx: Some(tier),
                ..ServerConfig::default()
            };
            let backend = build_backend(&db, &config, 0.10, &Recorder::disabled(), build)
                .expect("approx backend builds");
            assert!(
                backend.describe().contains("approx"),
                "{}",
                backend.describe()
            );
            let (answers, _) = backend.execute(queries.clone());
            for (qi, (a, b)) in exact.0.iter().zip(&answers).enumerate() {
                let ia: Vec<(u32, f64)> = a.iter().map(|x| (x.id.0, x.distance)).collect();
                let ib: Vec<(u32, f64)> = b.iter().map(|x| (x.id.0, x.distance)).collect();
                assert_eq!(ia, ib, "{label} {tier}, query {qi}");
            }
        }
        // The file-backed bq runs persisted their sketches next to the
        // page files (single at the root, cluster per partition).
        assert!(dir
            .join("single-bq:120")
            .join(mq_approx::SKETCH_FILE)
            .exists());
        assert!(dir
            .join("cluster-bq:120")
            .join("part-0")
            .join(mq_approx::SKETCH_FILE)
            .exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn narrow_budget_restricts_the_scan() {
        // budget 1 admits ~1 candidate per query; the answers must be
        // drawn from that candidate set and the distances stay exact.
        let db = line_db(120);
        let config = ServerConfig {
            approx: Some(ApproxTier::Bq { budget: 1 }),
            ..ServerConfig::default()
        };
        let backend = build_backend(&db, &config, 0.10, &Recorder::disabled(), |ds| {
            let db = PagedDatabase::pack(ds, PageLayout::new(256, 16));
            (
                Box::new(LinearScan::new(db.page_count())) as Box<dyn SimilarityIndex<Vector>>,
                db,
            )
        })
        .expect("approx backend");
        let (answers, _) = backend.execute(vec![(Vector::new(vec![60.0]), QueryType::knn(5))]);
        assert!(
            answers[0].len() <= 1,
            "budget 1 cannot yield {} answers",
            answers[0].len()
        );
        for a in &answers[0] {
            // Exact re-rank: the reported distance is the true metric
            // distance, not a Hamming proxy.
            assert_eq!(a.distance, (a.id.0 as f64 - 60.0).abs());
        }
    }

    #[test]
    fn file_store_vafile_index_agrees_with_scan_and_guards_metric() {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "mq-sched-vafile-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let db = line_db(120);
        let build = |ds: &Dataset<Vector>| {
            let db = PagedDatabase::pack(ds, db.layout());
            (
                Box::new(LinearScan::new(db.page_count())) as Box<dyn SimilarityIndex<Vector>>,
                db,
            )
        };
        let queries: Vec<(Vector, QueryType)> = (0..6)
            .map(|i| (Vector::new(vec![i as f32 * 19.0 + 0.3]), QueryType::knn(3)))
            .collect();
        let oracle = build_backend(
            &db,
            &ServerConfig::default(),
            0.10,
            &Recorder::disabled(),
            build,
        )
        .expect("sim backend")
        .execute(queries.clone());

        for (mode, sub) in [
            (ExecutionMode::Single, "single"),
            (ExecutionMode::Cluster { servers: 3 }, "cluster"),
        ] {
            let config = ServerConfig {
                mode,
                store: StoreChoice::File(dir.join(sub)),
                file_index: FileIndex::VaPage,
                ..ServerConfig::default()
            };
            // Create, then reopen: the VA summary is rebuilt over the
            // recovered layout both times.
            for round in ["create", "reopen"] {
                let backend = build_backend(&db, &config, 0.10, &Recorder::disabled(), build)
                    .expect("vafile file backend");
                let (answers, _) = backend.execute(queries.clone());
                for (qi, (a, b)) in oracle.0.iter().zip(&answers).enumerate() {
                    let ia: Vec<(u32, f64)> = a.iter().map(|x| (x.id.0, x.distance)).collect();
                    let ib: Vec<(u32, f64)> = b.iter().map(|x| (x.id.0, x.distance)).collect();
                    assert_eq!(ia, ib, "{sub} {round}, query {qi}");
                }
            }
        }

        let config = ServerConfig {
            store: StoreChoice::File(dir.join("guard")),
            file_index: FileIndex::VaPage,
            metric: VectorMetric::Dot,
            ..ServerConfig::default()
        };
        match build_backend(&db, &config, 0.10, &Recorder::disabled(), build) {
            Err(StoreError::Format(msg)) => assert!(msg.contains("Euclidean"), "{msg}"),
            Err(e) => panic!("unexpected error: {e}"),
            Ok(_) => panic!("vafile index + dot metric must be refused"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn approx_refuses_non_euclidean_metrics() {
        let db = line_db(30);
        let config = ServerConfig {
            metric: VectorMetric::Cosine,
            approx: Some(ApproxTier::Bq { budget: 10 }),
            ..ServerConfig::default()
        };
        match build_backend(&db, &config, 0.10, &Recorder::disabled(), |ds| {
            let db = PagedDatabase::pack(ds, PageLayout::new(256, 16));
            (
                Box::new(LinearScan::new(db.page_count())) as Box<dyn SimilarityIndex<Vector>>,
                db,
            )
        }) {
            Err(StoreError::Format(msg)) => assert!(msg.contains("euclidean"), "{msg}"),
            Err(e) => panic!("unexpected error: {e}"),
            Ok(_) => panic!("approx + cosine must be refused"),
        }
    }

    #[test]
    fn shutdown_disconnects_pending_reply_channels() {
        let config = ServerConfig {
            max_batch: 2,
            ..ServerConfig::default()
        };
        let scheduler = BatchScheduler::start(scan_backend(20), &config, &Recorder::disabled());
        let m0 = scheduler.metrics();
        assert_eq!(m0.queries, 0);
        drop(scheduler); // joins the worker without panicking
    }
}
