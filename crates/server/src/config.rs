//! Server configuration: batching knobs, execution mode, and admission
//! limits.

use mq_approx::ApproxTier;
use mq_core::{EngineOptions, FaultPolicy, LeaderPolicy};
use mq_metric::{Metric, VectorMetric};
use std::path::PathBuf;
use std::time::Duration;

/// Per-tenant token-bucket quota: `rate` tokens per second refill, up to
/// `burst` held. Every admitted query spends one token; a tenant that
/// exhausts its bucket gets typed `Overloaded` replies until it refills.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QuotaConfig {
    /// Sustained queries per second per tenant.
    pub rate: f64,
    /// Largest burst a tenant can spend at once.
    pub burst: f64,
}

/// Which page-store backend serves the database.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub enum StoreChoice {
    /// The in-memory simulated disk (the paper's metered model).
    #[default]
    Sim,
    /// The durable `mq-store` file backend rooted at this directory (one
    /// per-partition subdirectory in cluster mode). If the directory
    /// already holds a store it is opened (running crash recovery);
    /// otherwise it is created from the loaded database.
    File(PathBuf),
}

/// Access method served over a *recovered* file-store page layout.
///
/// A durable store's pages must be served exactly as crash recovery left
/// them, so only indexes that summarize an existing layout qualify — the
/// tree bulk-loaders would repack.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum FileIndex {
    /// Sequential scan in physical page order (every page relevant).
    #[default]
    Scan,
    /// VA-quantized page bounds over the recovered layout
    /// ([`mq_vafile::VaPageIndex`]): pages served best-first and pruned by
    /// a true Euclidean lower bound. Euclidean metric only.
    VaPage,
}

impl FileIndex {
    /// The CLI `--index` name this choice answers to.
    pub fn name(&self) -> &'static str {
        match self {
            FileIndex::Scan => "scan",
            FileIndex::VaPage => "vafile",
        }
    }
}

/// How flushed batches are executed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecutionMode {
    /// One engine over the whole database, on the simulated disk or the
    /// file store (§5.1–5.2): a one-partition cluster.
    Single,
    /// A shared-nothing cluster of `servers` declustered engines (§5.3).
    Cluster {
        /// Number of cluster servers.
        servers: usize,
    },
}

/// The scheduler's batching knobs.
///
/// Requests queue until either `max_batch` of them accumulated or
/// `max_wait` elapsed since the oldest queued request arrived; the queue
/// then flushes as one `multiple_similarity_query` batch. A larger
/// `max_batch` shares more page reads per flush (the paper's m); a larger
/// `max_wait` trades latency of a lone request for the chance of sharing.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Flush as soon as this many requests are queued.
    pub max_batch: usize,
    /// Flush at latest this long after the first queued request.
    pub max_wait: Duration,
    /// Single engine or shared-nothing cluster.
    pub mode: ExecutionMode,
    /// Whether §5.2 triangle-inequality avoidance is enabled.
    pub avoidance: bool,
    /// Page-evaluation threads per engine (intra-batch parallelism; 1 =
    /// the classic sequential loop). Identical answers for every value.
    pub threads: usize,
    /// Pages staged ahead of the one being evaluated (pipelined prefetch;
    /// 0 disables it). Identical answers for every depth.
    pub prefetch_depth: usize,
    /// Which pending query leads each step of a batch.
    pub leader: LeaderPolicy,
    /// Scheduler worker threads executing flushed batches. With 1 worker
    /// (the default) batches execute strictly one after another; more
    /// workers overlap batch execution with batch collection, at the cost
    /// of batches competing for cores.
    pub workers: usize,
    /// Extra read attempts the engines make on a *transient* disk fault
    /// before a batch fails (see [`mq_core::FaultPolicy`]). Only matters
    /// when the backend's disks have a fault plan installed.
    pub retry_budget: u32,
    /// Read timeout applied to every client connection; a client that
    /// stalls mid-frame for longer is disconnected instead of pinning its
    /// handler thread forever. `None` (the default) blocks indefinitely.
    pub read_timeout: Option<Duration>,
    /// Page-store backend: in-memory simulation (the default) or the
    /// durable file store.
    pub store: StoreChoice,
    /// Access method over a recovered file-store layout (ignored by the
    /// simulated store, whose index comes from the build callback).
    pub file_index: FileIndex,
    /// Distance function the engines evaluate (see
    /// [`VectorMetric`] for the names). Non-Euclidean metrics must be
    /// served through a sequential-scan index: tree page bounds are
    /// Euclidean geometry and would prune wrongly.
    pub metric: VectorMetric,
    /// Optional approximate candidate tier in front of the exact engine
    /// (`bq:<budget>`; see [`ApproxTier`]). `None` — the
    /// default — serves exact answers; a tier trades recall for speed
    /// while keeping every reported distance exact. Only supported with
    /// the Euclidean metric.
    pub approx: Option<ApproxTier>,
    /// Bound on each collection's scheduler queue depth. A query arriving
    /// while the target collection already has this many in flight gets a
    /// typed `Overloaded` reply instead of queueing — backpressure, not
    /// buffering. `0` (the default) means unbounded.
    pub max_queue: usize,
    /// Per-tenant token-bucket quota; `None` (the default) admits every
    /// tenant without rate limits.
    pub quota: Option<QuotaConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_batch: 16,
            max_wait: Duration::from_millis(20),
            mode: ExecutionMode::Single,
            avoidance: true,
            threads: 1,
            prefetch_depth: 0,
            leader: LeaderPolicy::default(),
            workers: 1,
            retry_budget: 2,
            read_timeout: None,
            store: StoreChoice::Sim,
            file_index: FileIndex::default(),
            metric: VectorMetric::default(),
            approx: None,
            max_queue: 0,
            quota: None,
        }
    }
}

impl ServerConfig {
    /// Sets the batch-size flush threshold.
    ///
    /// # Panics
    /// Panics if `max_batch` is zero.
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        assert!(max_batch > 0, "max_batch must be positive");
        self.max_batch = max_batch;
        self
    }

    /// Sets the deadline flush threshold.
    pub fn with_max_wait(mut self, max_wait: Duration) -> Self {
        self.max_wait = max_wait;
        self
    }

    /// Selects the execution mode.
    pub fn with_mode(mut self, mode: ExecutionMode) -> Self {
        self.mode = mode;
        self
    }

    /// Enables or disables §5.2 avoidance.
    pub fn with_avoidance(mut self, avoidance: bool) -> Self {
        self.avoidance = avoidance;
        self
    }

    /// Sets the page-evaluation threads per engine (clamped to ≥ 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the pipelined prefetch depth per engine.
    pub fn with_prefetch_depth(mut self, depth: usize) -> Self {
        self.prefetch_depth = depth;
        self
    }

    /// Selects the leader scheduling policy per engine.
    pub fn with_leader(mut self, leader: LeaderPolicy) -> Self {
        self.leader = leader;
        self
    }

    /// Sets the scheduler worker-thread count (clamped to ≥ 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the engines' transient-fault retry budget.
    pub fn with_retry_budget(mut self, budget: u32) -> Self {
        self.retry_budget = budget;
        self
    }

    /// Sets the per-connection read timeout (`None` blocks forever).
    pub fn with_read_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.read_timeout = timeout;
        self
    }

    /// Selects the page-store backend.
    pub fn with_store(mut self, store: StoreChoice) -> Self {
        self.store = store;
        self
    }

    /// Selects the access method over a recovered file-store layout.
    pub fn with_file_index(mut self, file_index: FileIndex) -> Self {
        self.file_index = file_index;
        self
    }

    /// Selects the distance function the engines evaluate.
    pub fn with_metric(mut self, metric: VectorMetric) -> Self {
        self.metric = metric;
        self
    }

    /// Installs (or clears) the approximate candidate tier.
    pub fn with_approx(mut self, approx: Option<ApproxTier>) -> Self {
        self.approx = approx;
        self
    }

    /// Bounds each collection's scheduler queue depth (0 = unbounded).
    pub fn with_max_queue(mut self, max_queue: usize) -> Self {
        self.max_queue = max_queue;
        self
    }

    /// Installs (or clears) the per-tenant token-bucket quota.
    ///
    /// # Panics
    /// Panics if the quota's rate or burst is not positive and finite.
    pub fn with_quota(mut self, quota: Option<QuotaConfig>) -> Self {
        if let Some(q) = &quota {
            assert!(
                q.rate > 0.0 && q.rate.is_finite(),
                "quota rate must be positive and finite"
            );
            assert!(
                q.burst > 0.0 && q.burst.is_finite(),
                "quota burst must be positive and finite"
            );
        }
        self.quota = quota;
        self
    }

    /// The engine options every partition of the backend runs with.
    pub fn engine_options(&self) -> EngineOptions {
        EngineOptions {
            avoidance: self.avoidance,
            threads: self.threads,
            prefetch_depth: self.prefetch_depth,
            leader: self.leader,
            fault_policy: FaultPolicy::new(self.retry_budget),
            ..EngineOptions::default()
        }
    }

    /// One-line summary of every resolved knob, for startup logs.
    pub fn describe(&self) -> String {
        let mode = match self.mode {
            ExecutionMode::Single => "single".to_string(),
            ExecutionMode::Cluster { servers } => format!("cluster({servers})"),
        };
        let read_timeout = match self.read_timeout {
            Some(t) => format!("{:.1}s", t.as_secs_f64()),
            None => "none".to_string(),
        };
        let store = match &self.store {
            StoreChoice::Sim => "sim".to_string(),
            StoreChoice::File(dir) => {
                format!(
                    "file:{} file_index={}",
                    dir.display(),
                    self.file_index.name()
                )
            }
        };
        let approx = match &self.approx {
            Some(tier) => tier.to_string(),
            None => "off".to_string(),
        };
        let max_queue = if self.max_queue == 0 {
            "unbounded".to_string()
        } else {
            self.max_queue.to_string()
        };
        let quota = match &self.quota {
            Some(q) => format!("{}:{}", q.rate, q.burst),
            None => "off".to_string(),
        };
        format!(
            "mode={mode} store={store} metric={} approx={approx} max_batch={} max_wait={:.0}ms \
             workers={} threads={} prefetch_depth={} leader={:?} avoidance={} retry_budget={} \
             read_timeout={read_timeout} max_queue={max_queue} quota={quota}",
            self.metric.name(),
            self.max_batch,
            self.max_wait.as_secs_f64() * 1e3,
            self.workers,
            self.threads,
            self.prefetch_depth,
            self.leader,
            self.avoidance,
            self.retry_budget,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let c = ServerConfig::default()
            .with_max_batch(4)
            .with_max_wait(Duration::from_millis(5))
            .with_mode(ExecutionMode::Cluster { servers: 3 })
            .with_avoidance(false)
            .with_threads(4)
            .with_prefetch_depth(2)
            .with_leader(LeaderPolicy::NearestChain)
            .with_workers(2)
            .with_retry_budget(5)
            .with_read_timeout(Some(Duration::from_secs(3)))
            .with_store(StoreChoice::File(PathBuf::from("/tmp/mqdb")))
            .with_metric(VectorMetric::Cosine)
            .with_approx(Some(ApproxTier::Bq { budget: 500 }))
            .with_max_queue(64)
            .with_quota(Some(QuotaConfig {
                rate: 100.0,
                burst: 10.0,
            }));
        assert_eq!(c.max_batch, 4);
        assert_eq!(c.max_wait, Duration::from_millis(5));
        assert_eq!(c.mode, ExecutionMode::Cluster { servers: 3 });
        assert!(!c.avoidance);
        assert_eq!(c.threads, 4);
        assert_eq!(c.prefetch_depth, 2);
        assert_eq!(c.leader, LeaderPolicy::NearestChain);
        assert_eq!(c.workers, 2);
        assert_eq!(c.retry_budget, 5);
        assert_eq!(c.read_timeout, Some(Duration::from_secs(3)));
        assert_eq!(c.store, StoreChoice::File(PathBuf::from("/tmp/mqdb")));
        assert_eq!(c.metric, VectorMetric::Cosine);
        assert_eq!(c.approx, Some(ApproxTier::Bq { budget: 500 }));
        assert_eq!(c.max_queue, 64);
        assert_eq!(
            c.engine_options(),
            EngineOptions {
                avoidance: false,
                max_pivots: None,
                threads: 4,
                prefetch_depth: 2,
                leader: LeaderPolicy::NearestChain,
                fault_policy: FaultPolicy::new(5),
            }
        );
        assert_eq!(
            c.quota,
            Some(QuotaConfig {
                rate: 100.0,
                burst: 10.0
            })
        );
    }

    #[test]
    fn defaults_are_sequential() {
        let c = ServerConfig::default();
        assert_eq!(c.threads, 1);
        assert_eq!(c.prefetch_depth, 0);
        assert_eq!(c.leader, LeaderPolicy::Fifo);
        assert_eq!(c.workers, 1);
        assert_eq!(c.retry_budget, 2);
        assert_eq!(c.read_timeout, None);
        assert_eq!(c.store, StoreChoice::Sim);
        assert_eq!(c.metric, VectorMetric::Euclidean);
        assert_eq!(c.approx, None);
        assert_eq!(c.max_queue, 0);
        assert_eq!(c.quota, None);
    }

    #[test]
    fn zero_threads_and_workers_clamp_to_one() {
        let c = ServerConfig::default().with_threads(0).with_workers(0);
        assert_eq!(c.threads, 1);
        assert_eq!(c.workers, 1);
    }

    #[test]
    #[should_panic(expected = "max_batch must be positive")]
    fn zero_batch_rejected() {
        let _ = ServerConfig::default().with_max_batch(0);
    }

    #[test]
    #[should_panic(expected = "quota rate must be positive")]
    fn non_positive_quota_rejected() {
        let _ = ServerConfig::default().with_quota(Some(QuotaConfig {
            rate: 0.0,
            burst: 4.0,
        }));
    }

    #[test]
    fn describe_names_every_knob() {
        let line = ServerConfig::default()
            .with_mode(ExecutionMode::Cluster { servers: 3 })
            .with_threads(4)
            .with_workers(2)
            .with_prefetch_depth(2)
            .with_retry_budget(5)
            .describe();
        assert!(!line.contains('\n'));
        for needle in [
            "mode=cluster(3)",
            "store=sim",
            "metric=euclidean",
            "approx=off",
            "max_batch=16",
            "max_wait=20ms",
            "workers=2",
            "threads=4",
            "prefetch_depth=2",
            "leader=Fifo",
            "avoidance=true",
            "retry_budget=5",
            "read_timeout=none",
            "max_queue=unbounded",
            "quota=off",
        ] {
            assert!(line.contains(needle), "missing {needle} in {line}");
        }
        let admission_line = ServerConfig::default()
            .with_max_queue(32)
            .with_quota(Some(QuotaConfig {
                rate: 200.0,
                burst: 16.0,
            }))
            .describe();
        assert!(admission_line.contains("max_queue=32"), "{admission_line}");
        assert!(admission_line.contains("quota=200:16"), "{admission_line}");
        let file_line = ServerConfig::default()
            .with_store(StoreChoice::File(PathBuf::from("/data/mq")))
            .describe();
        assert!(file_line.contains("store=file:/data/mq"), "{file_line}");
        let approx_line = ServerConfig::default()
            .with_approx(Some(ApproxTier::Bq { budget: 64 }))
            .describe();
        assert!(approx_line.contains("approx=bq:64"), "{approx_line}");
    }

    #[test]
    fn file_index_defaults_to_scan_and_describes() {
        let c = ServerConfig::default();
        assert_eq!(c.file_index, FileIndex::Scan);
        let line = ServerConfig::default()
            .with_store(StoreChoice::File(PathBuf::from("/data/mq")))
            .with_file_index(FileIndex::VaPage)
            .describe();
        assert!(line.contains("file_index=vafile"), "{line}");
        assert_eq!(FileIndex::VaPage.name(), "vafile");
        assert_eq!(FileIndex::Scan.name(), "scan");
    }
}
