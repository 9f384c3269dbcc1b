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
/// Both values must be positive and finite
/// ([`AdmissionController::new`](crate::AdmissionController::new) panics
/// otherwise).
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
    /// Flush as soon as this many requests are queued (0 acts as 1).
    pub max_batch: usize,
    /// Flush at latest this long after the first queued request.
    pub max_wait: Duration,
    /// Single engine or shared-nothing cluster.
    pub mode: ExecutionMode,
    /// Whether §5.2 triangle-inequality avoidance is enabled.
    pub avoidance: bool,
    /// Page-evaluation threads per engine (intra-batch parallelism; 1 =
    /// the classic sequential loop, 0 acts as 1). Identical answers for
    /// every value.
    pub threads: usize,
    /// Pages staged ahead of the one being evaluated (pipelined prefetch;
    /// 0 disables it). Identical answers for every depth.
    pub prefetch_depth: usize,
    /// Which pending query leads each step of a batch.
    pub leader: LeaderPolicy,
    /// Scheduler worker threads executing flushed batches. With 1 worker
    /// (the default) batches execute strictly one after another; more
    /// workers overlap batch execution with batch collection, at the cost
    /// of batches competing for cores. 0 acts as 1.
    pub workers: usize,
    /// Extra read attempts the engines make on a *transient* disk fault
    /// before a batch fails (see [`mq_core::FaultPolicy`]). Only matters
    /// when the backend's disks have a fault plan installed.
    pub retry_budget: u32,
    /// Idle timeout applied to every client connection: the event loop's
    /// idle sweep closes a connection that has sent nothing and been sent
    /// nothing for longer, once no reply to it is in flight. `None` (the
    /// default) keeps idle connections open indefinitely.
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
    fn engine_options_follow_the_literal() {
        let c = ServerConfig {
            avoidance: false,
            threads: 4,
            prefetch_depth: 2,
            leader: LeaderPolicy::NearestChain,
            retry_budget: 5,
            ..ServerConfig::default()
        };
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
    fn describe_names_every_knob() {
        let line = ServerConfig {
            mode: ExecutionMode::Cluster { servers: 3 },
            threads: 4,
            workers: 2,
            prefetch_depth: 2,
            retry_budget: 5,
            ..ServerConfig::default()
        }
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
        let admission_line = ServerConfig {
            max_queue: 32,
            quota: Some(QuotaConfig {
                rate: 200.0,
                burst: 16.0,
            }),
            ..ServerConfig::default()
        }
        .describe();
        assert!(admission_line.contains("max_queue=32"), "{admission_line}");
        assert!(admission_line.contains("quota=200:16"), "{admission_line}");
        let file_line = ServerConfig {
            store: StoreChoice::File(PathBuf::from("/data/mq")),
            ..ServerConfig::default()
        }
        .describe();
        assert!(file_line.contains("store=file:/data/mq"), "{file_line}");
        let approx_line = ServerConfig {
            approx: Some(ApproxTier::Bq { budget: 64 }),
            ..ServerConfig::default()
        }
        .describe();
        assert!(approx_line.contains("approx=bq:64"), "{approx_line}");
    }

    #[test]
    fn file_index_defaults_to_scan_and_describes() {
        let c = ServerConfig::default();
        assert_eq!(c.file_index, FileIndex::Scan);
        let line = ServerConfig {
            store: StoreChoice::File(PathBuf::from("/data/mq")),
            file_index: FileIndex::VaPage,
            ..ServerConfig::default()
        }
        .describe();
        assert!(line.contains("file_index=vafile"), "{line}");
        assert_eq!(FileIndex::VaPage.name(), "vafile");
        assert_eq!(FileIndex::Scan.name(), "scan");
    }
}
