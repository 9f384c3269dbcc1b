//! The shared-nothing cluster: parallel execution of multiple similarity
//! queries (§5.3).

use crate::merge::merge_answers;
use crate::partition::Declustering;
use crate::server::Server;
use mq_core::{
    Answer, CandidatePrescreen, EngineError, EngineObs, EngineOptions, ExecutionStats, QueryEngine,
    QueryType, StatsProbe, WorkerPool,
};
use mq_index::SimilarityIndex;
use mq_metric::Metric;
use mq_obs::{Counter, Recorder};
use mq_storage::{Dataset, PagedDatabase, StorageObject};
use std::sync::Arc;
use std::time::Instant;

/// One server's outcome: its per-query answers and stats, or the reason
/// the partition is unreachable.
type ServerRun = Result<(Vec<Vec<Answer>>, ExecutionStats), String>;

/// Statistics of one parallel multiple-query run.
#[derive(Clone, Debug, Default)]
pub struct ClusterStats {
    /// Per-server execution statistics (I/O, distance calculations,
    /// triangle-inequality counters), in server order.
    pub per_server: Vec<ExecutionStats>,
    /// Measured wall-clock of the whole parallel run.
    pub elapsed: std::time::Duration,
}

/// The result of a fault-tolerant cluster run: global answers merged from
/// every *reachable* server, plus an explicit record of the partitions
/// that failed. A degraded result is never silently complete — callers
/// must check [`is_complete`](Self::is_complete) (or `missing_partitions`)
/// before treating the answers as the full Definition 4 result.
#[derive(Clone, Debug)]
pub struct DegradedAnswers {
    /// Global answers per query, merged over the servers that responded —
    /// the best answers computable from the reachable part of the
    /// database. With missing partitions, a range query returns a subset
    /// of the full result; a k-NN query returns the k nearest *reachable*
    /// objects (never nearer than the full result at any rank).
    pub answers: Vec<Vec<Answer>>,
    /// Statistics of the run; failed servers report
    /// [`ExecutionStats::default`] in their slot of `per_server`.
    pub stats: ClusterStats,
    /// Indices (server order) of the partitions that failed, ascending.
    /// Empty means the result is complete.
    pub missing_partitions: Vec<usize>,
    /// Human-readable reason per missing partition, parallel to
    /// `missing_partitions` (engine error display or panic note).
    pub failure_reasons: Vec<String>,
}

impl DegradedAnswers {
    /// Whether every partition contributed — i.e. the answers are the
    /// complete multiple-query result, not a degraded subset.
    pub fn is_complete(&self) -> bool {
        self.missing_partitions.is_empty()
    }
}

impl ClusterStats {
    /// Sum over servers — the work a single machine would have done.
    pub fn total(&self) -> ExecutionStats {
        self.per_server
            .iter()
            .fold(ExecutionStats::default(), |acc, s| acc + *s)
    }

    /// The dominant server under a cost function — the simulated
    /// wall-clock of the parallel run (§5.3: servers run concurrently, so
    /// the cluster finishes with its slowest server).
    pub fn max_modeled_seconds(&self, cost: impl Fn(&ExecutionStats) -> f64) -> f64 {
        self.per_server.iter().map(cost).fold(0.0, f64::max)
    }
}

/// Pre-registered per-partition instruments: one series per server under
/// a `partition` label, so a scrape shows how evenly the declustering
/// spread the work (§5.3 skew) and which partitions have been failing.
struct ClusterObs {
    /// Queries routed to each partition (every query goes to every
    /// reachable partition in a shared-nothing scan).
    queries: Vec<Arc<Counter>>,
    /// Distance calculations each partition performed.
    dist_calcs: Vec<Arc<Counter>>,
    /// Logical page reads each partition performed.
    logical_reads: Vec<Arc<Counter>>,
    /// Runs in which the partition was reported missing.
    failures: Vec<Arc<Counter>>,
}

impl ClusterObs {
    fn new(recorder: &Recorder, servers: usize) -> Option<Self> {
        if !recorder.is_enabled() {
            return None;
        }
        let labels: Vec<String> = (0..servers).map(|i| i.to_string()).collect();
        let series = |name: &str, help: &str| -> Vec<Arc<Counter>> {
            labels
                .iter()
                .filter_map(|l| recorder.counter(name, help, &[("partition", l.as_str())]))
                .collect()
        };
        let obs = Self {
            queries: series(
                "mq_cluster_partition_queries_total",
                "Queries evaluated on each shared-nothing partition.",
            ),
            dist_calcs: series(
                "mq_cluster_partition_distance_calculations_total",
                "Distance calculations performed by each partition.",
            ),
            logical_reads: series(
                "mq_cluster_partition_logical_reads_total",
                "Logical page reads performed by each partition.",
            ),
            failures: series(
                "mq_cluster_partition_failures_total",
                "Cluster runs in which the partition was missing (degraded).",
            ),
        };
        (obs.queries.len() == servers).then_some(obs)
    }
}

/// A cluster of `s` shared-nothing servers over one logical database.
pub struct SharedNothingCluster<O, M> {
    servers: Vec<Server<O, M>>,
    /// Options of every server's engine: avoidance, page-evaluation
    /// threads (per server, on top of the inter-server parallelism),
    /// prefetch depth, leader policy and fault policy.
    options: EngineOptions,
    /// One persistent page-evaluation pool per server, created once by
    /// [`with_options`](Self::with_options) and shared by every engine
    /// built for that server across `multiple_query` calls. Empty while
    /// `options.threads == 1` (nothing to parallelize).
    pools: Vec<Arc<WorkerPool>>,
    /// Observability handle threaded into every server's pool and disk;
    /// disabled by default.
    recorder: Recorder,
    /// Per-partition instruments, present iff `recorder` is enabled.
    obs: Option<ClusterObs>,
    /// Engine instruments registered once and shared by every server's
    /// per-batch engine, present iff `recorder` is enabled.
    engine_obs: Option<Arc<EngineObs>>,
    /// One approximate candidate tier per server (see
    /// [`with_prescreens`](Self::with_prescreens)); empty = exact cluster.
    prescreens: Vec<Arc<dyn CandidatePrescreen<O>>>,
}

impl<O, M> SharedNothingCluster<O, M>
where
    O: StorageObject,
    M: Metric<O> + Clone + 'static,
{
    /// Declusters `objects` over `s` servers and builds each server's
    /// local index with `build_index` (invoked once per server).
    pub fn build<F>(
        objects: &[O],
        s: usize,
        strategy: Declustering,
        metric: M,
        buffer_fraction: f64,
        build_index: F,
    ) -> Self
    where
        F: Fn(&Dataset<O>) -> (Box<dyn SimilarityIndex<O>>, PagedDatabase<O>),
    {
        let parts = strategy.partition(objects.len(), s);
        let servers = parts
            .iter()
            .map(|part| Server::build(objects, part, metric.clone(), buffer_fraction, &build_index))
            .collect();
        Self::from_servers(servers)
    }

    /// Assembles a cluster from pre-built servers (any [`mq_storage::PageStore`]
    /// backend per partition — this is how `mq serve --store file:` brings
    /// up a durable cluster, one store directory per server). The engines
    /// start at [`EngineOptions::default`].
    pub fn from_servers(servers: Vec<Server<O, M>>) -> Self {
        Self {
            servers,
            options: EngineOptions::default(),
            pools: Vec::new(),
            recorder: Recorder::disabled(),
            obs: None,
            engine_obs: None,
            prescreens: Vec::new(),
        }
    }

    /// Attaches one approximate candidate tier per server (partition-local
    /// id spaces, so every partition needs its own sketch/graph). Each
    /// server's engines prescreen admitted queries and restrict evaluation
    /// to the candidate union — answers may lose recall but surviving
    /// distances stay exact, and a prescreen covering every object is
    /// bit-identical to the exact cluster. An empty vector turns the tier
    /// off.
    ///
    /// # Panics
    /// Panics if a non-empty vector's length differs from the server count.
    pub fn with_prescreens(mut self, prescreens: Vec<Arc<dyn CandidatePrescreen<O>>>) -> Self {
        assert!(
            prescreens.is_empty() || prescreens.len() == self.servers.len(),
            "need one prescreen per server ({} servers, {} prescreens)",
            self.servers.len(),
            prescreens.len()
        );
        self.prescreens = prescreens;
        self
    }

    /// The attached prescreens' names, in server order (empty = exact).
    pub fn prescreen_names(&self) -> Vec<&str> {
        self.prescreens.iter().map(|p| p.name()).collect()
    }

    /// Runs every server's engine with `options`. `threads` (clamped to at
    /// least 1) is *per server* and orthogonal to the inter-server
    /// parallelism: a 4-server cluster with 2 engine threads runs on up to
    /// 8 cores. Answers and counters are identical for every thread count,
    /// prefetch depth and leader policy.
    ///
    /// With `threads > 1` each server gets its own persistent
    /// [`WorkerPool`], created here and reused by every
    /// [`multiple_query`](Self::multiple_query) call — batches do not pay
    /// thread spawn/join.
    pub fn with_options(mut self, options: EngineOptions) -> Self {
        let threads = options.threads.max(1);
        let resize = threads != self.options.threads;
        self.options = EngineOptions { threads, ..options };
        if resize {
            self.rebuild_pools();
        }
        self
    }

    /// Replaces every server's distance function; each server keeps a
    /// private distance counter.
    pub fn with_metric(mut self, metric: M) -> Self {
        for server in &mut self.servers {
            server.set_metric(metric.clone());
        }
        self
    }

    /// Attaches an observability [`Recorder`] to the whole cluster:
    /// per-partition query/distance/read/failure counters, the engine
    /// counters and stage spans, every server disk's buffer and fault
    /// counters, and the per-server worker pools. A disabled recorder
    /// detaches everything. Order-independent with
    /// [`with_options`](Self::with_options) — pools are rebuilt here.
    pub fn with_recorder(mut self, recorder: &Recorder) -> Self {
        self.recorder = recorder.clone();
        self.obs = ClusterObs::new(recorder, self.servers.len());
        self.engine_obs = EngineObs::new(recorder);
        for server in &self.servers {
            server.disk().attach_recorder(recorder);
        }
        self.rebuild_pools();
        self
    }

    /// (Re)creates the per-server page-evaluation pools for the current
    /// thread count and recorder.
    fn rebuild_pools(&mut self) {
        let threads = self.options.threads;
        self.pools = if threads > 1 {
            self.servers
                .iter()
                .map(|_| Arc::new(WorkerPool::with_recorder(threads, &self.recorder)))
                .collect()
        } else {
            Vec::new()
        };
    }

    /// The options every server's engine runs with.
    pub fn options(&self) -> EngineOptions {
        self.options
    }

    /// Number of servers.
    pub fn server_count(&self) -> usize {
        self.servers.len()
    }

    /// The servers (for inspection in tests and reports).
    pub fn servers(&self) -> &[Server<O, M>] {
        &self.servers
    }

    /// Runs one multiple similarity query on every server in parallel
    /// (scoped OS threads) and merges the per-server answers into global
    /// answers, in query order.
    ///
    /// # Panics
    /// Panics if any partition fails (a server thread panics or its engine
    /// surfaces an unrecoverable fault) — this entry point never returns a
    /// silently partial result. Fault-tolerant callers use
    /// [`multiple_query_degraded`](Self::multiple_query_degraded).
    pub fn multiple_query(&self, queries: &[(O, QueryType)]) -> (Vec<Vec<Answer>>, ClusterStats) {
        let degraded = self.multiple_query_degraded(queries);
        assert!(
            degraded.is_complete(),
            "cluster partitions failed: {:?} ({:?})",
            degraded.missing_partitions,
            degraded.failure_reasons
        );
        (degraded.answers, degraded.stats)
    }

    /// Fault-tolerant [`multiple_query`](Self::multiple_query): every server
    /// runs in parallel; a server whose engine errors (past the cluster's
    /// fault policy) or whose thread panics becomes an explicitly recorded
    /// *missing partition* instead of poisoning the whole run. Answers are
    /// merged over the reachable servers only.
    pub fn multiple_query_degraded(&self, queries: &[(O, QueryType)]) -> DegradedAnswers {
        let started = Instant::now();
        let per_server: Vec<ServerRun> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.servers.len())
                .map(|si| scope.spawn(move || self.run_on_server(si, queries)))
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(Ok(result)) => Ok(result),
                    Ok(Err(e)) => Err(format!("engine error: {e}")),
                    Err(_) => Err("server thread panicked".to_string()),
                })
                .collect()
        });

        let mut missing_partitions = Vec::new();
        let mut failure_reasons = Vec::new();
        for (si, r) in per_server.iter().enumerate() {
            if let Err(reason) = r {
                missing_partitions.push(si);
                failure_reasons.push(reason.clone());
            }
        }

        // Mirror the per-partition outcome into the registry (write-only:
        // nothing below reads these counters back).
        if let Some(obs) = &self.obs {
            for (si, r) in per_server.iter().enumerate() {
                match r {
                    Ok((_, stats)) => {
                        obs.queries[si].add(queries.len() as u64);
                        obs.dist_calcs[si].add(stats.dist_calcs);
                        obs.logical_reads[si].add(stats.io.logical_reads);
                    }
                    Err(_) => obs.failures[si].inc(),
                }
            }
        }

        let stats = ClusterStats {
            per_server: per_server
                .iter()
                .map(|r| r.as_ref().map(|(_, s)| *s).unwrap_or_default())
                .collect(),
            elapsed: started.elapsed(),
        };

        // Merge per query across the servers that responded.
        let answers = (0..queries.len())
            .map(|qi| {
                let lists: Vec<Vec<Answer>> = per_server
                    .iter()
                    .filter_map(|r| r.as_ref().ok())
                    .map(|(a, _)| a[qi].clone())
                    .collect();
                merge_answers(&queries[qi].1, lists)
            })
            .collect();
        DegradedAnswers {
            answers,
            stats,
            missing_partitions,
            failure_reasons,
        }
    }

    /// Executes the full batch on server `si` and translates answers to
    /// global object ids. Surfaces the engine's typed error when a read
    /// faults past the retry budget.
    fn run_on_server(
        &self,
        si: usize,
        queries: &[(O, QueryType)],
    ) -> Result<(Vec<Vec<Answer>>, ExecutionStats), EngineError> {
        let server = &self.servers[si];
        let mut engine = QueryEngine::new(server.disk(), server.index(), server.metric().clone())
            .with_options(self.options)
            .with_obs(self.engine_obs.clone());
        if let Some(pool) = self.pools.get(si) {
            engine = engine.with_pool(Arc::clone(pool));
        }
        if let Some(prescreen) = self.prescreens.get(si) {
            engine = engine.with_prescreen(&**prescreen);
        }
        let probe = StatsProbe::start(server.disk(), server.counter(), Default::default());
        let mut session = engine.new_session(queries.to_vec());
        engine.try_run_to_completion(&mut session)?;
        let stats = probe.finish(server.disk(), session.avoidance_stats());
        let answers = session
            .into_answers()
            .into_iter()
            .map(|list| {
                list.into_iter()
                    .map(|a| Answer {
                        id: server.global_id(a.id),
                        distance: a.distance,
                    })
                    .collect()
            })
            .collect();
        Ok((answers, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mq_core::LeaderPolicy;
    use mq_index::{LinearScan, XTree, XTreeConfig};
    use mq_metric::{Euclidean, ObjectId, Vector};
    use mq_storage::{PageLayout, SimulatedDisk};

    fn random_points(n: usize, dim: usize, seed: u64) -> Vec<Vector> {
        let mut x = seed.max(1);
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| {
                Vector::new(
                    (0..dim)
                        .map(|_| (next() * 100.0) as f32)
                        .collect::<Vec<_>>(),
                )
            })
            .collect()
    }

    fn layout() -> PageLayout {
        PageLayout::new(256, 16)
    }

    fn scan_builder(
    ) -> impl Fn(&Dataset<Vector>) -> (Box<dyn SimilarityIndex<Vector>>, PagedDatabase<Vector>)
    {
        |ds: &Dataset<Vector>| {
            let db = PagedDatabase::pack(ds, layout());
            let scan = LinearScan::new(db.page_count());
            (Box::new(scan) as Box<dyn SimilarityIndex<Vector>>, db)
        }
    }

    fn xtree_builder(
    ) -> impl Fn(&Dataset<Vector>) -> (Box<dyn SimilarityIndex<Vector>>, PagedDatabase<Vector>)
    {
        |ds: &Dataset<Vector>| {
            let cfg = XTreeConfig {
                layout: layout(),
                ..Default::default()
            };
            let (tree, db) = XTree::bulk_load(ds, cfg);
            (Box::new(tree) as Box<dyn SimilarityIndex<Vector>>, db)
        }
    }

    /// Sequential reference on a single node.
    fn sequential_answers(
        objects: &[Vector],
        queries: &[(Vector, QueryType)],
    ) -> Vec<Vec<ObjectId>> {
        let ds = Dataset::new(objects.to_vec());
        let db = PagedDatabase::pack(&ds, layout());
        let scan = LinearScan::new(db.page_count());
        let disk = SimulatedDisk::with_buffer_pages(db, 4);
        let engine = QueryEngine::new(&disk, &scan, Euclidean);
        queries
            .iter()
            .map(|(q, t)| engine.similarity_query(q, t).ids().collect())
            .collect()
    }

    #[test]
    fn parallel_knn_matches_sequential() {
        let objects = random_points(400, 4, 201);
        let queries: Vec<(Vector, QueryType)> = objects
            .iter()
            .step_by(41)
            .take(8)
            .map(|v| (v.clone(), QueryType::knn(5)))
            .collect();
        let reference = sequential_answers(&objects, &queries);
        for s in [1, 2, 4, 7] {
            let cluster = SharedNothingCluster::build(
                &objects,
                s,
                Declustering::RoundRobin,
                Euclidean,
                0.1,
                scan_builder(),
            );
            let (answers, stats) = cluster.multiple_query(&queries);
            assert_eq!(stats.per_server.len(), s);
            for (got, want) in answers.iter().zip(&reference) {
                let ids: Vec<ObjectId> = got.iter().map(|a| a.id).collect();
                assert_eq!(&ids, want, "s = {s}");
            }
        }
    }

    #[test]
    fn parallel_range_matches_sequential_on_xtree() {
        let objects = random_points(500, 4, 203);
        let queries: Vec<(Vector, QueryType)> = objects
            .iter()
            .step_by(67)
            .take(6)
            .map(|v| (v.clone(), QueryType::range(12.0)))
            .collect();
        let reference = sequential_answers(&objects, &queries);
        let cluster = SharedNothingCluster::build(
            &objects,
            4,
            Declustering::Hash,
            Euclidean,
            0.1,
            xtree_builder(),
        );
        let (answers, _) = cluster.multiple_query(&queries);
        for (got, want) in answers.iter().zip(&reference) {
            let ids: Vec<ObjectId> = got.iter().map(|a| a.id).collect();
            assert_eq!(&ids, want);
        }
    }

    #[test]
    fn per_server_io_shrinks_with_more_servers() {
        let objects = random_points(600, 4, 207);
        let queries: Vec<(Vector, QueryType)> = objects
            .iter()
            .take(10)
            .map(|v| (v.clone(), QueryType::knn(5)))
            .collect();
        let run = |s: usize| {
            let cluster = SharedNothingCluster::build(
                &objects,
                s,
                Declustering::RoundRobin,
                Euclidean,
                0.1,
                scan_builder(),
            );
            let (_, stats) = cluster.multiple_query(&queries);
            stats
                .per_server
                .iter()
                .map(|st| st.io.logical_reads)
                .max()
                .unwrap_or(0)
        };
        let one = run(1);
        let four = run(4);
        assert!(
            four * 3 <= one,
            "per-server I/O should shrink ~4x: 1 server {one}, 4 servers {four}"
        );
    }

    #[test]
    fn declustering_strategies_agree_on_results() {
        let objects = random_points(300, 3, 211);
        let queries: Vec<(Vector, QueryType)> = objects
            .iter()
            .step_by(53)
            .take(5)
            .map(|v| (v.clone(), QueryType::knn(4)))
            .collect();
        let reference = sequential_answers(&objects, &queries);
        for strategy in [
            Declustering::RoundRobin,
            Declustering::Hash,
            Declustering::Chunk,
        ] {
            let cluster =
                SharedNothingCluster::build(&objects, 3, strategy, Euclidean, 0.1, scan_builder());
            let (answers, _) = cluster.multiple_query(&queries);
            for (got, want) in answers.iter().zip(&reference) {
                let ids: Vec<ObjectId> = got.iter().map(|a| a.id).collect();
                assert_eq!(&ids, want, "{strategy:?}");
            }
        }
    }

    #[test]
    fn stats_total_and_max() {
        let objects = random_points(200, 3, 213);
        let queries: Vec<(Vector, QueryType)> = vec![(objects[0].clone(), QueryType::knn(3))];
        let cluster = SharedNothingCluster::build(
            &objects,
            2,
            Declustering::RoundRobin,
            Euclidean,
            0.1,
            scan_builder(),
        );
        let (_, stats) = cluster.multiple_query(&queries);
        let total = stats.total();
        assert_eq!(
            total.io.logical_reads,
            stats
                .per_server
                .iter()
                .map(|s| s.io.logical_reads)
                .sum::<u64>()
        );
        let max = stats.max_modeled_seconds(|s| s.dist_calcs as f64);
        assert!(max <= total.dist_calcs as f64);
        assert!(
            max * 2.0 >= total.dist_calcs as f64 * 0.9,
            "roughly balanced"
        );
    }

    #[test]
    fn engine_threads_do_not_change_results() {
        let objects = random_points(500, 4, 219);
        let queries: Vec<(Vector, QueryType)> = objects
            .iter()
            .step_by(59)
            .take(8)
            .map(|v| (v.clone(), QueryType::knn(6)))
            .collect();
        let reference = sequential_answers(&objects, &queries);
        let cluster = SharedNothingCluster::build(
            &objects,
            2,
            Declustering::RoundRobin,
            Euclidean,
            0.1,
            scan_builder(),
        )
        .with_options(EngineOptions {
            threads: 3,
            ..EngineOptions::default()
        });
        assert_eq!(cluster.options().threads, 3);
        let (answers, _) = cluster.multiple_query(&queries);
        for (got, want) in answers.iter().zip(&reference) {
            let ids: Vec<ObjectId> = got.iter().map(|a| a.id).collect();
            assert_eq!(&ids, want);
        }
    }

    #[test]
    fn prefetch_and_leader_do_not_change_results_and_pools_are_reused() {
        let objects = random_points(500, 4, 223);
        let queries: Vec<(Vector, QueryType)> = objects
            .iter()
            .step_by(61)
            .take(7)
            .map(|v| (v.clone(), QueryType::knn(5)))
            .collect();
        let reference = sequential_answers(&objects, &queries);
        let cluster = SharedNothingCluster::build(
            &objects,
            3,
            Declustering::RoundRobin,
            Euclidean,
            0.1,
            xtree_builder(),
        )
        .with_options(EngineOptions {
            threads: 2,
            prefetch_depth: 2,
            leader: LeaderPolicy::NearestChain,
            ..EngineOptions::default()
        });
        // Two batches through the same cluster: the per-server pools are
        // created once and must survive reuse.
        for round in 0..2 {
            let (answers, _) = cluster.multiple_query(&queries);
            for (got, want) in answers.iter().zip(&reference) {
                let ids: Vec<ObjectId> = got.iter().map(|a| a.id).collect();
                assert_eq!(&ids, want, "round {round}");
            }
        }
    }

    #[test]
    fn killed_server_yields_explicit_missing_partition() {
        use mq_storage::FaultPlan;
        let objects = random_points(300, 3, 229);
        let queries: Vec<(Vector, QueryType)> = objects
            .iter()
            .step_by(37)
            .take(6)
            .map(|v| (v.clone(), QueryType::knn(4)))
            .collect();
        let cluster = SharedNothingCluster::build(
            &objects,
            3,
            Declustering::RoundRobin,
            Euclidean,
            0.1,
            scan_builder(),
        );
        // Healthy reference first.
        let healthy = cluster.multiple_query_degraded(&queries);
        assert!(healthy.is_complete());
        // Kill server 1's disk outright: every read is Unavailable.
        cluster.servers()[1].disk().set_fault_plan(Some(FaultPlan {
            kill_after: Some(0),
            ..FaultPlan::new(42)
        }));
        let degraded = cluster.multiple_query_degraded(&queries);
        assert!(!degraded.is_complete());
        assert_eq!(degraded.missing_partitions, vec![1]);
        assert_eq!(degraded.failure_reasons.len(), 1);
        assert!(
            degraded.failure_reasons[0].contains("unavailable"),
            "{}",
            degraded.failure_reasons[0]
        );
        // The failed slot reports empty stats; the others worked.
        assert_eq!(degraded.stats.per_server[1], ExecutionStats::default());
        assert!(degraded.stats.per_server[0].io.logical_reads > 0);
        // No degraded answer comes from the dead partition, and at every
        // rank the degraded neighbor is no nearer than the full one.
        let dead: Vec<ObjectId> = Declustering::RoundRobin.partition(objects.len(), 3)[1].clone();
        for (got, full) in degraded.answers.iter().zip(&healthy.answers) {
            for a in got {
                assert!(!dead.contains(&a.id), "answer from a dead partition");
            }
            for (g, f) in got.iter().zip(full) {
                assert!(g.distance >= f.distance - 1e-12);
            }
        }
    }

    #[test]
    fn multiple_query_panics_on_missing_partition() {
        use mq_storage::FaultPlan;
        let objects = random_points(120, 3, 231);
        let queries: Vec<(Vector, QueryType)> = vec![(objects[0].clone(), QueryType::knn(3))];
        let cluster = SharedNothingCluster::build(
            &objects,
            2,
            Declustering::RoundRobin,
            Euclidean,
            0.1,
            scan_builder(),
        );
        cluster.servers()[0].disk().set_fault_plan(Some(FaultPlan {
            kill_after: Some(0),
            ..FaultPlan::new(7)
        }));
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cluster.multiple_query(&queries)
        }));
        assert!(r.is_err(), "strict entry point must refuse partial results");
    }

    #[test]
    fn retry_budget_recovers_transient_cluster_faults() {
        use mq_storage::FaultPlan;
        let objects = random_points(300, 3, 233);
        let queries: Vec<(Vector, QueryType)> = objects
            .iter()
            .step_by(43)
            .take(5)
            .map(|v| (v.clone(), QueryType::knn(4)))
            .collect();
        let cluster = SharedNothingCluster::build(
            &objects,
            2,
            Declustering::Hash,
            Euclidean,
            0.1,
            scan_builder(),
        )
        .with_options(EngineOptions {
            fault_policy: mq_core::FaultPolicy::new(3),
            ..EngineOptions::default()
        });
        let healthy = cluster.multiple_query_degraded(&queries);
        for server in cluster.servers() {
            server.disk().set_fault_plan(Some(FaultPlan {
                transient_prob: 0.3,
                ..FaultPlan::new(99)
            }));
        }
        let faulty = cluster.multiple_query_degraded(&queries);
        assert!(faulty.is_complete(), "{:?}", faulty.failure_reasons);
        for (got, want) in faulty.answers.iter().zip(&healthy.answers) {
            assert_eq!(got, want, "answers must be bit-identical after retries");
        }
        assert!(
            cluster
                .servers()
                .iter()
                .any(|s| s.disk().fault_stats().transient_errors > 0),
            "the plan should actually have fired"
        );
    }

    #[test]
    fn recorder_tracks_partition_skew_and_failures() {
        use mq_obs::Registry;
        use mq_storage::FaultPlan;
        let objects = random_points(300, 3, 241);
        let queries: Vec<(Vector, QueryType)> = objects
            .iter()
            .step_by(37)
            .take(6)
            .map(|v| (v.clone(), QueryType::knn(4)))
            .collect();
        let registry = Arc::new(Registry::new());
        let recorder = Recorder::new(Arc::clone(&registry));
        let cluster = SharedNothingCluster::build(
            &objects,
            3,
            Declustering::RoundRobin,
            Euclidean,
            0.1,
            scan_builder(),
        )
        .with_options(EngineOptions {
            threads: 2,
            ..EngineOptions::default()
        })
        .with_recorder(&recorder);
        let healthy = cluster.multiple_query_degraded(&queries);
        assert!(healthy.is_complete());
        let snap = registry.snapshot();
        for si in 0..3 {
            let q = snap.value(&format!(
                "mq_cluster_partition_queries_total{{partition=\"{si}\"}}"
            ));
            assert_eq!(q, queries.len() as f64, "partition {si}");
            let reads = snap.value(&format!(
                "mq_cluster_partition_logical_reads_total{{partition=\"{si}\"}}"
            ));
            assert_eq!(reads, healthy.stats.per_server[si].io.logical_reads as f64);
            let dists = snap.value(&format!(
                "mq_cluster_partition_distance_calculations_total{{partition=\"{si}\"}}"
            ));
            assert_eq!(dists, healthy.stats.per_server[si].dist_calcs as f64);
        }
        // The engine-level recorder fires too: distance calculations from
        // all three partitions land in the shared core counter.
        let performed = snap.value("mq_core_distance_calculations_total{outcome=\"performed\"}");
        assert!(performed > 0.0);
        // Kill one partition and check the failure counter.
        cluster.servers()[2].disk().set_fault_plan(Some(FaultPlan {
            kill_after: Some(0),
            ..FaultPlan::new(11)
        }));
        let degraded = cluster.multiple_query_degraded(&queries);
        assert_eq!(degraded.missing_partitions, vec![2]);
        let snap = registry.snapshot();
        assert_eq!(
            snap.value("mq_cluster_partition_failures_total{partition=\"2\"}"),
            1.0
        );
        // The dead partition's query counter did not advance.
        assert_eq!(
            snap.value("mq_cluster_partition_queries_total{partition=\"2\"}"),
            queries.len() as f64
        );
    }

    #[test]
    fn recorder_does_not_change_cluster_answers() {
        use mq_obs::Registry;
        let objects = random_points(400, 4, 251);
        let queries: Vec<(Vector, QueryType)> = objects
            .iter()
            .step_by(47)
            .take(8)
            .map(|v| (v.clone(), QueryType::knn(5)))
            .collect();
        let build = || {
            SharedNothingCluster::build(
                &objects,
                3,
                Declustering::Hash,
                Euclidean,
                0.1,
                scan_builder(),
            )
            .with_options(EngineOptions {
                threads: 2,
                ..EngineOptions::default()
            })
        };
        let plain = build().multiple_query(&queries);
        let recorder = Recorder::new(Arc::new(Registry::new()));
        let observed = build().with_recorder(&recorder).multiple_query(&queries);
        assert_eq!(plain.0, observed.0, "answers must be bit-identical");
        for (a, b) in plain.1.per_server.iter().zip(&observed.1.per_server) {
            assert_eq!(a.io, b.io);
            assert_eq!(a.dist_calcs, b.dist_calcs);
            assert_eq!(a.avoidance, b.avoidance);
        }
    }

    #[test]
    fn empty_query_batch() {
        let objects = random_points(50, 3, 217);
        let cluster = SharedNothingCluster::build(
            &objects,
            2,
            Declustering::RoundRobin,
            Euclidean,
            0.1,
            scan_builder(),
        );
        let (answers, stats) = cluster.multiple_query(&[]);
        assert!(answers.is_empty());
        assert_eq!(stats.per_server.len(), 2);
    }
}
