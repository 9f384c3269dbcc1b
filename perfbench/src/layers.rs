//! The per-layer record of a traced run and the metrics derived from it.

use crate::common::Outcome;
use crate::rules::{ratio, self_time};
use crate::trace::{IndexClock, MetricClock, StoreClock};
use mq_core::ExecutionStats;

/// Raw per-layer readings; every metric a workload does not exercise
/// stays 0.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    /// Queries the engine answered.
    pub queries: f64,
    /// Distance evaluations seen by the metric wrapper.
    pub metric_calls: f64,
    /// Seconds inside the metric wrapper.
    pub metric_busy_s: f64,
    /// Seconds inside the engine (or the backend executing batches).
    pub engine_busy_s: f64,
    /// The engine's execution statistics over the traced work.
    pub stats: ExecutionStats,
    /// `SimilarityIndex::plan` calls.
    pub index_plan_calls: f64,
    /// Pages the plans yielded.
    pub index_pages_yielded: f64,
    /// `SimilarityIndex::page_mindist` calls.
    pub index_mindist_calls: f64,
    /// Seconds inside the index wrapper and its plans.
    pub index_busy_s: f64,
    /// Seconds inside page-store reads.
    pub storage_read_s: f64,
    /// Range queries DBSCAN issued.
    pub mining_queries: f64,
    /// DBSCAN's own seconds (outside engine steps).
    pub mining_self_s: f64,
    /// Scheduler batches flushed.
    pub sched_batches: f64,
    /// Mean queries per flushed batch.
    pub sched_batch_size_mean: f64,
    /// Share of flushes caused by the `max_wait` deadline.
    pub sched_deadline_flush_ratio: f64,
    /// Queue-wait median, ms (interpolated from the scraped histogram).
    pub sched_queue_wait_p50_ms: f64,
    /// Queue-wait p99, ms (interpolated from the scraped histogram).
    pub sched_queue_wait_p99_ms: f64,
    /// Seconds the backend spent executing batches.
    pub backend_execute_s: f64,
    /// Execute seconds over the rung's wall seconds.
    pub backend_busy_ratio: f64,
    /// Queries admission control refused.
    pub admission_rejected: f64,
    /// Client mean latency minus mean queue wait minus mean execute time.
    pub front_other_mean_ms: f64,
    /// p99 of how late the load client sent requests, ms.
    pub client_late_p99_ms: f64,
    /// Share of requests whose key was requested before in the run.
    pub client_repeat_share: f64,
    /// Requests the load client sent.
    pub client_sent: f64,
    /// Request latency median at the light rung, ms.
    pub client_light_p50_ms: f64,
    /// Request latency p99 at the light rung, ms.
    pub client_light_p99_ms: f64,
    /// Failed requests over attempted ones.
    pub client_fail_ratio: f64,
    /// Highest ladder step meeting the SLO, requests per second.
    pub client_max_qps_at_slo: f64,
    /// Traced time over untraced time, minus one.
    pub trace_overhead_ratio: f64,
}

impl Layers {
    /// Adds the readings of the metric, index and store wrappers.
    pub fn add_clocks(&mut self, metric: &MetricClock, index: &IndexClock, store: &StoreClock) {
        self.metric_calls += metric.pairs() as f64;
        self.metric_busy_s += metric.busy_s();
        self.index_plan_calls += index.plans.calls() as f64;
        self.index_pages_yielded += index
            .pages_yielded
            .load(std::sync::atomic::Ordering::Relaxed) as f64;
        self.index_mindist_calls += index.mindist.calls() as f64;
        self.index_busy_s += index.busy_s();
        self.storage_read_s += store.busy_s();
    }

    /// Pushes every per-layer metric, in the order `BENCHMARK.json` lists them.
    pub fn emit(&self, out: &mut Outcome) {
        let s = &self.stats;
        let io = &s.io;
        out.metric("metric.calls", self.metric_calls, "count");
        out.metric("metric.busy_s", self.metric_busy_s, "s");
        out.metric(
            "metric.ns_per_call",
            ratio(self.metric_busy_s * 1e9, self.metric_calls),
            "ns",
        );
        out.metric("engine.busy_s", self.engine_busy_s, "s");
        out.metric(
            "engine.self_s",
            self_time(
                self.engine_busy_s,
                &[self.metric_busy_s, self.index_busy_s, self.storage_read_s],
            ),
            "s",
        );
        out.metric(
            "engine.floor_ratio",
            ratio(self.engine_busy_s, self.metric_busy_s),
            "ratio",
        );
        out.metric("engine.avoid_tries", s.avoidance.tries as f64, "count");
        out.metric("engine.avoided", s.avoidance.avoided as f64, "count");
        out.metric(
            "engine.avoid_hit_ratio",
            ratio(s.avoidance.avoided as f64, s.avoidance.tries as f64),
            "ratio",
        );
        out.metric(
            "engine.dists_per_query",
            ratio(s.dist_calcs as f64, self.queries),
            "count",
        );
        out.metric("index.plan_calls", self.index_plan_calls, "count");
        out.metric("index.pages_yielded", self.index_pages_yielded, "count");
        out.metric("index.mindist_calls", self.index_mindist_calls, "count");
        out.metric("index.busy_s", self.index_busy_s, "s");
        out.metric(
            "index.pages_per_query",
            ratio(self.index_pages_yielded, self.queries),
            "count",
        );
        out.metric("storage.logical_reads", io.logical_reads as f64, "count");
        out.metric("storage.physical_reads", io.physical_reads as f64, "count");
        out.metric(
            "storage.hit_ratio",
            ratio(io.buffer_hits as f64, io.logical_reads as f64),
            "ratio",
        );
        out.metric("storage.read_s", self.storage_read_s, "s");
        out.metric("mining.queries", self.mining_queries, "count");
        out.metric("mining.self_s", self.mining_self_s, "s");
        out.metric("sched.batches", self.sched_batches, "count");
        out.metric("sched.batch_size_mean", self.sched_batch_size_mean, "count");
        out.metric(
            "sched.deadline_flush_ratio",
            self.sched_deadline_flush_ratio,
            "ratio",
        );
        out.metric(
            "sched.queue_wait_p50_ms",
            self.sched_queue_wait_p50_ms,
            "ms",
        );
        out.metric(
            "sched.queue_wait_p99_ms",
            self.sched_queue_wait_p99_ms,
            "ms",
        );
        out.metric("backend.execute_s", self.backend_execute_s, "s");
        out.metric("backend.busy_ratio", self.backend_busy_ratio, "ratio");
        out.metric("admission.rejected", self.admission_rejected, "count");
        out.metric("front.other_mean_ms", self.front_other_mean_ms, "ms");
        out.metric("client.late_p99_ms", self.client_late_p99_ms, "ms");
        out.metric("client.repeat_share", self.client_repeat_share, "ratio");
        out.metric("client.sent", self.client_sent, "count");
        out.metric("client.light_p50_ms", self.client_light_p50_ms, "ms");
        out.metric("client.light_p99_ms", self.client_light_p99_ms, "ms");
        out.metric("client.fail_ratio", self.client_fail_ratio, "ratio");
        out.metric("client.max_qps_at_slo", self.client_max_qps_at_slo, "1/s");
        out.metric("trace.overhead_ratio", self.trace_overhead_ratio, "ratio");
    }
}
