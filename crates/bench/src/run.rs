//! Measured runs: execute a query workload in blocks of `m` and collect
//! execution statistics.

use crate::setup::Rig;
use mq_core::{Answer, EngineOptions, ExecutionStats, QueryType, StatsProbe};
use mq_metric::Vector;

/// The outcome of one measured workload run.
pub struct MeasuredRun {
    /// Aggregate counters over the whole workload.
    pub stats: ExecutionStats,
    /// Number of queries evaluated.
    pub queries: usize,
    /// The answers, in query order (available for correctness checks).
    pub answers: Vec<Vec<Answer>>,
}

/// Runs `queries` in consecutive blocks of `m` simultaneous queries on the
/// rig (cold disk start, reset counters), as in §5's `M/m` block scheme.
/// `m = 1` degrades to single queries but still pays a (trivial) session;
/// use [`run_singles`] for the true Fig. 1 baseline.
pub fn run_blocked(
    rig: &Rig,
    queries: &[(Vector, QueryType)],
    m: usize,
    avoidance: bool,
) -> MeasuredRun {
    assert!(m > 0, "block size must be positive");
    rig.cold_restart();
    let engine = rig.engine().with_options(EngineOptions {
        avoidance,
        ..EngineOptions::default()
    });
    let probe = StatsProbe::start(&rig.disk, rig.metric.counter(), Default::default());
    let mut answers = Vec::with_capacity(queries.len());
    let mut avoidance_totals = mq_core::AvoidanceStats::default();
    for block in queries.chunks(m) {
        let mut session = engine.new_session(block.to_vec());
        engine.run_to_completion(&mut session);
        avoidance_totals += session.avoidance_stats();
        answers.extend(session.into_answers());
    }
    let stats = probe.finish(&rig.disk, avoidance_totals);
    MeasuredRun {
        stats,
        queries: queries.len(),
        answers,
    }
}

/// Runs `queries` as independent single similarity queries (Fig. 1) — the
/// baseline of every figure.
pub fn run_singles(rig: &Rig, queries: &[(Vector, QueryType)]) -> MeasuredRun {
    rig.cold_restart();
    let engine = rig.engine();
    let probe = StatsProbe::start(&rig.disk, rig.metric.counter(), Default::default());
    let answers: Vec<Vec<Answer>> = queries
        .iter()
        .map(|(q, t)| engine.similarity_query(q, t).into_vec())
        .collect();
    let stats = probe.finish(&rig.disk, Default::default());
    MeasuredRun {
        stats,
        queries: queries.len(),
        answers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::BenchEnv;
    use mq_datagen::classification_query_ids;

    #[test]
    fn blocked_and_single_runs_agree_on_answers() {
        let env = BenchEnv::build(500, 0, 3);
        let ids = classification_query_ids(500, 12, 1);
        let queries = env.astro.knn_queries(&ids, 5);
        for rig in env.astro.rigs() {
            let single = run_singles(rig, &queries);
            let blocked = run_blocked(rig, &queries, 6, true);
            assert_eq!(single.answers, blocked.answers, "{:?}", rig.method);
            assert_eq!(blocked.queries, 12);
        }
    }

    #[test]
    fn blocking_reduces_io_on_scan() {
        let env = BenchEnv::build(600, 0, 5);
        let ids = classification_query_ids(600, 10, 2);
        let queries = env.astro.knn_queries(&ids, 5);
        let single = run_singles(&env.astro.scan, &queries);
        let blocked = run_blocked(&env.astro.scan, &queries, 10, true);
        assert!(blocked.stats.io.logical_reads * 9 <= single.stats.io.logical_reads);
    }

    #[test]
    fn avoidance_toggle_changes_cpu_not_answers() {
        let env = BenchEnv::build(400, 0, 7);
        let ids = classification_query_ids(400, 10, 3);
        let queries = env.astro.knn_queries(&ids, 5);
        let with = run_blocked(&env.astro.scan, &queries, 10, true);
        let without = run_blocked(&env.astro.scan, &queries, 10, false);
        assert_eq!(with.answers, without.answers);
        assert!(with.stats.dist_calcs <= without.stats.dist_calcs);
        assert_eq!(without.stats.avoidance.tries, 0);
    }
}
