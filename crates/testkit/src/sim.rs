//! The [`Sim`] runner: one seed-determined workload, an optional fault
//! plan, and a fault-free oracle to compare against.
//!
//! A `Sim` owns nothing but numbers; every [`run`](Sim::run) rebuilds the
//! dataset, disk and engine from the seed, so runs are independent and a
//! faulty run and its oracle see byte-identical inputs.

use mq_core::{
    Answer, AvoidanceStats, CandidatePrescreen, EngineOptions, FaultPolicy, LeaderPolicy,
    QueryEngine, QueryType,
};
use mq_datagen::sessions::{web_sessions, SessionConfig};
use mq_index::LinearScan;
use mq_metric::{EditDistance, ObjectId, Symbols};
use mq_storage::{
    Dataset, FaultPlan, FaultStats, IoStats, PageLayout, PageStore, PagedDatabase, SimulatedDisk,
    SymbolsCodec,
};
use mq_store::{FilePageStore, SEGMENT_FILE};
use std::path::Path;

/// Stored session objects in every simulated workload.
const OBJECTS: usize = 160;
/// Queries in every simulated batch.
const QUERIES: usize = 8;

/// The full configuration matrix the acceptance criteria quantify over:
/// threads {1, 2, 4} × prefetch depths {0, 2} × both leader schedulers,
/// every other option at its default.
pub fn config_matrix() -> Vec<EngineOptions> {
    let mut configs = Vec::new();
    for &threads in &[1usize, 2, 4] {
        for &prefetch_depth in &[0usize, 2] {
            for &leader in &[LeaderPolicy::Fifo, LeaderPolicy::NearestChain] {
                configs.push(EngineOptions {
                    threads,
                    prefetch_depth,
                    leader,
                    ..EngineOptions::default()
                });
            }
        }
    }
    configs
}

/// The outcome of one simulated run.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// The seed that determined workload and faults — print this to
    /// reproduce the run exactly.
    pub seed: u64,
    /// Per-query answers. Complete when `gave_up` is `None`; otherwise
    /// the buffered partial answers the failed session preserved
    /// (Definition 4's incremental contract).
    pub answers: Vec<Vec<Answer>>,
    /// Which queries completed before the run ended.
    pub completed: Vec<bool>,
    /// §5.2 avoidance counters of the run.
    pub avoidance: AvoidanceStats,
    /// Disk counters of the run (fault-free attempts only).
    pub io: IoStats,
    /// Injected-fault counters of the run.
    pub fault_stats: FaultStats,
    /// `Some(error)` when the engine surfaced a fault past its retry
    /// budget; the session's partial state is still in `answers`.
    pub gave_up: Option<String>,
}

/// A deterministic lossy prescreen for the testkit's symbol workload: it
/// admits the `budget` stored sessions whose *length* is closest to the
/// query's (ties broken by id). `|len(q) − len(s)|` lower-bounds unit-cost
/// edit distance, so this is a genuine metric prescreen — cheap,
/// query-dependent, and lossy once `budget < N` — driving the engine's
/// candidate-restriction machinery exactly as the vector tiers in
/// `mq-approx` do, but over the edit-distance workload the fault plans
/// target.
pub struct LengthBudgetPrescreen {
    lengths: Vec<(ObjectId, usize)>,
    budget: usize,
}

impl LengthBudgetPrescreen {
    /// Builds the prescreen over every live record of `db`.
    pub fn new(db: &PagedDatabase<Symbols>, budget: usize) -> Self {
        let mut lengths: Vec<(ObjectId, usize)> = db
            .page_ids()
            .flat_map(|pid| db.page(pid).records().iter().map(|(id, s)| (*id, s.len())))
            .collect();
        lengths.sort_unstable_by_key(|&(id, _)| id);
        Self { lengths, budget }
    }
}

impl CandidatePrescreen<Symbols> for LengthBudgetPrescreen {
    fn candidates(&self, query: &Symbols) -> Vec<ObjectId> {
        let target = query.len();
        let mut ranked: Vec<(usize, ObjectId)> = self
            .lengths
            .iter()
            .map(|&(id, len)| (len.abs_diff(target), id))
            .collect();
        ranked.sort_unstable();
        ranked.truncate(self.budget);
        ranked.into_iter().map(|(_, id)| id).collect()
    }

    fn name(&self) -> &str {
        "len-budget"
    }
}

/// A deterministic simulation: seed-derived workload, optional fault
/// plan, optional approximate candidate tier. The engine's options —
/// including its retry budget ([`EngineOptions::fault_policy`]) — are
/// passed to each run.
#[derive(Clone, Copy, Debug)]
pub struct Sim {
    seed: u64,
    plan: Option<FaultPlan>,
    prescreen_budget: Option<usize>,
}

impl Sim {
    /// A simulation of `seed` (160 sessions, 8 queries) with no faults.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            plan: None,
            prescreen_budget: None,
        }
    }

    /// Installs a fault plan (see [`crate::scenario`] for presets).
    pub fn with_plan(mut self, plan: FaultPlan) -> Self {
        self.plan = Some(plan);
        self
    }

    /// Attaches the approximate candidate tier: a
    /// [`LengthBudgetPrescreen`] admitting `budget` candidates per query.
    /// The oracle of a prescreened sim carries the same prescreen, so
    /// [`assert_oracle_equivalence`](Self::assert_oracle_equivalence)
    /// checks that fault injection and the tier compose: a faulty
    /// prescreened run that succeeds is bit-identical to the fault-free
    /// prescreened run. A budget of `usize::MAX` (or ≥ the object count)
    /// admits everything and must be bit-identical to no tier at all.
    pub fn with_prescreen_budget(mut self, budget: usize) -> Self {
        self.prescreen_budget = Some(budget);
        self
    }

    /// The seed of this simulation.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The seed-derived workload: the stored sessions and a mixed
    /// k-NN/range query batch drawn from them.
    pub fn workload(&self) -> (Vec<Symbols>, Vec<(Symbols, QueryType)>) {
        let (sessions, _trails) = web_sessions(OBJECTS, SessionConfig::default(), self.seed);
        let queries = sessions
            .iter()
            .step_by(OBJECTS / QUERIES)
            .take(QUERIES)
            .enumerate()
            .map(|(i, s)| {
                // Alternate query types so every run exercises both the
                // adapting k-NN distance and the fixed range predicate.
                let qtype = if i % 2 == 0 {
                    QueryType::knn(5)
                } else {
                    QueryType::range(6.0)
                };
                (s.clone(), qtype)
            })
            .collect();
        (sessions, queries)
    }

    /// The seed-derived stored database, paged exactly as every run pages
    /// it.
    pub fn database(&self) -> PagedDatabase<Symbols> {
        let (sessions, _) = self.workload();
        PagedDatabase::pack(&Dataset::new(sessions), PageLayout::new(256, 8))
    }

    /// Runs the simulation with engine `options` on the in-memory
    /// backend, faults included.
    pub fn run(&self, options: EngineOptions) -> SimReport {
        let disk = SimulatedDisk::with_buffer_pages(self.database(), 4);
        self.run_on(options, &disk)
    }

    /// [`run`](Self::run) against the durable file backend: a
    /// [`FilePageStore`] in `dir`, created from the workload on first use
    /// and recovered from segment + WAL afterwards. The report must be
    /// bit-identical to the in-memory backend's
    /// ([`assert_backend_equivalence`](Self::assert_backend_equivalence)).
    pub fn run_file(&self, options: EngineOptions, dir: &Path) -> SimReport {
        self.run_on(options, &self.open_or_create_store(dir))
    }

    /// Opens the durable store in `dir`, creating it from the workload
    /// database when no segment exists yet. The buffer holds 4 pages,
    /// like the in-memory backend's.
    pub fn open_or_create_store(&self, dir: &Path) -> FilePageStore<Symbols, SymbolsCodec> {
        if dir.join(SEGMENT_FILE).exists() {
            FilePageStore::open(dir, SymbolsCodec, 4).expect("reopen durable store")
        } else {
            FilePageStore::create(dir, self.database(), SymbolsCodec, 4)
                .expect("create durable store")
        }
    }

    /// Runs the workload's query batch against an already-built backend.
    fn run_on(&self, options: EngineOptions, disk: &dyn PageStore<Symbols>) -> SimReport {
        let (_, queries) = self.workload();
        let scan = LinearScan::new(disk.database().page_count());
        let prescreen = self
            .prescreen_budget
            .map(|budget| LengthBudgetPrescreen::new(disk.database(), budget));
        disk.set_fault_plan(self.plan);
        let mut engine = QueryEngine::new(disk, &scan, EditDistance).with_options(options);
        if let Some(prescreen) = &prescreen {
            engine = engine.with_prescreen(prescreen);
        }
        let mut session = engine.new_session(queries);
        let gave_up = engine
            .try_run_to_completion(&mut session)
            .err()
            .map(|e| e.to_string());
        let completed = (0..session.query_count())
            .map(|i| session.is_complete(i))
            .collect();
        let avoidance = session.avoidance_stats();
        SimReport {
            seed: self.seed,
            completed,
            avoidance,
            io: disk.stats(),
            fault_stats: disk.fault_stats(),
            gave_up,
            answers: session.into_answers(),
        }
    }

    /// Runs the fault-free oracle of this simulation with `options`.
    pub fn oracle(&self, options: EngineOptions) -> SimReport {
        Sim {
            plan: None,
            ..*self
        }
        .run(options)
    }

    /// Asserts the testkit's central invariant over the whole
    /// [`config_matrix`], each configuration running with `fault_policy`:
    /// whenever the faulty run succeeds, its answers
    /// and avoidance counters are bit-identical to the oracle's. Without
    /// prefetch the full I/O counters must match too (failed attempts
    /// leave no trace); with prefetch only `logical_reads` is required to
    /// match, because an absorbed prefetch fault legitimately turns a
    /// prefetched hit into a demand read.
    ///
    /// Panics name the seed and configuration, which reproduce the run.
    pub fn assert_oracle_equivalence(&self, fault_policy: FaultPolicy) {
        for config in config_matrix() {
            let config = EngineOptions {
                fault_policy,
                ..config
            };
            let run = self.run(config);
            let oracle = self.oracle(config);
            assert!(
                oracle.gave_up.is_none(),
                "seed {}: oracle must never fail, got {:?}",
                self.seed,
                oracle.gave_up
            );
            if let Some(reason) = &run.gave_up {
                // The policy reported failure — that is a legitimate
                // outcome; equivalence is only promised on success.
                assert!(
                    run.fault_stats.total_failures() > 0,
                    "seed {}, {config:?}: gave up ({reason}) without any injected fault",
                    self.seed
                );
                continue;
            }
            assert_eq!(
                run.answers, oracle.answers,
                "seed {}, {config:?}: answers diverged from the oracle",
                self.seed
            );
            assert_eq!(
                run.avoidance, oracle.avoidance,
                "seed {}, {config:?}: avoidance counters diverged from the oracle",
                self.seed
            );
            assert_eq!(
                run.io.logical_reads, oracle.io.logical_reads,
                "seed {}, {config:?}: logical reads diverged from the oracle",
                self.seed
            );
            if config.prefetch_depth == 0 {
                assert_eq!(
                    run.io, oracle.io,
                    "seed {}, {config:?}: I/O counters diverged without prefetch",
                    self.seed
                );
            }
        }
    }

    /// Asserts the durable backend's half of the central invariant over
    /// the whole [`config_matrix`], each configuration running with
    /// `fault_policy`: the file-backed store in `dir` must
    /// produce a **fully** bit-identical [`SimReport`] — answers,
    /// avoidance counters, every I/O counter, every fault counter — for
    /// every configuration, faults included. (Unlike faulty-vs-oracle
    /// comparisons, the two backends see the same fault plan, so nothing
    /// is exempted.)
    pub fn assert_backend_equivalence(&self, dir: &Path, fault_policy: FaultPolicy) {
        for config in config_matrix() {
            let config = EngineOptions {
                fault_policy,
                ..config
            };
            let mem = self.run(config);
            let file = self.run_file(config, dir);
            assert_eq!(
                mem.answers, file.answers,
                "seed {}, {config:?}: file-backend answers diverged",
                self.seed
            );
            assert_eq!(
                mem.completed, file.completed,
                "seed {}, {config:?}: file-backend completion flags diverged",
                self.seed
            );
            assert_eq!(
                mem.avoidance, file.avoidance,
                "seed {}, {config:?}: file-backend avoidance counters diverged",
                self.seed
            );
            assert_eq!(
                mem.io, file.io,
                "seed {}, {config:?}: file-backend I/O counters diverged",
                self.seed
            );
            assert_eq!(
                mem.fault_stats, file.fault_stats,
                "seed {}, {config:?}: file-backend fault counters diverged",
                self.seed
            );
            assert_eq!(
                mem.gave_up, file.gave_up,
                "seed {}, {config:?}: file-backend failure outcome diverged",
                self.seed
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_deterministic_and_seed_sensitive() {
        let (a_obj, a_q) = Sim::new(3).workload();
        let (b_obj, b_q) = Sim::new(3).workload();
        assert_eq!(a_obj, b_obj);
        assert_eq!(a_q.len(), b_q.len());
        let (c_obj, _) = Sim::new(4).workload();
        assert_ne!(a_obj, c_obj);
    }

    #[test]
    fn matrix_covers_threads_depths_and_leaders() {
        let m = config_matrix();
        assert_eq!(m.len(), 12);
        assert!(m.iter().any(|c| c.threads == 4
            && c.prefetch_depth == 2
            && c.leader == LeaderPolicy::NearestChain));
        assert!(m
            .iter()
            .any(|c| c.threads == 1 && c.prefetch_depth == 0 && c.leader == LeaderPolicy::Fifo));
    }

    #[test]
    fn fault_free_run_completes_every_query() {
        let report = Sim::new(11).run(EngineOptions::default());
        assert!(report.gave_up.is_none());
        assert!(report.completed.iter().all(|&c| c));
        assert_eq!(report.answers.len(), 8);
        assert_eq!(report.fault_stats, FaultStats::default());
    }
}
