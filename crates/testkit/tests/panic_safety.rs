//! Panic-safety regression tests: a panic inside page evaluation (a
//! metric blowing up mid-batch) must not leak buffer pins or poison the
//! engine — the next batch must run normally and match the oracle.
//!
//! Historical bug: `multiple_query_step` unpinned the demand page and
//! dropped prefetch pins *after* page evaluation, so a panicking metric
//! (or worker-pool task) skipped both and leaked pins until the buffer
//! was fully pinned and every eviction overflowed. The step now holds
//! RAII guards; these tests pin the contract.

use mq_core::{EngineOptions, LeaderPolicy, QueryEngine, QueryType};
use mq_datagen::uniform_vectors;
use mq_index::LinearScan;
use mq_metric::{Euclidean, Metric, Vector};
use mq_storage::{Dataset, PageLayout, PagedDatabase, SimulatedDisk};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Delegates to Euclidean until the fuse burns down to zero, then panics
/// on that distance call. `u64::MAX` disarms it.
#[derive(Clone)]
struct BombMetric {
    fuse: Arc<AtomicU64>,
}

impl Metric<Vector> for BombMetric {
    fn distance(&self, a: &Vector, b: &Vector) -> f64 {
        let left = self.fuse.load(Ordering::SeqCst);
        if left != u64::MAX {
            if left == 0 {
                panic!("bomb metric detonated");
            }
            self.fuse.fetch_sub(1, Ordering::SeqCst);
        }
        Euclidean.distance(a, b)
    }

    fn name(&self) -> &str {
        "bomb(euclidean)"
    }
}

fn build_db() -> PagedDatabase<Vector> {
    let ds = Dataset::new(uniform_vectors(240, 4, 55));
    PagedDatabase::pack(&ds, PageLayout::new(256, 16))
}

fn queries() -> Vec<(Vector, QueryType)> {
    uniform_vectors(240, 4, 55)
        .into_iter()
        .step_by(31)
        .take(6)
        .map(|v| (v, QueryType::knn(4)))
        .collect()
}

#[test]
fn panicking_metric_leaks_no_pins_and_engine_recovers() {
    for threads in [1usize, 2] {
        for depth in [0usize, 2] {
            let options = EngineOptions {
                threads,
                prefetch_depth: depth,
                leader: LeaderPolicy::Fifo,
                ..EngineOptions::default()
            };
            let db = build_db();
            let scan = LinearScan::new(db.page_count());
            let disk = SimulatedDisk::with_buffer_pages(db, 4);
            let fuse = Arc::new(AtomicU64::new(u64::MAX));
            let engine = QueryEngine::new(
                &disk,
                &scan,
                BombMetric {
                    fuse: Arc::clone(&fuse),
                },
            )
            .with_options(options);

            // Oracle on an identical fresh setup with a plain metric.
            let oracle_db = build_db();
            let oracle_scan = LinearScan::new(oracle_db.page_count());
            let oracle_disk = SimulatedDisk::with_buffer_pages(oracle_db, 4);
            let oracle_engine =
                QueryEngine::new(&oracle_disk, &oracle_scan, Euclidean).with_options(options);
            let mut oracle_session = oracle_engine.new_session(queries());
            oracle_engine.run_to_completion(&mut oracle_session);
            let oracle_answers = oracle_session.into_answers();

            // Detonate mid-evaluation: the session is built (admission
            // computes the query-distance matrix), then the fuse arms so
            // a page evaluation inside step() panics.
            let mut session = engine.new_session(queries());
            fuse.store(40, Ordering::SeqCst);
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                engine.try_run_to_completion(&mut session)
            }));
            assert!(
                result.is_err(),
                "threads {threads}, depth {depth}: the bomb must go off"
            );
            assert_eq!(
                disk.pinned_pages(),
                0,
                "threads {threads}, depth {depth}: a panicking step leaked buffer pins"
            );

            // Disarm; a fresh session on the SAME engine and disk must
            // complete and match the oracle exactly.
            fuse.store(u64::MAX, Ordering::SeqCst);
            let mut session = engine.new_session(queries());
            engine
                .try_run_to_completion(&mut session)
                .expect("engine must be reusable after a panic");
            assert_eq!(
                disk.pinned_pages(),
                0,
                "threads {threads}, depth {depth}: pins must balance after a clean run"
            );
            assert_eq!(
                session.into_answers(),
                oracle_answers,
                "threads {threads}, depth {depth}: post-panic answers diverged"
            );
        }
    }
}

#[test]
fn repeated_detonations_never_exhaust_the_buffer() {
    // The historical leak only hurt after *several* panics (each leaked
    // one demand pin plus the prefetch window); detonate repeatedly and
    // verify pins stay balanced throughout.
    let db = build_db();
    let scan = LinearScan::new(db.page_count());
    let disk = SimulatedDisk::with_buffer_pages(db, 4);
    let fuse = Arc::new(AtomicU64::new(u64::MAX));
    let engine = QueryEngine::new(
        &disk,
        &scan,
        BombMetric {
            fuse: Arc::clone(&fuse),
        },
    )
    .with_options(EngineOptions {
        threads: 2,
        prefetch_depth: 2,
        ..EngineOptions::default()
    });
    for round in 0..6 {
        // Admission (the query-distance matrix) must not detonate; only
        // page evaluation inside step() should.
        fuse.store(u64::MAX, Ordering::SeqCst);
        let mut session = engine.new_session(queries());
        fuse.store(25 + round, Ordering::SeqCst);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.try_run_to_completion(&mut session)
        }));
        assert_eq!(disk.pinned_pages(), 0, "round {round} leaked pins");
    }
    fuse.store(u64::MAX, Ordering::SeqCst);
    let mut session = engine.new_session(queries());
    engine
        .try_run_to_completion(&mut session)
        .expect("buffer must still have unpinned frames to evict");
}
