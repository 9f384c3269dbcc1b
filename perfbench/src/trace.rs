//! Timing wrappers for the traced run.
//!
//! Each wrapper implements one of the public traits a layer is called
//! through — [`Metric`], [`PageStore`], [`SimilarityIndex`] with its
//! [`PagePlan`], and [`QueryBackend`] — and forwards every method to the
//! wrapped value, so the program runs exactly as it would without it.
//! Around the calls that do a layer's work the wrapper counts and times;
//! nothing inside the program changes.
//!
//! Timing every call of a 20-d distance would cost more than the
//! distance, so per-pair calls are timed on a deterministic sample (every
//! [`PAIR_SAMPLE`]-th call) and the sampled time is scaled by the call
//! count. Calls that carry a whole page of work are timed every time.
//! Every timed interval has the timer's own cost, calibrated once per
//! process, taken off.

use mq_core::{Answer, ExecutionStats, QueryType};
use mq_index::{PagePlan, SimilarityIndex};
use mq_metric::{Metric, Vector};
use mq_obs::Recorder;
use mq_server::QueryBackend;
use mq_storage::{
    DiskError, FaultPlan, FaultStats, IoStats, Page, PageId, PageStore, PagedDatabase,
    StorageObject,
};
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// One in this many per-pair distance calls is timed.
pub const PAIR_SAMPLE: u64 = 16;

/// What an empty timed interval reads, in nanoseconds: the median of
/// many back-to-back `Instant` pairs, measured on first use.
pub fn timer_ns() -> u64 {
    static CALIBRATED: OnceLock<u64> = OnceLock::new();
    *CALIBRATED.get_or_init(|| {
        let mut reads: Vec<u64> = (0..10_001)
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(());
                start.elapsed().as_nanos() as u64
            })
            .collect();
        reads.sort_unstable();
        reads[reads.len() / 2]
    })
}

/// Call counter and (sampled) busy time of one kind of call.
#[derive(Debug, Default)]
pub struct Clock {
    calls: AtomicU64,
    timed: AtomicU64,
    ns: AtomicU64,
}

impl Clock {
    /// Runs `f`, counting the call and timing it when its sequence number
    /// is a multiple of `every`.
    #[inline]
    pub fn run<R>(&self, every: u64, f: impl FnOnce() -> R) -> R {
        let i = self.calls.fetch_add(1, Relaxed);
        if !i.is_multiple_of(every) {
            return f();
        }
        let overhead = timer_ns();
        let start = Instant::now();
        let out = f();
        let ns = (start.elapsed().as_nanos() as u64).saturating_sub(overhead);
        self.ns.fetch_add(ns, Relaxed);
        self.timed.fetch_add(1, Relaxed);
        out
    }

    /// Calls made.
    pub fn calls(&self) -> u64 {
        self.calls.load(Relaxed)
    }

    /// Estimated busy seconds: sampled time scaled to every call.
    pub fn busy_s(&self) -> f64 {
        let timed = self.timed.load(Relaxed);
        if timed == 0 {
            return 0.0;
        }
        self.ns.load(Relaxed) as f64 * 1e-9 * self.calls() as f64 / timed as f64
    }
}

/// Counters of the distance layer (`mq-metric`).
#[derive(Debug, Default)]
pub struct MetricClock {
    /// `distance` and `distance_le` calls (one pair each, sampled).
    pub pair: Clock,
    /// `distance_batch` calls (timed every time).
    pub batch: Clock,
    /// Pairs evaluated by `distance_batch`.
    pub batch_pairs: AtomicU64,
}

impl MetricClock {
    /// Distance evaluations of every kind.
    pub fn pairs(&self) -> u64 {
        self.pair.calls() + self.batch_pairs.load(Relaxed)
    }

    /// Estimated seconds spent computing distances.
    pub fn busy_s(&self) -> f64 {
        self.pair.busy_s() + self.batch.busy_s()
    }
}

/// A [`Metric`] that times the wrapped metric.
pub struct TimedMetric<M> {
    inner: M,
    clock: Arc<MetricClock>,
}

impl<M> TimedMetric<M> {
    /// Wraps `inner`, reporting into `clock`.
    pub fn new(inner: M, clock: Arc<MetricClock>) -> Self {
        Self { inner, clock }
    }
}

impl<O: ?Sized, M: Metric<O>> Metric<O> for TimedMetric<M> {
    fn distance(&self, a: &O, b: &O) -> f64 {
        self.clock
            .pair
            .run(PAIR_SAMPLE, || self.inner.distance(a, b))
    }

    fn distance_batch(&self, query: &O, objects: &[&O], out: &mut [f64]) {
        self.clock
            .batch_pairs
            .fetch_add(objects.len() as u64, Relaxed);
        self.clock
            .batch
            .run(1, || self.inner.distance_batch(query, objects, out))
    }

    fn distance_le(&self, a: &O, b: &O, bound: f64) -> Option<f64> {
        self.clock
            .pair
            .run(PAIR_SAMPLE, || self.inner.distance_le(a, b, bound))
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn supports_triangle_avoidance(&self) -> bool {
        self.inner.supports_triangle_avoidance()
    }

    fn nonnegative(&self) -> bool {
        self.inner.nonnegative()
    }
}

/// Counters of the page-store layer (`mq-storage`).
#[derive(Debug, Default)]
pub struct StoreClock {
    /// Demand reads (`try_read_page`, `try_read_page_pinned`).
    pub reads: Clock,
    /// Prefetch staging calls.
    pub prefetches: Clock,
}

impl StoreClock {
    /// Seconds spent in page reads and prefetches.
    pub fn busy_s(&self) -> f64 {
        self.reads.busy_s() + self.prefetches.busy_s()
    }
}

/// A [`PageStore`] that times the reads of the store `S` points to
/// (`&SimulatedDisk` in-process, `Box<SimulatedDisk>` behind a server).
#[derive(Debug)]
pub struct TimedStore<S> {
    inner: S,
    clock: Arc<StoreClock>,
}

impl<S> TimedStore<S> {
    /// Wraps `inner`, reporting into `clock`.
    pub fn new(inner: S, clock: Arc<StoreClock>) -> Self {
        Self { inner, clock }
    }
}

impl<O, S> PageStore<O> for TimedStore<S>
where
    O: StorageObject,
    S: Deref + Send + Sync + std::fmt::Debug,
    S::Target: PageStore<O>,
{
    fn database(&self) -> &PagedDatabase<O> {
        self.inner.database()
    }

    fn try_read_page(&self, id: PageId) -> Result<&Page<O>, DiskError> {
        self.clock.reads.run(1, || self.inner.try_read_page(id))
    }

    fn try_read_page_pinned(&self, id: PageId) -> Result<&Page<O>, DiskError> {
        self.clock
            .reads
            .run(1, || self.inner.try_read_page_pinned(id))
    }

    fn try_prefetch(&self, id: PageId) -> Result<(), DiskError> {
        self.clock.prefetches.run(1, || self.inner.try_prefetch(id))
    }

    fn unpin_page(&self, id: PageId) {
        self.inner.unpin_page(id)
    }

    fn drop_prefetch_pins(&self) {
        self.inner.drop_prefetch_pins()
    }

    fn stats(&self) -> IoStats {
        self.inner.stats()
    }

    fn reset_stats(&self) {
        self.inner.reset_stats()
    }

    fn cold_restart(&self) {
        self.inner.cold_restart()
    }

    fn attach_recorder(&self, recorder: &Recorder) {
        self.inner.attach_recorder(recorder)
    }

    fn set_fault_plan(&self, plan: Option<FaultPlan>) {
        self.inner.set_fault_plan(plan)
    }

    fn fault_plan(&self) -> Option<FaultPlan> {
        self.inner.fault_plan()
    }

    fn fault_stats(&self) -> FaultStats {
        self.inner.fault_stats()
    }

    fn is_killed(&self) -> bool {
        self.inner.is_killed()
    }

    fn buffer_capacity(&self) -> usize {
        self.inner.buffer_capacity()
    }

    fn buffer_len(&self) -> usize {
        self.inner.buffer_len()
    }

    fn pinned_pages(&self) -> usize {
        self.inner.pinned_pages()
    }

    fn checksum(&self, id: PageId) -> u64 {
        self.inner.checksum(id)
    }

    fn read_page(&self, id: PageId) -> &Page<O> {
        self.clock.reads.run(1, || self.inner.read_page(id))
    }

    fn read_page_pinned(&self, id: PageId) -> &Page<O> {
        self.clock.reads.run(1, || self.inner.read_page_pinned(id))
    }

    fn prefetch(&self, id: PageId) {
        self.clock.prefetches.run(1, || self.inner.prefetch(id))
    }
}

/// Counters of the access-method layer (`mq-index`).
#[derive(Debug, Default)]
pub struct IndexClock {
    /// `plan` calls (one per query object).
    pub plans: Clock,
    /// `PagePlan::next` calls.
    pub next: Clock,
    /// Pages the plans yielded.
    pub pages_yielded: AtomicU64,
    /// `page_mindist` calls (sampled: they are cheap bound checks).
    pub mindist: Clock,
}

impl IndexClock {
    /// Seconds spent planning, traversing and bounding pages.
    pub fn busy_s(&self) -> f64 {
        self.plans.busy_s() + self.next.busy_s() + self.mindist.busy_s()
    }
}

/// A [`SimilarityIndex`] that times the wrapped index and its plans.
pub struct TimedIndex<I> {
    inner: I,
    clock: Arc<IndexClock>,
}

impl<I> TimedIndex<I> {
    /// Wraps `inner`, reporting into `clock`.
    pub fn new(inner: I, clock: Arc<IndexClock>) -> Self {
        Self { inner, clock }
    }
}

impl<O, I: SimilarityIndex<O>> SimilarityIndex<O> for TimedIndex<I> {
    fn plan<'a>(&'a self, query: &'a O) -> Box<dyn PagePlan + 'a> {
        let inner = self.clock.plans.run(1, || self.inner.plan(query));
        Box::new(TimedPlan {
            inner,
            clock: &self.clock,
        })
    }

    fn page_mindist(&self, query: &O, page: PageId) -> f64 {
        self.clock
            .mindist
            .run(PAIR_SAMPLE, || self.inner.page_mindist(query, page))
    }

    fn page_count(&self) -> usize {
        self.inner.page_count()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// The [`PagePlan`] handed out by [`TimedIndex`].
struct TimedPlan<'a> {
    inner: Box<dyn PagePlan + 'a>,
    clock: &'a IndexClock,
}

impl PagePlan for TimedPlan<'_> {
    fn next(&mut self, query_dist: f64) -> Option<(PageId, f64)> {
        let out = self.clock.next.run(1, || self.inner.next(query_dist));
        if out.is_some() {
            self.clock.pages_yielded.fetch_add(1, Relaxed);
        }
        out
    }
}

/// One executed batch as the backend wrapper saw it.
#[derive(Clone, Copy, Debug)]
pub struct BatchRecord {
    /// Queries in the batch.
    pub size: usize,
    /// Execute wall time, seconds.
    pub secs: f64,
    /// When the batch finished.
    pub end: Instant,
    /// The batch's execution statistics, as the backend returned them.
    pub stats: ExecutionStats,
}

/// Counters of the serving backend (`mq-server`'s `QueryBackend`).
#[derive(Debug, Default)]
pub struct BackendClock {
    batches: Mutex<Vec<BatchRecord>>,
}

impl BackendClock {
    /// Takes every batch recorded since the last call.
    pub fn take(&self) -> Vec<BatchRecord> {
        std::mem::take(&mut *self.batches.lock().expect("backend clock poisoned"))
    }
}

/// A [`QueryBackend`] that times every batch the scheduler executes.
pub struct TimedBackend {
    inner: Box<dyn QueryBackend>,
    clock: Arc<BackendClock>,
}

impl TimedBackend {
    /// Wraps `inner`, reporting into `clock`.
    pub fn new(inner: Box<dyn QueryBackend>, clock: Arc<BackendClock>) -> Self {
        Self { inner, clock }
    }
}

impl QueryBackend for TimedBackend {
    fn execute(&self, queries: Vec<(Vector, QueryType)>) -> (Vec<Vec<Answer>>, ExecutionStats) {
        let size = queries.len();
        let start = Instant::now();
        let out = self.inner.execute(queries);
        let end = Instant::now();
        self.clock
            .batches
            .lock()
            .expect("backend clock poisoned")
            .push(BatchRecord {
                size,
                secs: (end - start).as_secs_f64(),
                end,
                stats: out.1,
            });
        out
    }

    fn dimensions(&self) -> usize {
        self.inner.dimensions()
    }

    fn object_count(&self) -> u64 {
        self.inner.object_count()
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }
}
