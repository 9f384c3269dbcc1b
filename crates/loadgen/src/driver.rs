//! The run loop: replays a [`RequestPlan`] against a live server and
//! measures what a client actually experiences.
//!
//! Latency is recorded per request from monotonic timestamps
//! ([`std::time::Instant`]) into an HDR-style log-bucketed `mq-obs`
//! [`Histogram`] (constant relative error per bucket from 10 µs to
//! 60 s). Open-loop latency is measured from the request's *intended*
//! start, not from when a sender thread got around to it — queueing
//! delay under overload is part of the answer, never silently dropped
//! (the coordinated-omission trap).
//!
//! Before and after the run, the driver scrapes the server's metrics
//! endpoint; the delta over the run window (batches flushed, mean batch
//! size, queue-wait quantiles) lands in the [`RunReport`] next to the
//! client-side numbers.

use crate::plan::{Mode, RequestPlan};
use crate::report::{AnswerSet, RunReport, ServerWindow, StepReport};
use mq_obs::{log_bounds, Histogram, Snapshot};
use mq_server::{ClientError, ProtocolError, RetryConfig, RetryingClient};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Knobs of one run that are not part of the workload itself.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Sender threads in open-loop mode (closed-loop spawns one thread
    /// per session instead). Bounds the in-flight requests; if all
    /// senders are busy past an arrival's due time, the wait shows up as
    /// measured latency.
    pub connections: usize,
    /// Per-attempt connect timeout.
    pub connect_timeout: Duration,
    /// Per-reply read timeout (`None` blocks forever).
    pub read_timeout: Option<Duration>,
    /// Transport retries per request before it counts as an error.
    pub max_retries: u32,
    /// Record every request's answers (id + distance bits) for oracle
    /// comparison — memory-heavy, test-suite use only.
    pub capture_answers: bool,
    /// Target collection; empty = the server's default collection.
    pub collection: String,
    /// Tenant the requests are attributed to for quota accounting;
    /// empty = the anonymous tenant.
    pub tenant: String,
}

impl Default for RunOptions {
    fn default() -> Self {
        Self {
            connections: 8,
            connect_timeout: Duration::from_secs(2),
            read_timeout: Some(Duration::from_secs(10)),
            max_retries: 3,
            capture_answers: false,
            collection: String::new(),
            tenant: String::new(),
        }
    }
}

/// Per-ramp-step measurement slice.
struct StepMeasure {
    latency: Histogram,
    ok: AtomicU64,
    rejected: AtomicU64,
    failed: AtomicU64,
}

impl StepMeasure {
    fn new() -> Self {
        Self {
            latency: Histogram::new(&log_bounds(1e-5, 60.0, 20)),
            ok: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            failed: AtomicU64::new(0),
        }
    }
}

/// Shared measurement state all sender threads write into.
struct Measure {
    latency: Histogram,
    ok: AtomicU64,
    errors: AtomicU64,
    timeouts: AtomicU64,
    /// Requests the server refused with a typed `Overloaded` reply —
    /// backpressure working as designed, counted apart from transport
    /// errors and excluded from the latency distribution.
    rejected: AtomicU64,
    /// Max observed latency in f64 bits (CAS loop; latencies are
    /// non-negative so the bit pattern ordering matches the value
    /// ordering).
    max_bits: AtomicU64,
    answers: Option<Mutex<crate::report::CapturedAnswers>>,
    /// One slice per ramp segment (ramp mode only).
    steps: Vec<StepMeasure>,
}

impl Measure {
    fn new(n: usize, capture: bool, ramp_steps: usize) -> Self {
        Self {
            // 10 µs .. 60 s at 20 buckets per decade: relative error per
            // bucket ~12%, 136-ish buckets — the HDR-style layout.
            latency: Histogram::new(&log_bounds(1e-5, 60.0, 20)),
            ok: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            max_bits: AtomicU64::new(0),
            answers: capture.then(|| Mutex::new(vec![None; n])),
            steps: (0..ramp_steps).map(|_| StepMeasure::new()).collect(),
        }
    }

    fn record(
        &self,
        index: usize,
        step: Option<usize>,
        outcome: Result<AnswerSet, ClientError>,
        latency: f64,
    ) {
        let step = step.and_then(|s| self.steps.get(s));
        match outcome {
            Ok(answers) => {
                self.ok.fetch_add(1, Ordering::Relaxed);
                self.latency.observe(latency);
                if let Some(s) = step {
                    s.ok.fetch_add(1, Ordering::Relaxed);
                    s.latency.observe(latency);
                }
                let mut seen = self.max_bits.load(Ordering::Relaxed);
                let bits = latency.max(0.0).to_bits();
                while bits > seen {
                    match self.max_bits.compare_exchange_weak(
                        seen,
                        bits,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => break,
                        Err(now) => seen = now,
                    }
                }
                if let Some(slot) = &self.answers {
                    slot.lock().expect("answers lock")[index] = Some(answers);
                }
            }
            Err(ClientError::Overloaded { .. }) => {
                self.rejected.fetch_add(1, Ordering::Relaxed);
                if let Some(s) = step {
                    s.rejected.fetch_add(1, Ordering::Relaxed);
                }
            }
            Err(e) => {
                if is_timeout(&e) {
                    self.timeouts.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.errors.fetch_add(1, Ordering::Relaxed);
                }
                if let Some(s) = step {
                    s.failed.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
}

fn is_timeout(e: &ClientError) -> bool {
    matches!(
        e,
        ClientError::Protocol(ProtocolError::Io(io))
            if io.kind() == std::io::ErrorKind::TimedOut
                || io.kind() == std::io::ErrorKind::WouldBlock
    )
}

fn retry_config(opts: &RunOptions, plan_seed: u64, stream: u64) -> RetryConfig {
    RetryConfig {
        max_retries: opts.max_retries,
        connect_timeout: opts.connect_timeout,
        read_timeout: opts.read_timeout,
        jitter_seed: plan_seed ^ (0xB0B0 + stream),
        ..RetryConfig::default()
    }
}

/// Replays `plan` against the server at `addr` and reports what the
/// clients measured plus the server-side window delta.
pub fn run(plan: &RequestPlan, addr: &str, opts: &RunOptions) -> RunReport {
    let before = scrape(addr, opts);
    let segments = plan.ramp_segments();
    let measure = Measure::new(
        plan.requests.len(),
        opts.capture_answers,
        segments.as_ref().map(|s| s.len()).unwrap_or(0),
    );
    let retries = AtomicU64::new(0);

    let start = Instant::now();
    match plan.mode {
        // Ramp pacing lives entirely in the plan's arrival offsets, so
        // the open-loop sender drives both.
        Mode::Open { .. } | Mode::Ramp { .. } => {
            run_open(plan, addr, opts, &measure, &retries, start)
        }
        Mode::Closed { think, .. } => run_closed(plan, addr, opts, &measure, &retries, think),
    }
    let wall = start.elapsed().as_secs_f64().max(1e-9);

    let after = scrape(addr, opts);
    let ok = measure.ok.load(Ordering::Relaxed);
    let offered_qps = match plan.mode {
        Mode::Open { offered_qps } => Some(offered_qps),
        Mode::Closed { .. } | Mode::Ramp { .. } => None,
    };

    // Per-step windows and the saturation knee: the first step where the
    // server rejected work or delivered under 90% of its budget.
    let steps: Option<Vec<StepReport>> = segments.map(|segs| {
        segs.iter()
            .zip(&measure.steps)
            .map(|(seg, m)| StepReport {
                offered_qps: seg.rate_qps,
                requests: seg.len,
                ok: m.ok.load(Ordering::Relaxed),
                rejected: m.rejected.load(Ordering::Relaxed),
                failed: m.failed.load(Ordering::Relaxed),
                p99: m.latency.quantile(0.99).unwrap_or(0.0),
            })
            .collect()
    });
    let knee_qps = steps.as_ref().and_then(|steps| {
        steps
            .iter()
            .find(|s| s.rejected > 0 || (s.ok as f64) < 0.9 * s.requests as f64)
            .map(|s| s.offered_qps)
    });

    let q = |p: f64| measure.latency.quantile(p).unwrap_or(0.0);
    let count = measure.latency.count();
    RunReport {
        mode: match plan.mode {
            Mode::Open { .. } => "open",
            Mode::Closed { .. } => "closed",
            Mode::Ramp { .. } => "ramp",
        },
        requests: plan.requests.len(),
        ok,
        errors: measure.errors.load(Ordering::Relaxed),
        timeouts: measure.timeouts.load(Ordering::Relaxed),
        rejected: measure.rejected.load(Ordering::Relaxed),
        retries: retries.load(Ordering::Relaxed),
        wall_secs: wall,
        offered_qps,
        achieved_qps: ok as f64 / wall,
        p50: q(0.50),
        p95: q(0.95),
        p99: q(0.99),
        p999: q(0.999),
        mean_latency: if count == 0 {
            0.0
        } else {
            measure.latency.sum() / count as f64
        },
        max_latency: f64::from_bits(measure.max_bits.load(Ordering::Relaxed)),
        fingerprint: plan.fingerprint(),
        steps,
        knee_qps,
        server: ServerWindow::from_scrapes(before.as_ref(), after.as_ref()),
        answers: measure
            .answers
            .map(|m| m.into_inner().expect("answers lock")),
    }
}

/// Open loop: workers pull the next request index, sleep until its due
/// time, and measure from the due time.
fn run_open(
    plan: &RequestPlan,
    addr: &str,
    opts: &RunOptions,
    measure: &Measure,
    retries: &AtomicU64,
    start: Instant,
) {
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for w in 0..opts.connections.max(1) {
            let next = &next;
            scope.spawn(move || {
                let mut client = RetryingClient::new(addr, retry_config(opts, plan.seed, w as u64));
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(request) = plan.requests.get(i) else {
                        break;
                    };
                    let due = start + request.offset;
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let outcome = client
                        .query_in(
                            &opts.collection,
                            &opts.tenant,
                            plan.query(request),
                            &request.qtype,
                        )
                        .map(|reply| {
                            reply
                                .answers
                                .iter()
                                .map(|a| (a.id.0, a.distance.to_bits()))
                                .collect()
                        });
                    // Latency from the *intended* start: sender-side
                    // queueing under overload is measured, not omitted.
                    let latency = due.elapsed().as_secs_f64();
                    measure.record(
                        request.index,
                        plan.ramp_step_of(request.index),
                        outcome,
                        latency,
                    );
                }
                retries.fetch_add(client.retries_performed(), Ordering::Relaxed);
            });
        }
    });
}

/// Closed loop: one thread per session, each pacing itself with think
/// time between reply and next request.
fn run_closed(
    plan: &RequestPlan,
    addr: &str,
    opts: &RunOptions,
    measure: &Measure,
    retries: &AtomicU64,
    think: Duration,
) {
    std::thread::scope(|scope| {
        for s in 0..plan.sessions() {
            scope.spawn(move || {
                let mut client =
                    RetryingClient::new(addr, retry_config(opts, plan.seed, 1000 + s as u64));
                let mut first = true;
                for request in plan.requests.iter().filter(|r| r.session == s) {
                    if !first && !think.is_zero() {
                        std::thread::sleep(think);
                    }
                    first = false;
                    let t0 = Instant::now();
                    let outcome = client
                        .query_in(
                            &opts.collection,
                            &opts.tenant,
                            plan.query(request),
                            &request.qtype,
                        )
                        .map(|reply| {
                            reply
                                .answers
                                .iter()
                                .map(|a| (a.id.0, a.distance.to_bits()))
                                .collect()
                        });
                    let latency = t0.elapsed().as_secs_f64();
                    measure.record(request.index, None, outcome, latency);
                }
                retries.fetch_add(client.retries_performed(), Ordering::Relaxed);
            });
        }
    });
}

/// One metrics scrape, parsed; `None` when the server has no recorder
/// (empty exposition) or the scrape fails.
fn scrape(addr: &str, opts: &RunOptions) -> Option<Snapshot> {
    let mut client = RetryingClient::new(addr, retry_config(opts, 0, 0x5C4A));
    let text = client.metrics().ok()?;
    let snapshot = Snapshot::from_exposition(&text).ok()?;
    (!snapshot.is_empty()).then_some(snapshot)
}
