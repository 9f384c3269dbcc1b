//! The benchmark's arithmetic: percentiles, the SLO ladder rule, self
//! time and failure accounting. Pure functions, so the tests pin them
//! without running a workload.

/// Samples that must lie beyond a reported percentile.
pub const TAIL_SAMPLES: usize = 10;

/// The `p`-th percentile (`0 < p < 1`) of `samples` by nearest rank, or
/// `None` when fewer than [`TAIL_SAMPLES`] samples lie beyond it — a
/// percentile resting on fewer is noise, not a tail.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!(
        p > 0.0 && p < 1.0,
        "percentile must lie strictly inside (0, 1)"
    );
    let n = samples.len();
    // Nearest rank: the smallest value with at least p·n samples at or below it.
    let rank = ((p * n as f64).ceil() as usize).max(1);
    if n < rank + TAIL_SAMPLES {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The median of `values` (mean of the middle two for an even count);
/// `None` when empty. Unlike [`percentile`] this summarizes repeated
/// whole-run measurements, so it asks for no tail samples.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// The p99 latency limit of the serving SLO, milliseconds.
pub const SLO_P99_MS: f64 = 100.0;
/// Achieved rate a rung must reach, as a share of its offered rate; below
/// it the server fell behind and its backlog grew.
pub const SLO_ACHIEVED_SHARE: f64 = 0.98;

/// One rung of the open-loop rate ladder, as the load client saw it.
#[derive(Clone, Debug, PartialEq)]
pub struct Rung {
    /// The ladder step: the nominal rate the plan was drawn at.
    pub step_qps: f64,
    /// Offered arrival rate the plan realized, requests per second.
    pub offered_qps: f64,
    /// Replies received per second between the first and the last reply.
    pub achieved_qps: f64,
    /// Latency p99 in milliseconds, `None` when the rung had too few samples.
    pub p99_ms: Option<f64>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed in any way (see [`Failures`]).
    pub failed: u64,
}

impl Rung {
    /// Whether the rung meets the SLO: a p99 resting on enough samples
    /// within [`SLO_P99_MS`], no failure, and no growing backlog.
    pub fn meets_slo(&self) -> bool {
        self.failed == 0
            && self.p99_ms.is_some_and(|p99| p99 <= SLO_P99_MS)
            && self.achieved_qps >= SLO_ACHIEVED_SHARE * self.offered_qps
    }
}

/// `max_qps_at_slo`: the highest ladder step among the rungs that meet
/// the SLO, or `None` when none does.
pub fn max_qps_at_slo(rungs: &[Rung]) -> Option<f64> {
    rungs
        .iter()
        .filter(|r| r.meets_slo())
        .map(|r| r.step_qps)
        .max_by(f64::total_cmp)
}

/// Everything that counts against `fail_ratio`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Failures {
    /// Typed `Error` replies, broken connections and undecodable frames.
    pub errors: u64,
    /// Requests with no reply before the client gave up.
    pub timeouts: u64,
    /// Typed `Overloaded` replies (admission control refusals).
    pub refusals: u64,
    /// Replies that disagree with the oracle.
    pub wrong: u64,
}

impl Failures {
    /// Total failed requests.
    pub fn total(&self) -> u64 {
        self.errors + self.timeouts + self.refusals + self.wrong
    }
}

impl std::ops::AddAssign for Failures {
    fn add_assign(&mut self, other: Failures) {
        self.errors += other.errors;
        self.timeouts += other.timeouts;
        self.refusals += other.refusals;
        self.wrong += other.wrong;
    }
}

/// Failed requests divided by attempted ones (0 when nothing was attempted).
pub fn fail_ratio(failures: &Failures, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failures.total() as f64 / attempted as f64
    }
}

/// A layer's self time: its busy time minus the time of the layers it
/// called, never below zero (sampled child timings may overshoot a little).
pub fn self_time(busy_s: f64, children_s: &[f64]) -> f64 {
    (busy_s - children_s.iter().sum::<f64>()).max(0.0)
}

/// `numerator / denominator`, or 0 when the denominator is 0 — ratios of
/// counters that a workload does not exercise read as 0.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}
