//! What every workload shares: arguments, the result record, seeded
//! sampling, the answer oracle and the environment record.

use mq_core::{Answer, ExecutionStats};
use std::fmt::Write as _;
use std::time::Instant;

/// Each workload sets itself up at least this often; `setup_s` is the median.
pub const SETUP_REPS: usize = 7;
/// Set-ups repeat until they took this long in total (or hit the cap).
pub const SETUP_BUDGET_S: f64 = 1.5;
/// Upper bound on set-up repetitions.
pub const SETUP_MAX_REPS: usize = 200;
/// Seed of every workload's database. The database stays fixed so that
/// runs with different `--seed`s measure the same data; the seed drives
/// the queries, the arrival schedules and the oracle samples.
pub const DATA_SEED: u64 = 20_000;

/// Command-line arguments of one run.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every input derives from.
    pub seed: u64,
    /// Seconds the run measures.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Tiny inputs, for the benchmark's own tests.
    pub smoke: bool,
}

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1 [--smoke]`.
    pub fn parse(mut argv: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
            smoke: false,
        };
        while let Some(flag) = argv.next() {
            if flag == "--smoke" {
                args.smoke = true;
                continue;
            }
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => args.workload = value,
                "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
                "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"expected 0 or 1")),
                    }
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        if args.seconds.is_nan() || args.seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        Ok(args)
    }
}

/// The result of one run: the record the last output line carries, plus
/// human-readable lines and the environment/traffic record.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every oracle check passed.
    pub correct: bool,
    /// Operations attempted in the measured region.
    pub attempted: u64,
    /// Operations that failed (errors, timeouts, refusals, wrong answers).
    pub failed: u64,
    /// `(name, value, unit)` of every reported metric.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Extra lines for the human-readable summary.
    pub notes: Vec<String>,
    /// `(key, JSON value)` pairs of the environment and traffic record.
    pub record: Vec<(String, String)>,
}

impl Outcome {
    /// Adds one metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Adds one entry to the environment/traffic record.
    pub fn record(&mut self, key: &str, json_value: impl Into<String>) {
        self.record.push((key.to_string(), json_value.into()));
    }

    /// The final output line.
    pub fn result_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*value)
            );
        }
        out.push_str("}}");
        out
    }

    /// The environment/traffic record as one JSON object.
    pub fn record_line(&self) -> String {
        let body: Vec<String> = self
            .record
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A finite number in JSON form, every digit kept (non-finite → 0).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// A JSON list of numbers.
pub fn json_list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| json_num(*v)).collect();
    format!("[{}]", items.join(", "))
}

/// A JSON string literal (the record holds only plain ASCII text).
pub fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// splitmix64: a small seeded generator for sampling inputs.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for stream `stream` of `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform index below `n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `k` distinct indices below `n`, in random order.
    pub fn distinct(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot draw {k} distinct values below {n}");
        let mut all: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + self.below(n - i);
            all.swap(i, j);
        }
        all.truncate(k);
        all
    }
}

/// Whether two distances agree to within a few ulps (relative 1e-9, as
/// the repository's core bench compares kernels).
pub fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= a.abs().max(b.abs()) * 1e-9
}

/// Checks a ranked answer list against a reference ranking of the same
/// query: same length, the same distance at every rank, and the same id
/// wherever the distance is not tied with a neighbouring rank (ties may
/// legitimately order differently).
pub fn same_ranking(got: &[Answer], want: &[Answer]) -> bool {
    if got.len() != want.len() {
        return false;
    }
    let tied = |i: usize| {
        (i > 0 && close(want[i - 1].distance, want[i].distance))
            || (i + 1 < want.len() && close(want[i + 1].distance, want[i].distance))
    };
    got.iter()
        .zip(want)
        .enumerate()
        .all(|(i, (g, w))| close(g.distance, w.distance) && (g.id == w.id || tied(i)))
}

/// Execution statistics without the wall-clock field, for bit-identity
/// checks between a traced and an untraced run.
pub fn counters(stats: ExecutionStats) -> ExecutionStats {
    ExecutionStats {
        elapsed: Default::default(),
        ..stats
    }
}

/// Times at least [`SETUP_REPS`] set-ups, and more until they took
/// [`SETUP_BUDGET_S`] in total; returns the median seconds and the last
/// value built.
pub fn timed_setup<T>(mut build: impl FnMut() -> T) -> (f64, T) {
    let mut secs: Vec<f64> = Vec::new();
    let mut last = None;
    while secs.len() < SETUP_REPS
        || (secs.iter().sum::<f64>() < SETUP_BUDGET_S && secs.len() < SETUP_MAX_REPS)
    {
        // Drop the previous build first so each set-up starts from the
        // same heap state.
        drop(last.take());
        let start = Instant::now();
        last = Some(std::hint::black_box(build()));
        secs.push(start.elapsed().as_secs_f64());
    }
    let median = crate::rules::median(&secs).expect("at least one set-up");
    (median, last.expect("at least one set-up"))
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 when the
/// platform does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU features relevant to the distance kernels.
pub fn cpu_features() -> Vec<&'static str> {
    #[allow(unused_mut)]
    let mut out = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        for (name, on) in [
            ("sse2", std::arch::is_x86_feature_detected!("sse2")),
            ("sse4.1", std::arch::is_x86_feature_detected!("sse4.1")),
            ("avx", std::arch::is_x86_feature_detected!("avx")),
            ("avx2", std::arch::is_x86_feature_detected!("avx2")),
            ("fma", std::arch::is_x86_feature_detected!("fma")),
            ("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
        ] {
            if on {
                out.push(name);
            }
        }
    }
    #[cfg(target_arch = "aarch64")]
    out.push("neon");
    out
}

/// Records the environment every result carries.
pub fn record_environment(outcome: &mut Outcome, args: &Args) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let features: Vec<String> = cpu_features().iter().map(|f| json_str(f)).collect();
    outcome.record("workload", json_str(&args.workload));
    outcome.record("seed", args.seed.to_string());
    outcome.record("seconds", json_num(args.seconds));
    outcome.record("trace", (args.trace as u8).to_string());
    outcome.record("smoke", args.smoke.to_string());
    outcome.record("nproc", nproc.to_string());
    outcome.record("simd", json_str(mq_metric::kernel::active().name()));
    outcome.record("cpu_features", format!("[{}]", features.join(", ")));
}

/// Whether two sets of answer lists are identical, distances compared
/// bit for bit.
pub fn same_bits(a: &[Vec<Answer>], b: &[Vec<Answer>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|(p, q)| p.id == q.id && p.distance.to_bits() == q.distance.to_bits())
        })
}
