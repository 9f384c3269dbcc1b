//! Micro-benchmark of the multiple-query page-evaluation hot path:
//! scalar pairwise fallback vs. blocked batch kernels vs. kernels plus
//! intra-batch parallel page evaluation.
//!
//! Setup follows the Fig. 7/8 image workload: 64-d histogram data packed
//! with the paper's page layout, m = 16 k-NN queries (k = 20) answered as
//! one batch over a linear scan, avoidance enabled. Three configurations
//! run the identical batch:
//!
//! * `scalar`   — [`NaiveEuclidean`] (per-pair assert, sequential sum, no
//!   `distance_batch`/`distance_le` overrides), 1 thread: the pre-kernel
//!   engine.
//! * `kernel`   — [`Euclidean`]'s blocked kernels, 1 thread.
//! * `parallel` — blocked kernels + 2 and 4 page-evaluation threads from
//!   the engine's persistent worker pool, with pipelined page prefetch
//!   (depth 2).
//!
//! All configurations produce bit-identical answers (enforced here,
//! property-tested in `mq-core`), so the comparison is pure throughput.
//! Results go to `BENCH_core.json` in the current directory, together
//! with the host's core count — thread-scaling numbers from a 1-core
//! container measure scheduling overhead, not parallelism, so read the
//! `cores` field before comparing rows.
//!
//! Flags/env: `--smoke` shrinks the database and repetitions for CI;
//! `--assert-speedup` exits non-zero when the parallel rows regress
//! against the single-thread kernel row — and refuses to run at all on a
//! 1-core host, where extra threads can only take turns on the one core
//! and any threshold would measure scheduling noise (run without the flag
//! there; the JSON records `cores` so readers can judge); `MQ_BENCH_N`
//! overrides the object count; `MQ_SEED` the seed.

use mq_bench::baseline::NaiveEuclidean;
use mq_bench::setup::{env_u64, env_usize};
use mq_core::{Answer, EngineOptions, QueryEngine, QueryType};
use mq_datagen::image_histograms;
use mq_index::LinearScan;
use mq_metric::{kernel, Euclidean, Metric, SimdLevel, Vector};
use mq_storage::{Dataset, PageLayout, PagedDatabase, SimulatedDisk};
use std::time::Instant;

const M: usize = 16;
const K: usize = 20;

/// Euclidean pinned to one dispatch tier, so the microbench can put the
/// scalar blocked kernels and the host's SIMD kernels side by side in one
/// process regardless of what `MQ_SIMD` selected globally.
struct ForcedL2(SimdLevel);

impl Metric<Vector> for ForcedL2 {
    fn distance(&self, a: &Vector, b: &Vector) -> f64 {
        kernel::l2_sq_at(self.0, a.components(), b.components()).sqrt()
    }

    fn name(&self) -> &str {
        "forced-l2"
    }
}

struct Measurement {
    name: &'static str,
    threads: usize,
    secs: f64,
    answers: Vec<Vec<Answer>>,
    pairs: u64,
}

/// Times the full m-query batch with the given metric and thread count,
/// returning the best of `reps` cold-buffer repetitions.
fn measure<M2: Metric<Vector> + Sync>(
    name: &'static str,
    dataset: &Dataset<Vector>,
    queries: &[(Vector, QueryType)],
    metric: M2,
    threads: usize,
    prefetch_depth: usize,
    reps: usize,
) -> Measurement {
    let db = PagedDatabase::pack(dataset, PageLayout::PAPER);
    let index = LinearScan::new(db.page_count());
    let disk = SimulatedDisk::new(db, 0.10);
    // One engine for all reps: its persistent worker pool is created once
    // and reused, exactly like a long-lived server backend.
    let engine = QueryEngine::new(&disk, &index, metric).with_options(EngineOptions {
        threads,
        prefetch_depth,
        ..EngineOptions::default()
    });
    let mut best = f64::INFINITY;
    let mut answers = Vec::new();
    let mut pairs = 0;
    for _ in 0..reps {
        disk.cold_restart();
        let start = Instant::now();
        let mut session = engine.new_session(queries.to_vec());
        engine.run_to_completion(&mut session);
        let secs = start.elapsed().as_secs_f64();
        best = best.min(secs);
        pairs = session.avoidance_stats().computed;
        answers = session.into_answers();
    }
    Measurement {
        name,
        threads,
        secs: best,
        answers,
        pairs,
    }
}

/// Bit-exact agreement: same kernels, different thread count.
fn assert_identical(base: &Measurement, other: &Measurement) {
    assert_eq!(base.answers.len(), other.answers.len());
    for (a, b) in base.answers.iter().zip(&other.answers) {
        assert_eq!(a.len(), b.len(), "{}: answer count", other.name);
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.id, y.id, "{}: answer id", other.name);
            assert_eq!(
                x.distance.to_bits(),
                y.distance.to_bits(),
                "{}: answer bits",
                other.name
            );
        }
    }
    assert_eq!(base.pairs, other.pairs, "{}: pairs evaluated", other.name);
}

/// Ulp-tolerant agreement: the naive baseline accumulates in a different
/// order than the blocked kernels, so distances (and with them the odd
/// avoidance verdict) may differ in the last bits.
fn assert_close(base: &Measurement, other: &Measurement) {
    assert_eq!(base.answers.len(), other.answers.len());
    for (a, b) in base.answers.iter().zip(&other.answers) {
        assert_eq!(a.len(), b.len(), "{}: answer count", other.name);
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.id, y.id, "{}: answer id", other.name);
            assert!(
                (x.distance - y.distance).abs() <= x.distance.abs() * 1e-9,
                "{}: answer distance drifted",
                other.name
            );
        }
    }
    let drift = base.pairs.abs_diff(other.pairs) as f64 / base.pairs as f64;
    assert!(drift < 0.01, "{}: pairs drifted {drift}", other.name);
}

/// Raw batched-kernel throughput: evaluates every page-sized batch of the
/// database against one query through `distance_batch`, with either the
/// blocked kernels (`Euclidean`) or the pairwise trait fallback
/// (`NaiveEuclidean`). This isolates the kernel itself from engine
/// bookkeeping (avoidance, answer lists, I/O accounting).
fn measure_kernel<M2: Metric<Vector>>(
    objects: &[Vector],
    query: &Vector,
    metric: M2,
    reps: usize,
) -> (f64, u64) {
    let batch_size = PageLayout::PAPER
        .capacity_for(objects[0].payload_bytes())
        .max(1);
    let mut out = vec![0.0f64; batch_size];
    let mut best = f64::INFINITY;
    let mut pairs = 0u64;
    let mut checksum = 0.0f64;
    for _ in 0..reps {
        pairs = 0;
        let start = Instant::now();
        for chunk in objects.chunks(batch_size) {
            let refs: Vec<&Vector> = chunk.iter().collect();
            let slots = &mut out[..refs.len()];
            metric.distance_batch(query, &refs, slots);
            checksum += slots[0];
            pairs += refs.len() as u64;
        }
        best = best.min(start.elapsed().as_secs_f64());
    }
    assert!(checksum.is_finite());
    (best, pairs)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let assert_speedup = std::env::args().any(|a| a == "--assert-speedup");
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    if assert_speedup && cores == 1 {
        eprintln!(
            "error: --assert-speedup requires a multi-core host; this container has 1 core, \
             where extra engine threads can only take turns on the existing core and a \
             tolerance would assert scheduling noise. Run without --assert-speedup to still \
             produce BENCH_core.json (it records cores={cores} for readers)."
        );
        std::process::exit(2);
    }
    let n = env_usize("MQ_BENCH_N", if smoke { 2_000 } else { 15_000 });
    let seed = env_u64("MQ_SEED", 20000203);
    let reps = if smoke { 2 } else { 5 };

    let objects = image_histograms(n, seed);
    let dim = objects[0].dim();
    let queries: Vec<(Vector, QueryType)> = (0..M)
        .map(|i| (objects[i * n / M].clone(), QueryType::knn(K)))
        .collect();
    let dataset = Dataset::new(objects);

    println!("bench_core: {n} objects, {dim}-d, m={M} knn({K}), {reps} reps, {cores} cores");

    let simd_level = kernel::active();
    let cpu_features = kernel::cpu_features();
    println!(
        "  simd dispatch: {} (host: {cpu_features})",
        simd_level.name()
    );

    // Raw kernel throughput first: page-sized distance_batch calls, no
    // engine bookkeeping. Three tiers: the pairwise naive loop, the
    // blocked scalar kernels, and the host's SIMD kernels (identical to
    // the scalar tier when dispatch resolved to `scalar`).
    let kernel_reps = reps * 2;
    let (naive_secs, kernel_pairs) = measure_kernel(
        dataset.objects(),
        &queries[0].0,
        NaiveEuclidean,
        kernel_reps,
    );
    let (blocked_secs, _) = measure_kernel(
        dataset.objects(),
        &queries[0].0,
        ForcedL2(SimdLevel::Scalar),
        kernel_reps,
    );
    let (simd_secs, _) = measure_kernel(
        dataset.objects(),
        &queries[0].0,
        ForcedL2(simd_level),
        kernel_reps,
    );
    let kernel_speedup = naive_secs / blocked_secs;
    let simd_speedup = naive_secs / simd_secs;
    println!(
        "  distance_batch kernel: naive {:.2e} pairs/s, blocked {:.2e} pairs/s ({kernel_speedup:.2}x), \
         {} {:.2e} pairs/s ({simd_speedup:.2}x)",
        kernel_pairs as f64 / naive_secs,
        kernel_pairs as f64 / blocked_secs,
        simd_level.name(),
        kernel_pairs as f64 / simd_secs,
    );

    let scalar = measure("scalar", &dataset, &queries, NaiveEuclidean, 1, 0, reps);
    let kernel = measure("kernel", &dataset, &queries, Euclidean, 1, 0, reps);
    let parallel2 = measure("parallel", &dataset, &queries, Euclidean, 2, 2, reps);
    let parallel4 = measure("parallel", &dataset, &queries, Euclidean, 4, 2, reps);

    // Same kernels, different thread count / prefetch depth: bit for bit.
    // Naive baseline: same answers up to accumulation-order ulps.
    assert_identical(&kernel, &parallel2);
    assert_identical(&kernel, &parallel4);
    assert_close(&kernel, &scalar);

    let rows = [&scalar, &kernel, &parallel2, &parallel4];
    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"page_eval_multiple_query\",\n");
    json.push_str(&format!(
        "  \"config\": {{ \"db\": \"image-histograms\", \"objects\": {n}, \"dim\": {dim}, \
         \"m\": {M}, \"k\": {K}, \"index\": \"scan\", \"page_layout\": \"PAPER\", \
         \"seed\": {seed}, \"reps\": {reps}, \"smoke\": {smoke}, \"cores\": {cores}, \
         \"simd_dispatch\": \"{}\", \"cpu_features\": \"{cpu_features}\" }},\n",
        simd_level.name(),
    ));
    json.push_str(&format!("  \"pairs_evaluated\": {},\n", scalar.pairs));
    json.push_str(&format!(
        "  \"kernel_microbench\": {{ \"pairs\": {kernel_pairs}, \
         \"naive_pairs_per_sec\": {:.1}, \"blocked_pairs_per_sec\": {:.1}, \
         \"speedup\": {kernel_speedup:.3}, \"simd_level\": \"{}\", \
         \"simd_pairs_per_sec\": {:.1}, \"simd_speedup\": {simd_speedup:.3} }},\n",
        kernel_pairs as f64 / naive_secs,
        kernel_pairs as f64 / blocked_secs,
        simd_level.name(),
        kernel_pairs as f64 / simd_secs,
    ));
    json.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let speedup = scalar.secs / r.secs;
        // More engine threads than cores measures time-slicing, not
        // parallelism: the row is kept (it still proves bit-identity) but
        // flagged, and the speedup assertions below ignore it.
        let oversubscribed = r.threads > cores;
        println!(
            "  {:<8} threads={} : {:.4} s  ({:.2e} pairs/s, {speedup:.2}x vs scalar){}",
            r.name,
            r.threads,
            r.secs,
            r.pairs as f64 / r.secs,
            if oversubscribed {
                "  [oversubscribed: threads > cores]"
            } else {
                ""
            },
        );
        json.push_str(&format!(
            "    {{ \"name\": \"{}\", \"threads\": {}, \"secs\": {:.6}, \
             \"pairs_per_sec\": {:.1}, \"speedup_vs_scalar\": {:.3}, \
             \"oversubscribed\": {oversubscribed} }}{}\n",
            r.name,
            r.threads,
            r.secs,
            r.pairs as f64 / r.secs,
            speedup,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");

    std::fs::write("BENCH_core.json", &json).expect("write BENCH_core.json");
    println!("wrote BENCH_core.json");
    let best_parallel = parallel2.secs.min(parallel4.secs);
    // Thread counts beyond the core count measure time-slicing overhead,
    // not speedup; only rows that fit the host may carry the assertions.
    let best_eligible = [&parallel2, &parallel4]
        .iter()
        .filter(|r| r.threads <= cores)
        .map(|r| r.secs)
        .fold(f64::INFINITY, f64::min);
    let best_engine = scalar.secs / kernel.secs.min(best_parallel);
    if !smoke && kernel_speedup.max(best_engine) < 1.5 {
        eprintln!("warning: best speedup {kernel_speedup:.2}x below the 1.5x target");
    }

    if assert_speedup {
        // The blocked kernels must beat the naive scalar loop everywhere
        // (5% noise allowance — it is the same single thread).
        assert!(
            kernel.secs <= scalar.secs * 1.05,
            "kernel row regressed below scalar: {:.4}s vs {:.4}s",
            kernel.secs,
            scalar.secs,
        );
        // cores >= 2 (the 1-core case refused up front), so the 2-thread
        // row is always eligible and pipelined parallel evaluation must
        // beat the single-thread kernel row outright. Oversubscribed rows
        // (threads > cores) are excluded — on this host they can only
        // take turns on the existing cores.
        assert!(
            best_eligible.is_finite(),
            "no parallel row fits a {cores}-core host"
        );
        assert!(
            best_eligible <= kernel.secs,
            "parallel rows regressed below the single-thread kernel on a \
             {cores}-core host: {best_eligible:.4}s vs {:.4}s",
            kernel.secs,
        );
        println!(
            "speedup assertion passed: parallel {best_eligible:.4}s <= kernel {:.4}s on {cores} cores",
            kernel.secs,
        );
    }
}
