//! # perfbench — the mquery benchmark
//!
//! One command runs one of three workloads from a seed, checks its
//! answers against an oracle and prints every metric by name with its
//! unit; the last output line is a JSON record. `--trace 1` runs the
//! same workload through timing wrappers around the traits each layer is
//! called through and reports per-layer metrics instead. See `README.md`.

pub mod common;
pub mod dbscan;
pub mod knn;
pub mod layers;
pub mod rules;
pub mod serve;
pub mod trace;

use common::{Args, Outcome};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["knn-batch", "dbscan-sessions", "serve-open"];

/// Runs the workload `args` names, or says why it cannot.
pub fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "knn-batch" => Ok(knn::run(args)),
        "dbscan-sessions" => Ok(dbscan::run(args)),
        "serve-open" => Ok(serve::run(args)),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {}",
            WORKLOADS.join(", ")
        )),
    }
}
