//! Runs every workload in smoke mode, untraced and traced, and checks the
//! output contract: the last line is the result record, it reports
//! exactly the metrics `BENCHMARK.json` lists, and every oracle passed.

use std::path::Path;
use std::process::Command;

/// The `name`s listed in one section of `BENCHMARK.json`.
fn names_in(section: &str) -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("section {section} in BENCHMARK.json"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}

/// The metric names of a result line, in order.
fn metric_names(line: &str) -> Vec<String> {
    let parts: Vec<&str> = line.split(": {\"value\": ").collect();
    // Every part but the last ends with the quoted name of the next metric.
    parts[..parts.len() - 1]
        .iter()
        .filter_map(|s| s.rsplit_once('"'))
        .filter_map(|(head, _)| head.rsplit_once('"').map(|(_, name)| name.to_string()))
        .collect()
}

fn run(workload: &str, trace: u8) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "0.5"])
        .args(["--trace", &trace.to_string(), "--smoke"])
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().unwrap_or_default().to_string();
    (out.status.success(), last)
}

fn check(workload: &str) {
    for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
        let (ok, last) = run(workload, trace);
        assert!(ok, "{workload} --trace {trace} failed: {last}");
        assert!(
            last.starts_with("{\"correct\": true, \"attempted\": "),
            "{workload} --trace {trace}: {last}"
        );
        assert!(last.contains("\"failed\": 0, "), "{workload}: {last}");
        assert_eq!(
            metric_names(&last),
            names_in(section),
            "{workload} --trace {trace} reports other metrics than BENCHMARK.json"
        );
    }
}

#[test]
fn knn_batch_smoke() {
    check("knn-batch");
}

#[test]
fn dbscan_sessions_smoke() {
    check("dbscan-sessions");
}

#[test]
fn serve_open_smoke() {
    check("serve-open");
}

#[test]
fn workloads_match_benchmark_json() {
    assert_eq!(names_in("workloads"), perfbench::WORKLOADS);
}

#[test]
fn an_unknown_workload_fails_without_a_result() {
    let (ok, last) = run("no-such-workload", 0);
    assert!(!ok);
    assert!(!last.starts_with('{'));
}
