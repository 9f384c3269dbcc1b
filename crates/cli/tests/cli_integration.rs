//! End-to-end tests of the `mq` binary: generate → info → query → batch →
//! dbscan against a real temp file.

use std::path::PathBuf;
use std::process::{Command, Output};

fn mq(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mq"))
        .args(args)
        .output()
        .expect("failed to launch mq binary")
}

fn tmpfile(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("mq-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn generate_info_query_roundtrip() {
    let db = tmpfile("roundtrip.mqdb");
    let db_str = db.to_str().unwrap();

    let gen = mq(&[
        "generate", "--kind", "image", "--n", "800", "--seed", "5", "--out", db_str,
    ]);
    assert!(
        gen.status.success(),
        "generate failed: {}",
        String::from_utf8_lossy(&gen.stderr)
    );
    assert!(stdout(&gen).contains("800 image objects"));

    let info = mq(&["info", db_str]);
    assert!(info.status.success());
    let text = stdout(&info);
    assert!(text.contains("objects     : 800"));
    assert!(text.contains("dimensions  : 64"));

    let answer_lines = |text: &str| -> Vec<String> {
        text.lines()
            .filter(|l| l.contains("  distance "))
            .map(str::to_owned)
            .collect()
    };
    let mut scan_answers = Vec::new();
    for index in ["scan", "xtree", "mtree", "vafile"] {
        let q = mq(&[
            "query", db_str, "--object", "7", "--knn", "4", "--index", index,
        ]);
        assert!(q.status.success(), "query via {index} failed");
        let text = stdout(&q);
        assert!(
            text.contains("O7  distance 0.000000"),
            "{index}: self not first\n{text}"
        );
        assert!(text.contains("page reads"), "{index}: no cost line");
        match index {
            "scan" => scan_answers = answer_lines(&text),
            "vafile" => assert_eq!(answer_lines(&text), scan_answers, "vafile vs scan"),
            _ => {}
        }
    }
    let approx = mq(&[
        "query", db_str, "--object", "7", "--knn", "4", "--index", "vafile", "--approx", "bq:800",
    ]);
    assert!(
        approx.status.success(),
        "vafile + bq failed: {}",
        String::from_utf8_lossy(&approx.stderr)
    );
    std::fs::remove_file(&db).ok();
}

#[test]
fn batch_reports_speedup() {
    let db = tmpfile("batch.mqdb");
    let db_str = db.to_str().unwrap();
    assert!(
        mq(&["generate", "--kind", "tycho", "--n", "1500", "--out", db_str])
            .status
            .success()
    );
    let out = mq(&[
        "batch",
        db_str,
        "--queries",
        "30",
        "--m",
        "15",
        "--knn",
        "5",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    assert!(text.contains("singles"));
    assert!(text.contains("blocks of"));
    assert!(text.contains("speed-up"));
    std::fs::remove_file(&db).ok();
}

#[test]
fn dbscan_runs_in_both_modes() {
    let db = tmpfile("dbscan.mqdb");
    let db_str = db.to_str().unwrap();
    assert!(
        mq(&["generate", "--kind", "image", "--n", "600", "--out", db_str])
            .status
            .success()
    );
    let single = mq(&["dbscan", db_str, "--eps", "0.05", "--min-pts", "4"]);
    assert!(single.status.success());
    let multi = mq(&[
        "dbscan",
        db_str,
        "--eps",
        "0.05",
        "--min-pts",
        "4",
        "--batch",
        "32",
    ]);
    assert!(multi.status.success());
    // Same clustering summary line regardless of mode.
    let line = |o: &Output| {
        stdout(o)
            .lines()
            .find(|l| l.contains("clusters:"))
            .unwrap()
            .trim()
            .to_string()
    };
    assert_eq!(line(&single), line(&multi));
    std::fs::remove_file(&db).ok();
}

#[test]
fn helpful_errors() {
    let no_cmd = mq(&["frobnicate"]);
    assert!(!no_cmd.status.success());
    assert!(String::from_utf8_lossy(&no_cmd.stderr).contains("unknown command"));

    let missing = mq(&["info", "/nonexistent/nope.mqdb"]);
    assert!(!missing.status.success());

    let bad_opt = mq(&["generate", "--n"]);
    assert!(!bad_opt.status.success());
    assert!(String::from_utf8_lossy(&bad_opt.stderr).contains("missing value"));

    let help = mq(&["help"]);
    assert!(help.status.success());
    assert!(stdout(&help).contains("USAGE"));

    // Zero-valued sizes and rates are refused with a one-line error and
    // exit code 1, never a panic (exit code 101).
    let db = tmpfile("errors.mqdb");
    let db_str = db.to_str().unwrap();
    assert!(
        mq(&["generate", "--kind", "tycho", "--n", "200", "--out", db_str])
            .status
            .success()
    );
    for (args, key) in [
        (vec!["serve", db_str, "--max-batch", "0"], "--max-batch"),
        (vec!["batch", db_str, "--m", "0", "--knn", "3"], "--m"),
        (
            vec![
                "loadgen",
                "--mode",
                "closed",
                "--sessions",
                "0",
                "--knn",
                "3",
            ],
            "--sessions",
        ),
        (
            vec!["loadgen", "--mode", "open", "--rate", "0", "--knn", "3"],
            "--rate",
        ),
    ] {
        let out = mq(&args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(
            err.contains(&format!("{key} must be positive")),
            "{args:?}: {err}"
        );
        assert_eq!(err.trim_end().lines().count(), 1, "{args:?}: {err}");
    }

    // An unknown index name is refused before the server binds.
    let bogus = mq(&["serve", db_str, "--index", "bogus", "--addr", "127.0.0.1:0"]);
    let err = String::from_utf8_lossy(&bogus.stderr);
    assert_eq!(bogus.status.code(), Some(1), "{err}");
    assert!(err.contains("unknown --index 'bogus'"), "{err}");
    assert_eq!(err.trim_end().lines().count(), 1, "{err}");
    assert!(!stdout(&bogus).contains("listening"), "{}", stdout(&bogus));

    // The approximate tier accepts bq only.
    let hnsw = mq(&[
        "query", db_str, "--object", "1", "--knn", "3", "--approx", "hnsw:64",
    ]);
    assert_eq!(hnsw.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&hnsw.stderr).contains("unknown approx tier 'hnsw'"),
        "{}",
        String::from_utf8_lossy(&hnsw.stderr)
    );
    std::fs::remove_file(&db).ok();
}
