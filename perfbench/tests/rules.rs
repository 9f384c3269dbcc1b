//! The benchmark's own rules: percentiles, the SLO ladder, self time and
//! failure accounting.

use perfbench::rules::{
    fail_ratio, max_qps_at_slo, median, percentile, self_time, Failures, Rung, SLO_P99_MS,
};

#[test]
fn a_percentile_needs_ten_samples_beyond_it() {
    let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
    // 1000 samples: the p99 (rank 990) has exactly ten above it.
    assert_eq!(percentile(&samples, 0.99), Some(990.0));
    assert_eq!(percentile(&samples[..999], 0.99), None);
    // The median needs 20 samples: rank 10 plus ten beyond.
    assert_eq!(percentile(&samples[..20], 0.5), Some(10.0));
    assert_eq!(percentile(&samples[..19], 0.5), None);
    assert_eq!(percentile(&[], 0.5), None);
}

#[test]
fn percentile_ignores_input_order_and_ranks_failures_last() {
    let mut samples: Vec<f64> = (0..100).rev().map(f64::from).collect();
    samples[3] = f64::INFINITY;
    // 100 samples: p90 is rank 90, the infinite sample sorts last.
    assert_eq!(percentile(&samples, 0.9), Some(89.0));
}

#[test]
fn median_of_runs() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    assert_eq!(median(&[]), None);
}

fn rung(step_qps: f64, achieved_share: f64, p99_ms: Option<f64>, failed: u64) -> Rung {
    Rung {
        step_qps,
        offered_qps: step_qps,
        achieved_qps: step_qps * achieved_share,
        p99_ms,
        attempted: 1000,
        failed,
    }
}

#[test]
fn max_qps_at_slo_takes_the_highest_rung_meeting_every_rule() {
    let table = [
        rung(200.0, 1.0, Some(20.0), 0),
        rung(283.0, 1.0, Some(22.0), 0),
        rung(400.0, 0.99, Some(40.0), 0),
        // Backlog rule: latency within the limit, but the server fell behind.
        rung(566.0, 0.95, Some(60.0), 0),
        rung(800.0, 1.0, Some(SLO_P99_MS + 1.0), 0),
    ];
    assert_eq!(max_qps_at_slo(&table), Some(400.0));
}

#[test]
fn a_rung_with_failures_or_too_few_samples_misses_the_slo() {
    assert!(rung(200.0, 1.0, Some(SLO_P99_MS), 0).meets_slo());
    assert!(!rung(200.0, 1.0, Some(10.0), 1).meets_slo());
    assert!(!rung(200.0, 1.0, None, 0).meets_slo());
    assert!(!rung(200.0, 0.979, Some(10.0), 0).meets_slo());
    assert_eq!(max_qps_at_slo(&[rung(200.0, 1.0, None, 0)]), None);
    // A later rung that meets the SLO again still counts.
    let table = [
        rung(200.0, 1.0, Some(10.0), 0),
        rung(283.0, 1.0, Some(10.0), 2),
        rung(400.0, 1.0, Some(10.0), 0),
    ];
    assert_eq!(max_qps_at_slo(&table), Some(400.0));
}

#[test]
fn self_time_subtracts_the_called_layers() {
    assert_eq!(self_time(10.0, &[3.0, 2.0, 0.5]), 4.5);
    assert_eq!(self_time(10.0, &[]), 10.0);
    // Sampled child timings may overshoot; self time never goes negative.
    assert_eq!(self_time(1.0, &[0.7, 0.4]), 0.0);
}

#[test]
fn fail_ratio_counts_every_kind_of_failure() {
    let refused = Failures {
        refusals: 3,
        ..Default::default()
    };
    assert_eq!(fail_ratio(&refused, 100), 0.03);
    let all = Failures {
        errors: 1,
        timeouts: 2,
        refusals: 3,
        wrong: 4,
    };
    assert_eq!(all.total(), 10);
    assert_eq!(fail_ratio(&all, 50), 0.2);
    assert_eq!(fail_ratio(&Failures::default(), 0), 0.0);
}
