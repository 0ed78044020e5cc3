//! The benchmark's own statistics: the tail-percentile rule, the
//! geometric mean, the log-log slope fit, and the SLO ladder with its
//! backlog-growth detection.

use perfbench::stats::{
    backlog_growing, beyond, geomean, judge_rung, ladder, loglog_slope, median, percentile,
    slo_rate, tail, tail_percentile, Rung, MIN_BEYOND,
};

#[test]
fn median_of_odd_and_even_samples() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[]), 0.0);
}

#[test]
fn tail_rule_keeps_ten_samples_beyond() {
    // 200 samples: p95 leaves exactly 10 beyond, p97.5 only 5.
    assert_eq!(beyond(200, 95.0), 10);
    assert_eq!(tail_percentile(200, 99.9), Some(95.0));
    // 1000 samples: p99 leaves 10 beyond.
    assert_eq!(tail_percentile(1000, 99.9), Some(99.0));
    // 199 samples: p95 leaves 9, so the rule falls back to p90.
    assert_eq!(beyond(199, 95.0), 9);
    assert_eq!(tail_percentile(199, 99.9), Some(90.0));
    // The cap holds the reported percentile down even with many samples.
    assert_eq!(tail_percentile(100_000, 95.0), Some(95.0));
    // Too few samples for even the median.
    assert_eq!(tail_percentile(15, 99.9), None);
    for n in [20, 57, 200, 333, 1000, 4096] {
        let p = tail_percentile(n, 99.9).expect("n >= 20 has a tail");
        assert!(beyond(n, p) >= MIN_BEYOND, "n={n} p={p}");
    }
}

#[test]
fn tail_reports_the_rank_value() {
    let xs: Vec<f64> = (1..=200).map(f64::from).collect();
    assert_eq!(tail(&xs, 99.9), (95.0, 190.0));
    assert_eq!(percentile(&xs, 50.0), 100.0);
    // Order of the input does not matter.
    let rev: Vec<f64> = xs.iter().rev().copied().collect();
    assert_eq!(tail(&rev, 99.9), (95.0, 190.0));
}

#[test]
fn geomean_matches_definition() {
    assert!((geomean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
    assert!((geomean(&[2.0]) - 2.0).abs() < 1e-12);
    assert_eq!(geomean(&[]), 0.0);
    assert_eq!(geomean(&[1.0, 0.0]), 0.0);
}

#[test]
fn loglog_slope_recovers_the_exponent() {
    let quad: Vec<(f64, f64)> = [100.0, 200.0, 400.0]
        .iter()
        .map(|&v| (v, 3.0 * v * v))
        .collect();
    assert!((loglog_slope(&quad) - 2.0).abs() < 1e-9);
    let pts = [(250.0, 1.0), (500.0, 2.8284271247461903)];
    assert!((loglog_slope(&pts) - 1.5).abs() < 1e-9);
    // Repeated samples at two sizes fit through their log means.
    let noisy = [(250.0, 1.0), (250.0, 1.0), (500.0, 4.0), (500.0, 4.0)];
    assert!((loglog_slope(&noisy) - 2.0).abs() < 1e-9);
    // Degenerate inputs give 0 rather than NaN.
    assert_eq!(loglog_slope(&[(500.0, 1.0), (500.0, 2.0)]), 0.0);
    assert_eq!(loglog_slope(&[(0.0, 1.0), (500.0, 2.0)]), 0.0);
}

#[test]
fn backlog_growth_is_detected() {
    let flat = vec![1.0; 200];
    assert!(!backlog_growing(&flat, 10.0));
    // Latency rising by 0.1 ms per request: a queue that never drains.
    let rising: Vec<f64> = (0..200).map(|i| 1.0 + 0.1 * f64::from(i)).collect();
    assert!(backlog_growing(&rising, 10.0));
    // Noise and a single spike are not a growing backlog.
    let mut spiky: Vec<f64> = (0..200).map(|i| 1.0 + f64::from(i % 3) * 0.5).collect();
    spiky[150] = 80.0;
    assert!(!backlog_growing(&spiky, 10.0));
    assert!(!backlog_growing(&[5.0, 50.0, 500.0], 10.0));
}

#[test]
fn rung_verdicts() {
    let fast = vec![1.0; 200];
    assert!(judge_rung(100.0, &fast, 200, 10.0).passed);
    // A missing response fails the rung.
    assert!(!judge_rung(100.0, &fast[..199], 200, 10.0).passed);
    // Eleven of 200 beyond the limit: the p95 exceeds it.
    let mut slow_tail = fast.clone();
    for x in slow_tail.iter_mut().take(11) {
        *x = 50.0;
    }
    assert!(!judge_rung(100.0, &slow_tail, 200, 10.0).passed);
    // Ten beyond the limit still leaves the p95 inside it.
    let mut ten = fast.clone();
    for x in ten.iter_mut().take(10) {
        *x = 50.0;
    }
    assert!(judge_rung(100.0, &ten, 200, 10.0).passed);
    // A growing backlog fails even with every latency under the limit.
    let creeping: Vec<f64> = (0..200).map(|i| 0.04 * f64::from(i)).collect();
    assert!(!judge_rung(100.0, &creeping, 200, 10.0).passed);
}

#[test]
fn slo_rate_is_the_last_pass_before_the_first_failure() {
    let rates = ladder(100.0, 2.0, 4);
    assert_eq!(rates, vec![100.0, 200.0, 400.0, 800.0]);
    let r = |rate, passed| Rung { rate, passed };
    assert_eq!(
        slo_rate(&[r(100.0, true), r(200.0, true), r(400.0, false)]),
        200.0
    );
    // A pass above a failure does not count.
    assert_eq!(
        slo_rate(&[r(100.0, true), r(200.0, false), r(400.0, true)]),
        100.0
    );
    assert_eq!(slo_rate(&[r(100.0, false)]), 0.0);
    assert_eq!(slo_rate(&[]), 0.0);
}
