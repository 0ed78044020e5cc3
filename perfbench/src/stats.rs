//! The benchmark's statistics: medians, the tail-percentile rule, the
//! geometric mean, the log-log slope fit and the SLO ladder verdicts.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Percentiles the tail rule may report, highest first.
pub const TAIL_LADDER: [f64; 8] = [99.9, 99.0, 98.0, 97.5, 95.0, 90.0, 75.0, 50.0];

/// Median of `xs` (mean of the middle pair for an even count); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank index of percentile `p` in a sorted sample of `n`.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Number of samples strictly beyond the nearest-rank `p`-th percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, p)
    }
}

/// The highest percentile of [`TAIL_LADDER`] that has at least
/// [`MIN_BEYOND`] samples beyond it, capped at `cap`; `None` when even
/// the median has too few.
pub fn tail_percentile(n: usize, cap: f64) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .filter(|&p| p <= cap)
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Nearest-rank percentile `p` of `xs`; 0 when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s[rank(s.len(), p)]
}

/// The tail of `xs` by the rule: `(percentile, value)`, with the
/// percentile at most `cap`. Falls back to the median when the sample is
/// too small for any ladder entry.
pub fn tail(xs: &[f64], cap: f64) -> (f64, f64) {
    let p = tail_percentile(xs.len(), cap).unwrap_or(50.0);
    (p, percentile(xs, p))
}

/// Geometric mean of positive values; 0 when empty or any value is not
/// positive.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() || xs.iter().any(|&x| x <= 0.0 || !x.is_finite()) {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Least-squares slope of `ln t` against `ln v` over `(v, t)` points:
/// the scaling exponent of time in input size. 0 when the points span a
/// single size or hold a non-positive value.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    if points.iter().any(|&(v, t)| v <= 0.0 || t <= 0.0) {
        return 0.0;
    }
    let n = points.len() as f64;
    let xs: Vec<f64> = points.iter().map(|p| p.0.ln()).collect();
    let ys: Vec<f64> = points.iter().map(|p| p.1.ln()).collect();
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let sxx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    if sxx <= f64::EPSILON {
        return 0.0;
    }
    let sxy: f64 = xs.iter().zip(&ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    sxy / sxx
}

/// Whether latencies, in the order their requests were due, show a
/// backlog that grows over the run: the median of the last quarter
/// exceeds the median of the first quarter by more than half the latency
/// limit. A server that keeps up holds its latency flat; one that falls
/// behind adds queueing delay with every request.
pub fn backlog_growing(latencies_ms: &[f64], limit_ms: f64) -> bool {
    let q = latencies_ms.len() / 4;
    if q == 0 {
        return false;
    }
    let first = median(&latencies_ms[..q]);
    let last = median(&latencies_ms[latencies_ms.len() - q..]);
    last - first > limit_ms / 2.0
}

/// Verdict for one rung of the SLO ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Whether the rung met the limit without a growing backlog and with
    /// every request answered.
    pub passed: bool,
}

/// Judge one rung: every request answered, the tail percentile of the
/// latencies at most `limit_ms`, and no growing backlog.
pub fn judge_rung(rate: f64, latencies_ms: &[f64], expected: usize, limit_ms: f64) -> Rung {
    let (_, tail_ms) = tail(latencies_ms, 95.0);
    let passed = latencies_ms.len() == expected
        && expected > 0
        && tail_ms <= limit_ms
        && !backlog_growing(latencies_ms, limit_ms);
    Rung { rate, passed }
}

/// The rates of the geometric ladder: `start`, `start·factor`, … for
/// `count` rungs.
pub fn ladder(start: f64, factor: f64, count: usize) -> Vec<f64> {
    (0..count).map(|k| start * factor.powi(k as i32)).collect()
}

/// The highest passing rate climbed in order: the ladder stops at the
/// first failing rung, so a pass above a failure does not count. 0 when
/// the first rung fails.
pub fn slo_rate(rungs: &[Rung]) -> f64 {
    rungs
        .iter()
        .take_while(|r| r.passed)
        .last()
        .map_or(0.0, |r| r.rate)
}
