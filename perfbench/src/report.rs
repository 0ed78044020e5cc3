//! The run's result: the correctness verdict, operation counts, named
//! metrics with units, and the host record printed beside them.

use std::fmt::Write as _;

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Why the run is not correct, one line each; empty when it is.
    pub errors: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
    /// Free-form facts about the run (sample counts, percentiles used,
    /// worker counts), printed on the record line.
    pub notes: Vec<(String, String)>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        if !value.is_finite() {
            self.errors.push(format!("metric {name} is not finite"));
        }
        self.metrics.push((name, value, unit));
    }

    pub fn note(&mut self, key: impl Into<String>, value: impl ToString) {
        self.notes.push((key.into(), value.to_string()));
    }

    /// Record a failed operation with its reason.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(why.into());
        }
    }

    /// Names of the recorded metrics, in insertion order.
    pub fn names(&self) -> Vec<&str> {
        self.metrics.iter().map(|m| m.0.as_str()).collect()
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// The record line: notes as a JSON object of strings.
    pub fn record_json(&self) -> String {
        let mut s = String::from("{\"record\":{");
        for (i, (k, v)) in self.notes.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{}\":\"{}\"", escape(k), escape(v));
        }
        s.push_str("}}");
        s
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let v = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(s, "\"{name}\":{{\"value\":{v:?},\"unit\":\"{unit}\"}}");
        }
        s.push_str("}}");
        s
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', " ")
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 when the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Online CPUs as `nproc` counts them (`/sys/devices/system/cpu/online`,
/// e.g. `0-1`), falling back to `available_parallelism`.
pub fn nproc() -> usize {
    std::fs::read_to_string("/sys/devices/system/cpu/online")
        .ok()
        .and_then(|s| {
            s.trim()
                .split(',')
                .map(|r| match r.split_once('-') {
                    Some((a, b)) => Some(b.parse::<usize>().ok()? + 1 - a.parse::<usize>().ok()?),
                    None => r.parse::<usize>().ok().map(|_| 1),
                })
                .sum::<Option<usize>>()
        })
        .unwrap_or_else(available_parallelism)
}

/// `std::thread::available_parallelism`, 1 when unknown.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
