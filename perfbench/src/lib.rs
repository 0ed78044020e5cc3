//! End-to-end and per-layer benchmark of the taskbench workspace.
//!
//! One binary runs four workloads against the public API of the library
//! crates (`core`, `optimal`, `serve`, and below them `graph`, `platform`
//! and `ws`), checks every output, and prints its metrics as one JSON
//! line. See `README.md` beside this crate for the workloads, the metrics
//! and how to cite them.

pub mod client;
pub mod optimal;
pub mod reference;
pub mod report;
pub mod serve;
pub mod stats;
pub mod sweep;
pub mod trace;

use std::time::Instant;

use report::Report;
use trace::Tracer;

/// Whether this run measures end-to-end metrics or per-layer metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// No spans, no counter reads: the end-to-end numbers.
    Untraced,
    /// Spans around every layer call: the per-layer numbers.
    Traced,
}

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["sweep", "optimal", "serve_hot", "serve_cold"];

/// How many times set-up runs; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 15;

/// Highest percentile `tail_ms` reports. Round trips on a
/// 250 Hz kernel fall into modes one timer tick (4 ms) apart, and the
/// share of the upper mode hovers near 5%, so a 95th percentile flips
/// between modes from run to run; the 90th does not.
pub const TAIL_CAP: f64 = 90.0;

/// SplitMix64 of `seed` and a stream tag: independent, reproducible
/// sub-seeds for each generated input.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed
        .wrapping_add(tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over a list of values: a compact, stable digest of results.
pub fn digest(xs: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for x in xs {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Run `setup` [`SETUP_REPEATS`] times; the last result and the median
/// time.
pub fn timed_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("SETUP_REPEATS >= 1"), stats::median(&times))
}

/// Record the end-to-end metrics, in `BENCHMARK.json` order.
pub fn end_to_end(rep: &mut Report, setup_s: f64, ops_per_s: f64, p50_ms: f64, tail_ms: f64) {
    rep.metric("setup_s", setup_s, "s");
    rep.metric("ops_per_s", ops_per_s, "1/s");
    rep.metric("p50_ms", p50_ms, "ms");
    rep.metric("tail_ms", tail_ms, "ms");
    rep.metric("peak_rss_mb", report::peak_rss_mb(), "MB");
}

/// Write the traced run's spans under `.bench_build/trace/`.
pub fn write_trace(tr: &Tracer, workload: &str, seed: u64, rep: &mut Report) {
    let path = std::path::Path::new(".bench_build")
        .join("trace")
        .join(format!("{workload}-{seed}.jsonl"));
    match tr.write_jsonl(&path) {
        Ok(()) => rep.note("trace_file", path.display()),
        Err(e) => rep.errors.push(format!("writing {}: {e}", path.display())),
    }
    rep.note("spans", tr.spans().len());
}

/// The per-layer metric names a traced run reports, with units.
/// Every traced run reports all of them; a layer that a workload does not
/// exercise reads 0 there.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for a in dagsched_core::registry::names() {
        out.push((format!("core.{a}.us_per_task"), "us"));
    }
    for a in dagsched_core::registry::names() {
        out.push((format!("core.{a}.slope"), "ratio"));
    }
    for (n, u) in [
        ("core.bnp_us_per_task", "us"),
        ("core.unc_us_per_task", "us"),
        ("core.apn_us_per_task", "us"),
        ("core.heap_ops", "count"),
        ("core.engine_nodes_per_repair", "ratio"),
        ("core.bsa_trials", "count"),
        ("core.bsa_cut_ratio", "ratio"),
        ("graph.levels_us_per_task", "us"),
        ("platform.validate_us_per_task", "us"),
        ("platform.apn_msgs_committed", "count"),
        ("platform.apn_retired_ratio", "ratio"),
        ("optimal.serial_s", "s"),
        ("optimal.expanded", "count"),
        ("optimal.prune_ratio", "ratio"),
        ("optimal.par_expanded_ratio", "ratio"),
        ("ws.par_over_serial", "ratio"),
        ("ws.steal_hit_ratio", "ratio"),
        ("ws.parks", "count"),
        ("ws.jobs", "count"),
        ("serve.frame_us", "us"),
        ("serve.parse_us", "us"),
        ("serve.decode_tgf_us", "us"),
        ("serve.decode_bin_us", "us"),
        ("serve.hash_us", "us"),
        ("serve.cache_get_us", "us"),
        ("serve.cache_insert_us", "us"),
        ("serve.schedule_us", "us"),
        ("serve.render_us", "us"),
        ("serve.residual_ms", "ms"),
        ("serve.hit_ratio", "ratio"),
        ("serve.open_p50_ms", "ms"),
        ("serve.open_p95_ms", "ms"),
        ("serve.queue_depth_p95", "count"),
        ("serve.slo_rps", "1/s"),
        ("serve.gen_late_ms", "ms"),
        ("trace.overhead_ratio", "ratio"),
        ("run.err_frac", "ratio"),
    ] {
        out.push((n.to_string(), u));
    }
    out
}

/// Run one workload and return its report.
pub fn run(workload: &str, seed: u64, seconds: f64, mode: Mode) -> Result<Report, String> {
    let mut rep = Report::default();
    rep.note("workload", workload);
    rep.note("seed", seed);
    rep.note("seconds", seconds);
    rep.note("nproc", report::nproc());
    rep.note("available_parallelism", report::available_parallelism());
    match workload {
        "sweep" => sweep::run(seed, seconds, mode, &mut rep),
        "optimal" => optimal::run(seed, seconds, mode, &mut rep),
        "serve_hot" => serve::run(serve::Kind::Hot, seed, seconds, mode, &mut rep),
        "serve_cold" => serve::run(serve::Kind::Cold, seed, seconds, mode, &mut rep),
        other => return Err(format!("unknown workload `{other}` (known: {WORKLOADS:?})")),
    }
    reference::check(workload, &mut rep);
    if mode == Mode::Traced {
        let err_frac = rep.failed as f64 / rep.attempted.max(1) as f64;
        rep.metric("run.err_frac", err_frac, "ratio");
        let have: Vec<String> = rep.names().iter().map(|s| s.to_string()).collect();
        for (name, unit) in per_layer_names() {
            if !have.contains(&name) {
                rep.metric(name, 0.0, unit);
            }
        }
    }
    Ok(rep)
}
