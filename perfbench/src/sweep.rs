//! `sweep`: the paper's Table-6 run. All fifteen roster algorithms,
//! serially, over seeded RGNOS graphs at v = 500 with CCR ∈ {0.1, 1, 10}
//! at low and high width. BNP and UNC algorithms run on `bnp:8`, APN
//! algorithms on `hypercube:3`. Every schedule is validated.
//!
//! All the work sits in `core`, `graph::levels` and `platform` (slots,
//! network, validation); none in `serve` or `ws`.

use std::time::Instant;

use dagsched_core::{registry, AlgoClass, Env, Scheduler};
use dagsched_graph::{binio, TaskGraph};
use dagsched_obs::registry::{global, Metric, Snapshot};
use dagsched_suites::{rgnos, RgnosParams};

use crate::report::Report;
use crate::stats::{geomean, loglog_slope, median};
use crate::trace::Tracer;
use crate::{digest, mix, Mode};

/// Tasks per sweep graph.
pub const V: usize = 500;
/// Communication-to-computation ratios of the sweep graphs.
pub const CCRS: [f64; 3] = [0.1, 1.0, 10.0];
/// Low and high width multipliers (graph width ≈ w·√v).
pub const WIDTHS: [u32; 2] = [1, 5];

/// The sweep's graphs for `seed` at `v` tasks: one per (CCR, width).
pub fn graphs(seed: u64, v: usize) -> Vec<TaskGraph> {
    let mut out = Vec::new();
    for (i, &ccr) in CCRS.iter().enumerate() {
        for (j, &w) in WIDTHS.iter().enumerate() {
            let s = mix(seed, (i * WIDTHS.len() + j) as u64);
            out.push(rgnos::generate(RgnosParams::new(v, ccr, w, s)));
        }
    }
    out
}

/// BNP/UNC machine and APN machine.
pub fn envs() -> (Env, Env) {
    (
        Env::bnp(8),
        Env::parse_spec("hypercube:3").expect("hypercube:3 is a valid topology"),
    )
}

fn env_for<'a>(algo: &dyn Scheduler, envs: &'a (Env, Env)) -> &'a Env {
    match algo.class() {
        AlgoClass::Apn => &envs.1,
        _ => &envs.0,
    }
}

/// Schedule and validate; the makespan, or why the call failed.
fn call(algo: &dyn Scheduler, g: &TaskGraph, env: &Env) -> Result<u64, String> {
    let out = algo
        .schedule(g, env)
        .map_err(|e| format!("{} failed: {e}", algo.name()))?;
    out.validate(g)
        .map_err(|e| format!("{} produced an invalid schedule: {e}", algo.name()))?;
    Ok(out.schedule.makespan())
}

/// Makespans of the whole roster on each graph, algorithm-major.
pub fn makespans(graphs: &[TaskGraph]) -> Result<Vec<Vec<u64>>, String> {
    let envs = envs();
    registry::all()
        .iter()
        .map(|a| {
            graphs
                .iter()
                .map(|g| call(a.as_ref(), g, env_for(a.as_ref(), &envs)))
                .collect()
        })
        .collect()
}

struct Pass {
    secs: f64,
    /// Seconds of each call, algorithm-major.
    calls: Vec<f64>,
    makespans: Vec<u64>,
}

fn pass(
    algos: &[Box<dyn Scheduler>],
    graphs: &[TaskGraph],
    envs: &(Env, Env),
    rep: &mut Report,
) -> Pass {
    let t0 = Instant::now();
    let mut calls = Vec::with_capacity(algos.len() * graphs.len());
    let mut makespans = Vec::with_capacity(calls.capacity());
    for a in algos {
        for g in graphs {
            let t = Instant::now();
            let r = call(a.as_ref(), g, env_for(a.as_ref(), envs));
            calls.push(t.elapsed().as_secs_f64());
            rep.attempted += 1;
            match r {
                Ok(m) => makespans.push(m),
                Err(e) => {
                    rep.fail(e);
                    makespans.push(0);
                }
            }
        }
    }
    Pass {
        secs: t0.elapsed().as_secs_f64(),
        calls,
        makespans,
    }
}

/// Build the inputs: generate the graphs and compute their levels, the
/// way a sweep does once per graph before the roster runs.
fn setup(seed: u64) -> Vec<TaskGraph> {
    let gs = graphs(seed, V);
    for g in &gs {
        g.levels();
    }
    gs
}

pub fn run(seed: u64, seconds: f64, mode: Mode, rep: &mut Report) {
    let (gs, setup_s) = crate::timed_setup(|| setup(seed));
    let algos = registry::all();
    let envs = envs();
    rep.note("graphs", format!("{} x RGNOS v={V}", gs.len()));
    rep.note("calls_per_pass", algos.len() * gs.len());

    let t0 = Instant::now();
    let mut passes = vec![pass(&algos, &gs, &envs, rep)];
    if let Mode::Untraced = mode {
        // Stop before a pass that would overrun the measuring time.
        while t0.elapsed().as_secs_f64() + passes[passes.len() - 1].secs <= seconds {
            passes.push(pass(&algos, &gs, &envs, rep));
        }
    }
    check_passes_agree(passes.iter().map(|p| digest(&p.makespans)), rep);
    rep.note("passes", passes.len());

    match mode {
        Mode::Untraced => {
            // Each call's median over passes shrugs off a slow moment of
            // the host. Call times span three orders of magnitude across
            // algorithms and graphs, so percentiles of the pooled calls
            // land in gaps between them and swing with the seed; the
            // geometric mean over calls is the typical call, and the mean
            // over algorithms of each one's slowest graph is the slow call.
            let cells: Vec<f64> = (0..algos.len() * gs.len())
                .map(|c| median(&passes.iter().map(|p| p.calls[c] * 1e3).collect::<Vec<_>>()))
                .collect();
            let slowest: Vec<f64> = cells
                .chunks(gs.len())
                .map(|c| c.iter().copied().fold(0.0, f64::max))
                .collect();
            let sweep_s = cells.iter().sum::<f64>() / 1e3;
            rep.note("sweep_s", sweep_s);
            rep.note("latency_samples", passes.len() * cells.len());
            rep.note("tail_percentile", "slowest graph per algorithm");
            crate::end_to_end(
                rep,
                setup_s,
                cells.len() as f64 / sweep_s,
                geomean(&cells),
                geomean(&slowest),
            );
        }
        Mode::Traced => traced(seed, seconds, &gs, &algos, &envs, passes[0].secs, rep),
    }
}

fn check_passes_agree(mut digests: impl Iterator<Item = u64>, rep: &mut Report) {
    if let Some(first) = digests.next() {
        if digests.any(|d| d != first) {
            rep.errors
                .push("makespans differ between passes over the same graphs".into());
        }
    }
}

/// Counter totals of one traced pass.
#[derive(Default)]
struct Counters {
    heap_ops: u64,
    engine_nodes: u64,
    engine_repairs: u64,
    bsa_trials: u64,
    bsa_cut: u64,
    apn_committed: u64,
    apn_retired: u64,
}

impl Counters {
    fn add(&mut self, d: &Snapshot) {
        self.heap_ops += d.get(Metric::HeapInserts)
            + d.get(Metric::HeapPops)
            + d.get(Metric::HeapRekeys)
            + d.get(Metric::HeapRemoves);
        self.engine_nodes += d.get(Metric::EngineFwdNodes) + d.get(Metric::EngineBwdNodes);
        self.engine_repairs += d.get(Metric::EngineRepairs);
        self.bsa_trials += d.get(Metric::BsaTrials);
        self.bsa_cut += d.get(Metric::BsaTrialsCut);
        self.apn_committed += d.get(Metric::ApnMsgsCommitted);
        self.apn_retired += d.get(Metric::ApnMsgsRetired);
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

fn traced(
    seed: u64,
    seconds: f64,
    gs: &[TaskGraph],
    algos: &[Box<dyn Scheduler>],
    envs: &(Env, Env),
    untraced_pass_s: f64,
    rep: &mut Report,
) {
    let mut tr = Tracer::new();
    let t0 = Instant::now();
    let mut pass_secs = Vec::new();
    let mut counters = Counters::default();
    let mut req = 0u64;
    while pass_secs
        .last()
        .is_none_or(|&last| t0.elapsed().as_secs_f64() + last <= seconds * 0.7)
    {
        let tp = Instant::now();
        let mut c = Counters::default();
        for a in algos {
            let env = env_for(a.as_ref(), envs);
            for g in gs {
                let before = global().snapshot();
                tr.span("sweep.call", req, |tr| {
                    let out = tr.span(&format!("core.{}", a.name()), req, |_| a.schedule(g, env));
                    match out {
                        Ok(out) => {
                            if let Err(e) = tr.span("platform.validate", req, |_| out.validate(g)) {
                                rep.fail(format!("{} invalid: {e}", a.name()));
                            }
                        }
                        Err(e) => rep.fail(format!("{} failed: {e}", a.name())),
                    }
                });
                c.add(&global().snapshot().since(&before));
                rep.attempted += 1;
                req += 1;
            }
        }
        pass_secs.push(tp.elapsed().as_secs_f64());
        counters = c;
    }
    rep.note("traced_passes", pass_secs.len());

    // First levels computation on a fresh copy of each graph.
    for g in gs {
        let fresh = binio::from_bin(&binio::to_bin(g)).expect("binio round trip");
        tr.span("graph.levels", req, |_| {
            fresh.levels();
        });
        req += 1;
    }

    // Half-size graphs for the scaling exponent.
    let half = graphs(seed, V / 2);
    let mut half_us: Vec<Vec<f64>> = Vec::new();
    for a in algos {
        let env = env_for(a.as_ref(), envs);
        half_us.push(
            half.iter()
                .map(|g| {
                    let t = Instant::now();
                    if let Err(e) = call(a.as_ref(), g, env) {
                        rep.fail(e);
                    }
                    rep.attempted += 1;
                    t.elapsed().as_secs_f64() * 1e6
                })
                .collect(),
        );
    }

    let v = V as f64;
    let mut class_costs: [Vec<f64>; 3] = Default::default();
    for (a, half) in algos.iter().zip(&half_us) {
        let us = tr.durations_us(&format!("core.{}", a.name()));
        let per_task = median(&us) / v;
        rep.metric(format!("core.{}.us_per_task", a.name()), per_task, "us");
        let pts: Vec<(f64, f64)> = us
            .iter()
            .map(|&t| (v, t))
            .chain(half.iter().map(|&t| (v / 2.0, t)))
            .collect();
        rep.metric(
            format!("core.{}.slope", a.name()),
            loglog_slope(&pts),
            "ratio",
        );
        let k = match a.class() {
            AlgoClass::Bnp => 0,
            AlgoClass::Unc => 1,
            AlgoClass::Apn => 2,
        };
        class_costs[k].push(per_task);
    }
    rep.metric("core.bnp_us_per_task", geomean(&class_costs[0]), "us");
    rep.metric("core.unc_us_per_task", geomean(&class_costs[1]), "us");
    rep.metric("core.apn_us_per_task", geomean(&class_costs[2]), "us");
    rep.metric("core.heap_ops", counters.heap_ops as f64, "count");
    rep.metric(
        "core.engine_nodes_per_repair",
        ratio(counters.engine_nodes, counters.engine_repairs),
        "ratio",
    );
    rep.metric("core.bsa_trials", counters.bsa_trials as f64, "count");
    rep.metric(
        "core.bsa_cut_ratio",
        ratio(counters.bsa_cut, counters.bsa_trials),
        "ratio",
    );
    rep.metric(
        "graph.levels_us_per_task",
        median(&tr.durations_us("graph.levels")) / v,
        "us",
    );
    rep.metric(
        "platform.validate_us_per_task",
        median(&tr.durations_us("platform.validate")) / v,
        "us",
    );
    rep.metric(
        "platform.apn_msgs_committed",
        counters.apn_committed as f64,
        "count",
    );
    rep.metric(
        "platform.apn_retired_ratio",
        ratio(counters.apn_retired, counters.apn_committed),
        "ratio",
    );
    rep.metric(
        "trace.overhead_ratio",
        median(&pass_secs) / untraced_pass_s,
        "ratio",
    );
    crate::write_trace(&tr, "sweep", seed, rep);
}
