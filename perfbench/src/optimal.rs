//! `optimal`: branch-and-bound over small RGBOS and RGNOS instances.
//!
//! The end-to-end runs solve serially (`threads: Some(1)`). On a shared
//! 2-vCPU host the default worker policy (`threads: None`, two workers
//! here) spread 15-28% between runs, because a parallel search stalls
//! whenever the host takes one vCPU away. The traced run measures the
//! default policy beside the serial search (`ws.*`). Instances are
//! sized so that every seed proves well inside the node budget; an
//! unproven solve is a failure, because a capped search measures the cap.
//!
//! This is the only workload whose time goes to `optimal` and `ws`.

use std::time::Instant;

use dagsched_graph::TaskGraph;
use dagsched_obs::registry::{global, Metric};
use dagsched_optimal::{solve, OptimalParams, OptimalResult};
use dagsched_suites::{rgbos, rgnos, RgbosParams, RgnosParams};

use crate::report::Report;
use crate::stats::{median, tail};
use crate::trace::Tracer;
use crate::{digest, mix, Mode};

/// Processors of the bounded machine the instances are solved for.
pub const PROCS: usize = 3;
/// Search nodes a solve may expand before it gives up unproven.
pub const NODE_LIMIT: u64 = 4_000_000;

/// RGBOS tasks per instance.
pub const RGBOS_V: usize = 8;
/// RGBOS instances per CCR.
pub const RGBOS_PER_CCR: usize = 1000;
/// RGNOS tasks per instance: wide RGNOS graphs are much harder to prove
/// than RGBOS graphs of the same size.
pub const RGNOS_V: usize = 6;
/// RGNOS instances per CCR.
pub const RGNOS_PER_CCR: usize = 100;
/// Communication-to-computation ratios of the instances.
pub const CCRS: [f64; 3] = [0.1, 1.0, 10.0];

/// The instance set for `seed`: for each CCR, [`RGBOS_PER_CCR`] RGBOS and
/// [`RGNOS_PER_CCR`] RGNOS graphs. Many small instances rather than a few
/// large ones: proof time is heavy-tailed in the instance, and only a
/// large sample makes the set's total comparable from seed to seed.
pub fn instances(seed: u64) -> Vec<TaskGraph> {
    let mut out = Vec::new();
    for (i, &ccr) in CCRS.iter().enumerate() {
        for k in 0..RGBOS_PER_CCR {
            out.push(rgbos::generate(RgbosParams {
                nodes: RGBOS_V,
                ccr,
                seed: mix(seed, (i * RGBOS_PER_CCR + k) as u64),
            }));
        }
        for k in 0..RGNOS_PER_CCR {
            let tag = (CCRS.len() * RGBOS_PER_CCR + i * RGNOS_PER_CCR + k) as u64;
            out.push(rgnos::generate(RgnosParams::new(
                RGNOS_V,
                ccr,
                2,
                mix(seed, tag),
            )));
        }
    }
    out
}

/// Solver settings; `threads: None` is the workspace's default policy.
pub fn params(threads: Option<usize>) -> OptimalParams {
    OptimalParams {
        procs: Some(PROCS),
        node_limit: NODE_LIMIT,
        heuristic_incumbent: true,
        threads,
    }
}

/// Check one solve: proven, a valid schedule on at most [`PROCS`]
/// processors, and a length equal to its schedule's makespan.
pub fn check(g: &TaskGraph, r: &OptimalResult) -> Result<(), String> {
    if !r.proven {
        return Err(format!(
            "{}: search capped at {} nodes without a proof",
            g.name(),
            r.nodes_expanded
        ));
    }
    r.schedule
        .validate(g)
        .map_err(|e| format!("{}: invalid optimal schedule: {e}", g.name()))?;
    if r.schedule.procs_used() > PROCS || r.schedule.makespan() != r.length {
        return Err(format!(
            "{}: optimal schedule does not match its length",
            g.name()
        ));
    }
    Ok(())
}

/// Proven lengths of `graphs`, serially.
pub fn lengths(graphs: &[TaskGraph]) -> Result<Vec<u64>, String> {
    graphs
        .iter()
        .map(|g| {
            let r = solve(g, &params(Some(1)));
            check(g, &r).map(|()| r.length)
        })
        .collect()
}

struct Pass {
    secs: f64,
    solves: Vec<f64>,
    lengths: Vec<u64>,
}

fn pass(gs: &[TaskGraph], threads: Option<usize>, rep: &mut Report) -> Pass {
    let t0 = Instant::now();
    let mut solves = Vec::new();
    let mut lengths = Vec::new();
    for g in gs {
        let t = Instant::now();
        let r = solve(g, &params(threads));
        solves.push(t.elapsed().as_secs_f64());
        rep.attempted += 1;
        if let Err(e) = check(g, &r) {
            rep.fail(e);
        }
        lengths.push(r.length);
    }
    Pass {
        secs: t0.elapsed().as_secs_f64(),
        solves,
        lengths,
    }
}

pub fn run(seed: u64, seconds: f64, mode: Mode, rep: &mut Report) {
    let (gs, setup_s) = crate::timed_setup(|| instances(seed));
    rep.note("instances", gs.len());
    rep.note("bnb_workers", 1);
    rep.note("bnb_default_policy_workers", dagsched_ws::worker_count());

    let t0 = Instant::now();
    let mut passes = vec![pass(&gs, Some(1), rep)];
    let budget = match mode {
        Mode::Untraced => seconds,
        Mode::Traced => 0.0,
    };
    while t0.elapsed().as_secs_f64() + passes[passes.len() - 1].secs <= budget {
        passes.push(pass(&gs, Some(1), rep));
    }
    let first = digest(&passes[0].lengths);
    if passes.iter().any(|p| digest(&p.lengths) != first) {
        rep.errors
            .push("proven lengths differ between passes over the same instances".into());
    }
    rep.note("passes", passes.len());

    match mode {
        Mode::Untraced => {
            let solves_ms: Vec<f64> = passes
                .iter()
                .flat_map(|p| p.solves.iter().map(|s| s * 1e3))
                .collect();
            let per_s: Vec<f64> = passes
                .iter()
                .map(|p| p.solves.len() as f64 / p.secs)
                .collect();
            let (tail_p, tail_ms) = tail(&solves_ms, crate::TAIL_CAP);
            rep.note(
                "optimal_s",
                median(&passes.iter().map(|p| p.secs).collect::<Vec<_>>()),
            );
            rep.note("latency_samples", solves_ms.len());
            rep.note("tail_percentile", tail_p);
            crate::end_to_end(rep, setup_s, median(&per_s), median(&solves_ms), tail_ms);
        }
        Mode::Traced => traced(seed, seconds, &gs, passes[0].secs, rep),
    }
}

/// Serial and default-policy solves of every instance, side by side, with
/// the search and work-stealing counters read around each.
fn traced(seed: u64, seconds: f64, gs: &[TaskGraph], untraced_s: f64, rep: &mut Report) {
    let mut tr = Tracer::new();
    let t0 = Instant::now();
    let mut serial_s = Vec::new();
    let mut par_s = Vec::new();
    let (mut expanded, mut pruned, mut par_expanded) = (0u64, 0u64, 0u64);
    let (mut attempts, mut hits, mut parks, mut jobs) = (0u64, 0u64, 0u64, 0u64);
    let mut req = 0u64;
    while serial_s.is_empty() || t0.elapsed().as_secs_f64() < seconds * 0.8 {
        let (mut s_sum, mut p_sum) = (0.0, 0.0);
        (expanded, pruned, par_expanded) = (0, 0, 0);
        (attempts, hits, parks, jobs) = (0, 0, 0, 0);
        for g in gs {
            let t = Instant::now();
            let r = tr.span("optimal.serial", req, |_| solve(g, &params(Some(1))));
            s_sum += t.elapsed().as_secs_f64();
            expanded += r.nodes_expanded;
            pruned += r.pruned;
            rep.attempted += 1;
            if let Err(e) = check(g, &r) {
                rep.fail(e);
            }

            let before = global().snapshot();
            let t = Instant::now();
            let p = tr.span("optimal.default", req, |_| solve(g, &params(None)));
            p_sum += t.elapsed().as_secs_f64();
            let d = global().snapshot().since(&before);
            par_expanded += p.nodes_expanded;
            attempts += d.get(Metric::WsStealAttempts);
            hits += d.get(Metric::WsStealHits);
            parks += d.get(Metric::WsParks);
            jobs += d.get(Metric::WsJobs);
            rep.attempted += 1;
            if let Err(e) = check(g, &p) {
                rep.fail(e);
            }
            if p.length != r.length {
                rep.fail(format!(
                    "{}: default-policy optimum {} differs from serial {}",
                    g.name(),
                    p.length,
                    r.length
                ));
            }
            req += 1;
        }
        serial_s.push(s_sum);
        par_s.push(p_sum);
    }
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    rep.note("traced_passes", serial_s.len());
    rep.metric("optimal.serial_s", median(&serial_s), "s");
    rep.metric("optimal.expanded", expanded as f64, "count");
    rep.metric(
        "optimal.prune_ratio",
        ratio(pruned, expanded + pruned),
        "ratio",
    );
    rep.metric(
        "optimal.par_expanded_ratio",
        ratio(par_expanded, expanded),
        "ratio",
    );
    rep.metric(
        "ws.par_over_serial",
        median(&par_s) / median(&serial_s),
        "ratio",
    );
    rep.metric("ws.steal_hit_ratio", ratio(hits, attempts), "ratio");
    rep.metric("ws.parks", parks as f64, "count");
    rep.metric("ws.jobs", jobs as f64, "count");
    rep.metric(
        "trace.overhead_ratio",
        median(&serial_s) / untraced_s,
        "ratio",
    );
    crate::write_trace(&tr, "optimal", seed, rep);
}
