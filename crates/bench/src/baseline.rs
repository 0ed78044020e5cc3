//! Reference oracles: one naive, obviously-correct implementation per
//! algorithm family whose production code is incrementally optimized.
//! Nothing here is wired into the algorithm registry; the tests below and
//! `perf_baseline`'s `oracle_equivalence` section prove production
//! **placement-identical** to these (for BSA: also message-identical).
//!
//! [`DscScanBaseline`] is DSC without the priority-queue engine: an
//! O(|ready|) scan to select the free node and a fresh O(v + e)
//! whole-graph scan per step to find the highest-priority partially free
//! node. The heap-driven `dagsched_core::unc::Dsc` must produce the same
//! placements.
//!
//! [`DynScanBaseline`] is the dynamic-levels computation as a full
//! rebuild of the scheduled-graph view — combined adjacency vectors, Kahn
//! order, forward and backward passes — after **every** placement.
//! [`MdScan`] and [`DcpScan`] are MD and DCP over that rescan,
//! decision-identical to the engine-driven `dagsched_core::unc::{Md, Dcp}`
//! (including the repaired look-ahead probe, which changed decisions and
//! is pinned by its own regression test + the golden table).
//!
//! [`BsaBaseline`] is BSA with every tentative migration evaluated by a
//! **full replay** of the schedule from scratch (cloned per-processor
//! orders, fresh `Schedule`, fresh `Network`, every message recommitted).
//! The production `dagsched_core::apn::Bsa` evaluates candidates through
//! an incremental rollback journal instead, so the oracle checks the
//! journal and its rollback independently; the semantics of `Network`
//! itself are pinned by `dagsched-platform`'s property tests.
//!
//! [`bnp`] holds the six BNP list schedulers as hand-written monoliths;
//! the `dagsched_core::compose` presets must match them placement for
//! placement.

pub mod bnp;

use dagsched_core::common::{drt, ReadySet};
use dagsched_core::{AlgoClass, Env, Outcome, SchedError, Scheduler};
use dagsched_graph::{levels, TaskGraph, TaskId};
use dagsched_platform::{Network, ProcId, Schedule, Topology};

#[inline]
fn priority(n: TaskId, tlevel: &[u64], bl: &[u64]) -> u64 {
    tlevel[n.index()] + bl[n.index()]
}

fn append_start(g: &TaskGraph, s: &Schedule, n: TaskId, p: ProcId) -> u64 {
    let mut drt = 0u64;
    for &(q, c) in g.preds(n) {
        if let Some(pl) = s.placement(q) {
            let cost = if pl.proc == p { 0 } else { c };
            drt = drt.max(pl.finish + cost);
        }
    }
    s.timeline(p).earliest_append(drt)
}

/// DSC's oracle: clone-free DSRW (place/estimate/unplace on the live
/// schedule) and the O(1)-membership `ReadySet`, but per step an
/// O(|ready|) `argmax` scan for the free node and a full O(v + e) graph
/// scan for the partially free one. The incremental
/// `dagsched_core::unc::Dsc` replaces both scans with rekeyable
/// [`dagsched_core::common::IndexedHeap`]s and must stay
/// placement-identical.
#[derive(Debug, Default, Clone, Copy)]
pub struct DscScanBaseline;

impl Scheduler for DscScanBaseline {
    fn name(&self) -> &'static str {
        "DSC-scan-baseline"
    }

    fn class(&self) -> AlgoClass {
        AlgoClass::Unc
    }

    fn schedule(&self, g: &TaskGraph, _env: &Env) -> Result<Outcome, SchedError> {
        let v = g.num_tasks();
        let bl = g.levels().b_levels(); // static b-levels, as in the original
        let mut s = Schedule::new(v, v);
        // tlevel[n] = current estimate of n's earliest start: for scheduled
        // nodes their actual start; for unscheduled, max over scheduled
        // parents of finish + c (full c: no cluster commitment yet).
        let mut tlevel = vec![0u64; v];
        let mut ready = ReadySet::new(g);
        let mut next_fresh = 0u32; // clusters are allocated in id order
        let mut scheduled_count = 0usize;

        while scheduled_count < v {
            let nf = ready
                .argmax_by_key(|n| tlevel[n.index()] + bl[n.index()])
                .expect("acyclic graph always has a free node");

            // Highest-priority *partially free* node: unscheduled, not free,
            // with at least one scheduled parent (its start estimate is
            // meaningful).
            let pfp = partially_free_max_scan(g, &s, &ready, &tlevel, bl);

            // Candidate clusters: those of nf's parents, evaluated by the
            // start time nf would get appended there (edges from parents in
            // that cluster are zeroed).
            let mut best: Option<(u64, ProcId)> = None;
            let mut parent_procs: Vec<ProcId> = g
                .preds(nf)
                .iter()
                .filter_map(|&(q, _)| s.proc_of(q))
                .collect();
            parent_procs.sort_unstable();
            parent_procs.dedup();
            for &p in &parent_procs {
                let start = append_start(g, &s, nf, p);
                if best.is_none_or(|(bs, bp)| start < bs || (start == bs && p < bp)) {
                    best = Some((start, p));
                }
            }

            // Accept the merge only if it strictly reduces nf's t-level and
            // does not violate the DSRW guard.
            let mut placed = false;
            if let Some((start, p)) = best {
                if start < tlevel[nf.index()] {
                    let dsrw_ok = match pfp {
                        Some(pf) if priority(pf, &tlevel, bl) > priority(nf, &tlevel, bl) => {
                            // Estimate pf's start on that cluster before and
                            // after the attachment; reject if it would grow.
                            let before = append_start(g, &s, pf, p);
                            s.place(nf, p, start, g.weight(nf))
                                .expect("append start is free");
                            let after = append_start(g, &s, pf, p);
                            s.unplace(nf);
                            after <= before
                        }
                        _ => true,
                    };
                    if dsrw_ok {
                        s.place(nf, p, start, g.weight(nf))
                            .expect("append start is free");
                        tlevel[nf.index()] = start;
                        placed = true;
                    }
                }
            }
            if !placed {
                // Own (fresh) cluster at the plain t-level.
                while !s.timeline(ProcId(next_fresh)).is_empty() {
                    next_fresh += 1;
                }
                let p = ProcId(next_fresh);
                let start = tlevel[nf.index()];
                s.place(nf, p, start, g.weight(nf))
                    .expect("fresh cluster is idle");
            }
            scheduled_count += 1;

            // Propagate t-level estimates to children.
            let fin = s.finish_of(nf).expect("just placed");
            for &(c, cost) in g.succs(nf) {
                tlevel[c.index()] = tlevel[c.index()].max(fin + cost);
            }
            ready.take(g, nf);
        }

        Ok(Outcome {
            schedule: s,
            network: None,
        })
    }
}

/// The O(v + e) whole-graph scan the heap engine replaced: every step,
/// filter all tasks down to the partially free ones and max over them.
fn partially_free_max_scan(
    g: &TaskGraph,
    s: &Schedule,
    ready: &ReadySet,
    tlevel: &[u64],
    bl: &[u64],
) -> Option<TaskId> {
    g.tasks()
        .filter(|&n| s.placement(n).is_none())
        .filter(|&n| !ready.contains(n))
        .filter(|&n| g.preds(n).iter().any(|&(q, _)| s.placement(q).is_some()))
        .max_by_key(|&n| (priority(n, tlevel, bl), std::cmp::Reverse(n.0)))
}

/// The dynamic-levels oracle for MD and DCP: every placement pays a full
/// O(v + e) rebuild of the scheduled-graph view, with the same acyclicity
/// hard error and recorded-finish reads as the engine.
///
/// The scheduled-graph view (§3 of the paper: "the t-level of a node is
/// a dynamic attribute because the weight of an edge may be zeroed when
/// the two incident nodes are scheduled to the same processor") is:
///
/// * original edges, with cost 0 when both endpoints currently share a
///   processor;
/// * zero-cost *sequence edges* between consecutive tasks on each
///   processor's timeline (execution order is a real constraint);
/// * placed tasks are pinned: their t-level is their actual start time.
///
/// The incremental `dagsched_core::common::DynLevelsEngine` must stay
/// value-identical to [`DynScanBaseline::compute`] after every placement
/// (`tests/dynlevels_properties.rs`); [`MdScan`] / [`DcpScan`] drive
/// whole-schedule comparisons.
#[derive(Debug, Default, Clone, Copy)]
pub struct DynScanBaseline;

/// t-levels, b-levels and critical-path length of the scheduled-graph
/// view, as [`DynScanBaseline::compute`] returns them. `AEST`/`ALST` of
/// the DCP paper are exactly `tl` and `cp − bl` on this view.
#[derive(Debug, Clone)]
pub struct DynLevels {
    /// Absolute earliest start times (AEST in DCP terminology).
    pub tl: Vec<u64>,
    /// Bottom levels on the scheduled-graph view.
    pub bl: Vec<u64>,
    /// Current (dynamic) critical-path length: `max(tl + bl)`.
    pub cp: u64,
}

impl DynLevels {
    /// Absolute earliest start time of `n`.
    #[inline]
    pub fn aest(&self, n: TaskId) -> u64 {
        self.tl[n.index()]
    }

    /// Absolute latest start time of `n` that does not stretch the dynamic
    /// critical path.
    #[inline]
    pub fn alst(&self, n: TaskId) -> u64 {
        self.cp - self.bl[n.index()]
    }

    /// `alst − aest`: zero exactly on the dynamic critical path.
    #[inline]
    pub fn mobility(&self, n: TaskId) -> u64 {
        self.alst(n).saturating_sub(self.aest(n))
    }
}

impl DynScanBaseline {
    /// Compute levels for graph `g` under partial schedule `s`, from
    /// scratch.
    pub fn compute(g: &TaskGraph, s: &Schedule) -> DynLevels {
        let v = g.num_tasks();
        // Combined adjacency = original edges (possibly zeroed) + sequence
        // edges. Build successor lists once per call.
        let mut succs: Vec<Vec<(TaskId, u64)>> = vec![Vec::new(); v];
        let mut indeg: Vec<u32> = vec![0; v];
        for e in g.edges() {
            let cost = match (s.placement(e.src), s.placement(e.dst)) {
                (Some(a), Some(b)) if a.proc == b.proc => 0,
                _ => e.cost,
            };
            succs[e.src.index()].push((e.dst, cost));
            indeg[e.dst.index()] += 1;
        }
        for pi in 0..s.num_procs() as u32 {
            let slots = s.timeline(ProcId(pi)).slots();
            for w in slots.windows(2) {
                succs[w[0].tag.index()].push((w[1].tag, 0));
                indeg[w[1].tag.index()] += 1;
            }
        }

        // Kahn order over the combined DAG.
        let mut queue: std::collections::VecDeque<TaskId> = (0..v as u32)
            .map(TaskId)
            .filter(|n| indeg[n.index()] == 0)
            .collect();
        let mut order = Vec::with_capacity(v);
        {
            let mut indeg = indeg.clone();
            while let Some(n) = queue.pop_front() {
                order.push(n);
                for &(m, _) in &succs[n.index()] {
                    indeg[m.index()] -= 1;
                    if indeg[m.index()] == 0 {
                        queue.push_back(m);
                    }
                }
            }
        }
        // A truncated Kahn order means the schedule corrupted the combined
        // view into a cycle (e.g. a task seated on a timeline before one of
        // its ancestors); levels over a truncated order would be silent
        // garbage, so this is a hard error even in release builds.
        assert_eq!(order.len(), v, "combined scheduled graph must stay acyclic");

        // Forward pass: t-levels. Placed tasks are pinned at their actual
        // start and propagate their *recorded* finish (not `start + weight`,
        // so levels stay honest if slot durations ever diverge from
        // weights); unplaced children take the max over their parents.
        let mut tl = vec![0u64; v];
        for &n in &order {
            let finish = match s.placement(n) {
                Some(p) => {
                    tl[n.index()] = p.start;
                    p.finish
                }
                None => tl[n.index()] + g.weight(n),
            };
            for &(m, c) in &succs[n.index()] {
                if s.placement(m).is_none() {
                    let cand = finish + c;
                    if cand > tl[m.index()] {
                        tl[m.index()] = cand;
                    }
                }
            }
        }

        // Backward pass: b-levels.
        let mut bl = vec![0u64; v];
        for &n in order.iter().rev() {
            let mut best = 0u64;
            for &(m, c) in &succs[n.index()] {
                best = best.max(c + bl[m.index()]);
            }
            bl[n.index()] = g.weight(n) + best;
        }

        let cp = (0..v).map(|i| tl[i] + bl[i]).max().unwrap_or(0);
        DynLevels { tl, bl, cp }
    }
}

/// DCP's candidate processor set, as shared by the scan oracles:
/// processors holding a parent or child of `n`, plus the first idle one.
fn neighbourhood_procs_scan(g: &TaskGraph, s: &Schedule, n: TaskId) -> Vec<ProcId> {
    let mut out: Vec<ProcId> = Vec::new();
    for &(q, _) in g.preds(n).iter().chain(g.succs(n).iter()) {
        if let Some(p) = s.proc_of(q) {
            out.push(p);
        }
    }
    for pi in 0..s.num_procs() as u32 {
        if s.timeline(ProcId(pi)).is_empty() {
            out.push(ProcId(pi));
            break;
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// MD over the per-placement [`DynScanBaseline`] rescan, decision-identical
/// to `dagsched_core::unc::Md`.
#[derive(Debug, Default, Clone, Copy)]
pub struct MdScan;

impl Scheduler for MdScan {
    fn name(&self) -> &'static str {
        "MD-scan-baseline"
    }

    fn class(&self) -> AlgoClass {
        AlgoClass::Unc
    }

    fn schedule(&self, g: &TaskGraph, _env: &Env) -> Result<Outcome, SchedError> {
        let v = g.num_tasks();
        let mut s = Schedule::new(v, v);
        let mut ready = ReadySet::new(g);
        let mut used = 0u32; // processors 0..used have been opened

        while !ready.is_empty() {
            let d = DynScanBaseline::compute(g, &s);
            // Minimum relative mobility; exact comparison via
            // cross-multiplication: M(a) < M(b) ⇔ slack_a·w_b < slack_b·w_a.
            let n = ready
                .iter()
                .min_by(|&a, &b| {
                    let (sa, sb) = (d.mobility(a) as u128, d.mobility(b) as u128);
                    let (wa, wb) = (g.weight(a) as u128, g.weight(b) as u128);
                    (sa * wb)
                        .cmp(&(sb * wa))
                        .then(d.aest(a).cmp(&d.aest(b)))
                        .then(a.0.cmp(&b.0))
                })
                .expect("ready set non-empty");

            let alst = d.alst(n);
            let w = g.weight(n);
            // First used processor with an insertion slot that keeps the CP.
            let mut placed_at: Option<(ProcId, u64)> = None;
            for pi in 0..used {
                let p = ProcId(pi);
                let start = s.timeline(p).earliest_fit(drt(g, &s, n, p), w);
                if start <= alst {
                    placed_at = Some((p, start));
                    break;
                }
            }
            let (p, start) = placed_at.unwrap_or_else(|| {
                // Fresh processor: starts exactly at the t-level.
                let p = ProcId(used);
                (p, d.aest(n))
            });
            if p.0 == used {
                used += 1;
            }
            s.place(n, p, start, w).expect("chosen slot is free");
            ready.take(g, n);
        }

        Ok(Outcome {
            schedule: s,
            network: None,
        })
    }
}

/// DCP over the per-placement [`DynScanBaseline`] rescan,
/// decision-identical to `dagsched_core::unc::Dcp` with
/// the look-ahead enabled (including the repaired insertion-policy child
/// probe, so the only difference is how levels are obtained).
#[derive(Debug, Default, Clone, Copy)]
pub struct DcpScan;

impl Scheduler for DcpScan {
    fn name(&self) -> &'static str {
        "DCP-scan-baseline"
    }

    fn class(&self) -> AlgoClass {
        AlgoClass::Unc
    }

    fn schedule(&self, g: &TaskGraph, _env: &Env) -> Result<Outcome, SchedError> {
        let v = g.num_tasks();
        let mut s = Schedule::new(v, v);
        let mut ready = ReadySet::new(g);

        while !ready.is_empty() {
            let d = DynScanBaseline::compute(g, &s);
            // Smallest mobility (ALST − AEST), then smallest AEST, then id.
            let n = ready
                .iter()
                .min_by_key(|&n| (d.mobility(n), d.aest(n), n.0))
                .expect("ready set non-empty");
            let w = g.weight(n);

            // Critical child: unscheduled child with the smallest ALST.
            let crit_child: Option<TaskId> = g
                .succs(n)
                .iter()
                .map(|&(c, _)| c)
                .filter(|&c| s.placement(c).is_none())
                .min_by_key(|&c| (d.alst(c), c.0));

            let mut best: Option<(u64, u64, ProcId)> = None; // (score, start, proc)
            for p in neighbourhood_procs_scan(g, &s, n) {
                let start = s.timeline(p).earliest_fit(drt(g, &s, n, p), w);
                let score = match crit_child {
                    Some(cc) => {
                        let mut child_drt = start + w; // n → cc zeroed on p
                        for &(q, c) in g.preds(cc) {
                            if q == n {
                                continue;
                            }
                            if let Some(pl) = s.placement(q) {
                                let cost = if pl.proc == p { 0 } else { c };
                                child_drt = child_drt.max(pl.finish + cost);
                            }
                        }
                        s.place(n, p, start, w).expect("probed slot is free");
                        let child_est = s.timeline(p).earliest_fit(child_drt, g.weight(cc));
                        s.unplace(n);
                        start + child_est
                    }
                    None => start,
                };
                if best.is_none_or(|(bs, bst, bp)| (score, start, p.0) < (bs, bst, bp.0)) {
                    best = Some((score, start, p));
                }
            }
            let (_, start, p) = best.expect("neighbourhood always has a fresh candidate");
            s.place(n, p, start, w).expect("insertion slot is free");
            ready.take(g, n);
        }

        Ok(Outcome {
            schedule: s,
            network: None,
        })
    }
}

/// From-scratch replay of a full assignment over the production message
/// layer: fresh schedule, fresh [`Network`], every task appended in
/// processor round-robin as soon as its parents are placed, every
/// incoming message recommitted. `None` when the orders deadlock (a task
/// waits on a parent queued behind it on another processor).
fn replay(g: &TaskGraph, topo: &Topology, orders: &[Vec<TaskId>]) -> Option<Outcome> {
    let procs = topo.num_procs();
    let mut s = Schedule::new(g.num_tasks(), procs);
    let mut net = Network::new(topo.clone());
    let mut heads = vec![0usize; procs];
    let mut remaining = g.num_tasks();
    while remaining > 0 {
        let mut progress = false;
        for pi in 0..procs as u32 {
            let p = ProcId(pi);
            while let Some(&n) = orders[pi as usize].get(heads[pi as usize]) {
                let ready = g.preds(n).iter().all(|&(q, _)| s.placement(q).is_some());
                if !ready {
                    break;
                }
                let mut drt = 0u64;
                for &(q, c) in g.preds(n) {
                    let pl = s.placement(q).expect("parent placed");
                    let arrival = if pl.proc == p || c == 0 {
                        pl.finish
                    } else {
                        net.commit(q, n, pl.proc, p, pl.finish, c).1
                    };
                    drt = drt.max(arrival);
                }
                let start = s.timeline(p).earliest_append(drt);
                s.place(n, p, start, g.weight(n)).expect("append is free");
                heads[pi as usize] += 1;
                remaining -= 1;
                progress = true;
            }
        }
        if !progress {
            return None;
        }
    }
    Some(Outcome {
        schedule: s,
        network: Some(net),
    })
}

/// The CPN-dominant sequence, copied from `dagsched_core::apn::bsa` (the
/// oracle checks the migration phase, not the sequence construction).
fn cpn_dominant_sequence(g: &TaskGraph) -> Vec<TaskId> {
    let cp = levels::critical_path(g);
    let bl = g.levels().b_levels();
    let topo_pos: Vec<usize> = {
        let mut v = vec![0usize; g.num_tasks()];
        for (i, &n) in g.topo_order().iter().enumerate() {
            v[n.index()] = i;
        }
        v
    };
    let mut listed = vec![false; g.num_tasks()];
    let mut seq = Vec::with_capacity(g.num_tasks());
    for &cpn in &cp {
        let mut anc = Vec::new();
        let mut stack = vec![cpn];
        let mut seen = vec![false; g.num_tasks()];
        while let Some(x) = stack.pop() {
            for &(q, _) in g.preds(x) {
                if !seen[q.index()] && !listed[q.index()] {
                    seen[q.index()] = true;
                    anc.push(q);
                    stack.push(q);
                }
            }
        }
        anc.sort_unstable_by_key(|&n| topo_pos[n.index()]);
        for n in anc {
            listed[n.index()] = true;
            seq.push(n);
        }
        if !listed[cpn.index()] {
            listed[cpn.index()] = true;
            seq.push(cpn);
        }
    }
    let mut rest: Vec<TaskId> = g.tasks().filter(|n| !listed[n.index()]).collect();
    rest.sort_unstable_by_key(|&n| (std::cmp::Reverse(bl[n.index()]), n.0));
    seq.extend(rest);
    seq
}

/// BSA as a naive oracle: serial injection on the pivot, then bubbling
/// migration with a **full `replay` per candidate** (cloned orders,
/// fresh schedule and network each time). The decision rules are
/// identical to `dagsched_core::apn::Bsa`, which evaluates the same
/// candidates through an incremental rollback journal instead.
#[derive(Debug, Default, Clone, Copy)]
pub struct BsaBaseline;

impl Scheduler for BsaBaseline {
    fn name(&self) -> &'static str {
        "BSA-baseline"
    }

    fn class(&self) -> AlgoClass {
        AlgoClass::Apn
    }

    fn schedule(&self, g: &TaskGraph, env: &Env) -> Result<Outcome, SchedError> {
        if env.procs() == 0 {
            return Err(SchedError::NoProcessors);
        }
        let topo = &env.topology;
        let procs = topo.num_procs();
        let seq = cpn_dominant_sequence(g);
        let mut seq_pos = vec![0usize; g.num_tasks()];
        for (i, &n) in seq.iter().enumerate() {
            seq_pos[n.index()] = i;
        }

        let pivot = ProcId(0);
        let mut orders: Vec<Vec<TaskId>> = vec![Vec::new(); procs];
        orders[pivot.index()] = seq.clone();
        let mut st =
            replay(g, topo, &orders).expect("serial injection follows a topological order");

        for p in topo.bfs_order(pivot) {
            let snapshot = st.schedule.tasks_on(p);
            for n in snapshot {
                if st.schedule.proc_of(n) != Some(p) {
                    continue;
                }
                let cur_start = st.schedule.start_of(n).expect("placed");
                let cur_makespan = st.schedule.makespan();
                type Candidate = (u64, u64, u32, Vec<Vec<TaskId>>, Outcome);
                let mut best: Option<Candidate> = None;
                for &(q, _) in topo.neighbors(p) {
                    let mut trial = orders.clone();
                    trial[p.index()].retain(|&t| t != n);
                    let row = &mut trial[q.index()];
                    let at = row
                        .iter()
                        .position(|&t| seq_pos[t.index()] > seq_pos[n.index()])
                        .unwrap_or(row.len());
                    row.insert(at, n);
                    let Some(cand) = replay(g, topo, &trial) else {
                        continue;
                    };
                    let ns = cand.schedule.start_of(n).expect("placed in replay");
                    let nm = cand.schedule.makespan();
                    if ns <= cur_start && nm <= cur_makespan {
                        let key = (ns, nm, q.0);
                        if best
                            .as_ref()
                            .is_none_or(|(bs, bm, bq, _, _)| key < (*bs, *bm, *bq))
                        {
                            best = Some((ns, nm, q.0, trial, cand));
                        }
                    }
                }
                if let Some((_, _, _, trial, cand)) = best {
                    orders = trial;
                    st = cand;
                }
            }
        }
        Ok(st)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagsched_core::registry;
    use dagsched_suites::rgnos::{self, RgnosParams};

    /// The incremental BSA must match the replay-per-candidate oracle
    /// exactly: same placements AND the same committed message schedule,
    /// across topologies and CCR regimes.
    #[test]
    fn refactored_bsa_matches_baseline_schedules_and_messages() {
        let bsa = registry::by_name("BSA").unwrap();
        for &(v, ccr, seed) in &[(30usize, 0.5, 1u64), (50, 2.0, 2), (80, 10.0, 3)] {
            let g = rgnos::generate(RgnosParams::new(v, ccr, 3, seed));
            for topo in [
                Topology::chain(4).unwrap(),
                Topology::hypercube(3).unwrap(),
                Topology::mesh(2, 3).unwrap(),
            ] {
                let env = Env::apn(topo.clone());
                let a = BsaBaseline.schedule(&g, &env).unwrap();
                let b = bsa.schedule(&g, &env).unwrap();
                for n in g.tasks() {
                    assert_eq!(
                        a.schedule.placement(n),
                        b.schedule.placement(n),
                        "v={v} ccr={ccr} seed={seed} {:?}: task {n}",
                        topo.kind()
                    );
                }
                let msgs = |o: &Outcome| {
                    let mut m: Vec<_> = o.network.as_ref().unwrap().messages().cloned().collect();
                    m.sort_by_key(|m| (m.src_task, m.dst_task));
                    m
                };
                assert_eq!(
                    msgs(&a),
                    msgs(&b),
                    "v={v} ccr={ccr} seed={seed} {:?}: message schedules diverged",
                    topo.kind()
                );
            }
        }
    }

    /// The incremental priority-queue DSC must be **placement-identical**
    /// to the scan oracle across a multi-thousand-instance RGNOS sweep.
    /// Sizes × CCRs × parallelisms × seeds = 2250 instances, plus larger
    /// spot checks at v=400 and v=120; any divergence in heap tie-breaking
    /// or t-level bookkeeping would surface as a placement diff here.
    #[test]
    fn incremental_dsc_matches_scan_baseline_across_sweep() {
        let dsc = registry::by_name("DSC").unwrap();
        let env = Env::bnp(1); // UNC algorithms ignore the environment
        let mut instances = 0usize;
        for &v in &[12usize, 25, 40, 60, 90] {
            for &ccr in &[0.1f64, 1.0, 10.0] {
                for &par in &[1u32, 3, 5] {
                    for seed in 0..50u64 {
                        let g = rgnos::generate(RgnosParams::new(v, ccr, par, seed));
                        let a = DscScanBaseline.schedule(&g, &env).unwrap();
                        let b = dsc.schedule(&g, &env).unwrap();
                        for n in g.tasks() {
                            assert_eq!(
                                a.schedule.placement(n),
                                b.schedule.placement(n),
                                "v={v} ccr={ccr} par={par} seed={seed} task {n}"
                            );
                        }
                        instances += 1;
                    }
                }
            }
        }
        // Larger spot checks on top of the small-instance sweep.
        for &(v, ccr, seed) in &[
            (400usize, 1.0f64, 7u64),
            (400, 0.1, 8),
            (120, 1.0, 3),
            (120, 10.0, 4),
        ] {
            let g = rgnos::generate(RgnosParams::new(v, ccr, 3, seed));
            let a = DscScanBaseline.schedule(&g, &env).unwrap();
            let b = dsc.schedule(&g, &env).unwrap();
            for n in g.tasks() {
                assert_eq!(
                    a.schedule.placement(n),
                    b.schedule.placement(n),
                    "v={v} ccr={ccr} seed={seed} task {n}"
                );
            }
            instances += 1;
        }
        assert!(instances > 2000, "sweep must stay multi-thousand-instance");
    }

    /// Shared driver for the MD/DCP placement-identity sweeps: the
    /// engine-driven scheduler must match its rescan oracle on every
    /// placement across a multi-thousand-instance RGNOS sweep (sizes ×
    /// CCRs × parallelisms × seeds + paper-scale spot checks). Any
    /// divergence in the incremental level repair (a missed dirty node, a
    /// wrong sequence-edge rewire) surfaces as a placement diff here.
    fn dyn_levels_sweep(new: &dyn Scheduler, old: &dyn Scheduler) {
        let env = Env::bnp(1); // UNC algorithms ignore the environment
        let mut instances = 0usize;
        for &v in &[12usize, 25, 40, 60, 90] {
            for &ccr in &[0.1f64, 1.0, 10.0] {
                for &par in &[1u32, 3, 5] {
                    for seed in 0..45u64 {
                        let g = rgnos::generate(RgnosParams::new(v, ccr, par, seed));
                        let a = old.schedule(&g, &env).unwrap();
                        let b = new.schedule(&g, &env).unwrap();
                        for n in g.tasks() {
                            assert_eq!(
                                a.schedule.placement(n),
                                b.schedule.placement(n),
                                "{}: v={v} ccr={ccr} par={par} seed={seed} task {n}",
                                new.name(),
                            );
                        }
                        instances += 1;
                    }
                }
            }
        }
        // Paper-scale spot checks on top of the small-instance sweep.
        for &(v, ccr, seed) in &[(300usize, 1.0f64, 7u64), (300, 0.1, 8)] {
            let g = rgnos::generate(RgnosParams::new(v, ccr, 3, seed));
            let a = old.schedule(&g, &env).unwrap();
            let b = new.schedule(&g, &env).unwrap();
            for n in g.tasks() {
                assert_eq!(
                    a.schedule.placement(n),
                    b.schedule.placement(n),
                    "{}: v={v} ccr={ccr} seed={seed} task {n}",
                    new.name(),
                );
            }
            instances += 1;
        }
        assert!(instances > 2000, "sweep must stay multi-thousand-instance");
    }

    /// The engine-driven MD must be **placement-identical** to the
    /// per-placement-rescan oracle across the RGNOS sweep.
    #[test]
    fn incremental_md_matches_scan_baseline_across_sweep() {
        let md = registry::by_name("MD").unwrap();
        dyn_levels_sweep(md.as_ref(), &MdScan);
    }

    /// The engine-driven DCP must be **placement-identical** to the
    /// per-placement-rescan oracle across the RGNOS sweep.
    #[test]
    fn incremental_dcp_matches_scan_baseline_across_sweep() {
        let dcp = registry::by_name("DCP").unwrap();
        dyn_levels_sweep(dcp.as_ref(), &DcpScan);
    }

    /// The rescan oracle must carry the same acyclicity hard error as
    /// the engine (correctness fixes hold on both sides of the sweep).
    #[test]
    #[should_panic(expected = "stay acyclic")]
    fn dyn_scan_baseline_rejects_corrupt_schedules() {
        let mut gb = dagsched_graph::GraphBuilder::new();
        let a = gb.add_task(2);
        let b = gb.add_task(3);
        gb.add_edge(a, b, 5).unwrap();
        let g = gb.build().unwrap();
        let mut s = Schedule::new(g.num_tasks(), 1);
        s.place(b, ProcId(0), 0, 3).unwrap();
        s.place(a, ProcId(0), 3, 2).unwrap(); // a after its child: cycle
        let _ = DynScanBaseline::compute(&g, &s);
    }
}
