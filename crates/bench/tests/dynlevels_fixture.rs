//! Hand-checked cases for the dynamic-levels oracle
//! [`dagsched_bench::baseline::DynScanBaseline::compute`] and for the
//! incremental [`dagsched_core::common::DynLevelsEngine`] tracking it, on
//! one three-task fixture: a(2) →(5) b(3); c(4) independent.

use dagsched_bench::baseline::DynScanBaseline;
use dagsched_core::common::DynLevelsEngine;
use dagsched_graph::{GraphBuilder, TaskGraph, TaskId};
use dagsched_platform::{ProcId, Schedule};

/// a(2) →(5) b(3); c(4) independent.
fn fixture() -> TaskGraph {
    let mut gb = GraphBuilder::new();
    let a = gb.add_task(2);
    let _b = gb.add_task(3);
    let _c = gb.add_task(4);
    gb.add_edge(a, TaskId(1), 5).unwrap();
    gb.build().unwrap()
}

fn assert_matches_scan(g: &TaskGraph, s: &Schedule, e: &DynLevelsEngine) {
    let d = DynScanBaseline::compute(g, s);
    for n in g.tasks() {
        assert_eq!(e.aest(n), d.aest(n), "tl({n})");
        assert_eq!(e.blevel(n), d.bl[n.index()], "bl({n})");
    }
    assert_eq!(e.cp(), d.cp, "cp");
}

#[test]
fn unscheduled_matches_static_levels() {
    let g = fixture();
    let s = Schedule::new(g.num_tasks(), 2);
    let d = DynScanBaseline::compute(&g, &s);
    assert_eq!(d.tl, dagsched_graph::levels::t_levels(&g));
    assert_eq!(d.bl, dagsched_graph::levels::b_levels(&g));
    assert_eq!(d.cp, dagsched_graph::levels::cp_length(&g));
}

#[test]
fn same_proc_zeroes_edge() {
    let g = fixture();
    let mut s = Schedule::new(g.num_tasks(), 2);
    s.place(TaskId(0), ProcId(0), 0, 2).unwrap();
    s.place(TaskId(1), ProcId(0), 2, 3).unwrap();
    let d = DynScanBaseline::compute(&g, &s);
    // Edge a→b zeroed: bl(a) = 2 + 0 + 3 = 5 (was 2+5+3 = 10).
    assert_eq!(d.bl[0], 5);
    assert_eq!(d.tl[1], 2); // pinned at its start
    assert_eq!(d.cp, 5);
}

#[test]
fn sequence_edges_constrain_b_levels() {
    let g = fixture();
    let mut s = Schedule::new(g.num_tasks(), 2);
    // c before a on the same processor: sequence edge c→a.
    s.place(TaskId(2), ProcId(0), 0, 4).unwrap();
    s.place(TaskId(0), ProcId(0), 4, 2).unwrap();
    let d = DynScanBaseline::compute(&g, &s);
    // bl(c) = 4 + 0 + bl(a) where bl(a) = 2 + 5 + 3 = 10 → 14.
    assert_eq!(d.bl[2], 14);
    // tl(a) pinned at 4.
    assert_eq!(d.tl[0], 4);
    // b unscheduled: tl(b) = finish(a) + 5 = 11.
    assert_eq!(d.tl[1], 11);
    assert_eq!(d.cp, 14);
}

#[test]
fn pinned_start_overrides_recurrence() {
    let g = fixture();
    let mut s = Schedule::new(g.num_tasks(), 2);
    // a placed late on purpose: tl must equal the actual start.
    s.place(TaskId(0), ProcId(1), 50, 2).unwrap();
    let d = DynScanBaseline::compute(&g, &s);
    assert_eq!(d.tl[0], 50);
    assert_eq!(d.tl[1], 50 + 2 + 5);
}

#[test]
#[should_panic(expected = "stay acyclic")]
fn corrupt_schedule_is_a_hard_error() {
    // b seated *before* its parent a on the same processor: the
    // sequence edge b → a closes a cycle with the original a → b, and
    // the truncated Kahn order must abort instead of yielding garbage
    // levels silently.
    let g = fixture();
    let mut s = Schedule::new(g.num_tasks(), 1);
    s.place(TaskId(1), ProcId(0), 0, 3).unwrap();
    s.place(TaskId(0), ProcId(0), 3, 2).unwrap();
    let _ = DynScanBaseline::compute(&g, &s);
}

#[test]
fn mobility_zero_on_dynamic_cp() {
    let g = fixture();
    let s = Schedule::new(g.num_tasks(), 2);
    let d = DynScanBaseline::compute(&g, &s);
    // CP is a→b (2+5+3=10): both have zero mobility.
    assert_eq!(d.mobility(TaskId(0)), 0);
    assert_eq!(d.mobility(TaskId(1)), 0);
    // c has slack 10−4 = 6.
    assert_eq!(d.mobility(TaskId(2)), 6);
}

#[test]
fn fresh_engine_equals_static_levels() {
    let g = fixture();
    let s = Schedule::new(g.num_tasks(), 2);
    let e = DynLevelsEngine::new(&g);
    assert_matches_scan(&g, &s, &e);
    assert_eq!(e.cp(), 10);
    assert_eq!(e.mobility(TaskId(2)), 6);
}

#[test]
fn tracks_the_scan_through_a_full_schedule() {
    let g = fixture();
    let mut s = Schedule::new(g.num_tasks(), 2);
    let mut e = DynLevelsEngine::new(&g);
    for (n, p, at, w) in [
        (TaskId(2), ProcId(0), 0u64, 4u64),
        (TaskId(0), ProcId(0), 4, 2),
        (TaskId(1), ProcId(0), 6, 3),
    ] {
        s.place(n, p, at, w).unwrap();
        e.placed(&g, &s, n);
        assert_matches_scan(&g, &s, &e);
    }
    // All colocated: the a→b edge zeroed, c→a→b sequence chain.
    assert_eq!(e.cp(), 9);
}

#[test]
fn insertion_into_a_hole_rewires_sequence_edges() {
    // Seat two tasks with a gap, then insert the third into the hole:
    // the engine must replace the old sequence edge with the pair
    // around the new slot.
    let g = fixture();
    let mut s = Schedule::new(g.num_tasks(), 2);
    let mut e = DynLevelsEngine::new(&g);
    s.place(TaskId(0), ProcId(0), 0, 2).unwrap();
    e.placed(&g, &s, TaskId(0));
    s.place(TaskId(1), ProcId(0), 20, 3).unwrap();
    e.placed(&g, &s, TaskId(1));
    assert_matches_scan(&g, &s, &e);
    s.place(TaskId(2), ProcId(0), 5, 4).unwrap(); // hole [2, 20)
    e.placed(&g, &s, TaskId(2));
    assert_matches_scan(&g, &s, &e);
    // bl(a) now runs a → c → b through sequence edges: 2 + 4+... the
    // scan agrees; spot-check the headline number too.
    assert_eq!(e.blevel(TaskId(0)), 2 + 4 + 3);
}

#[test]
fn late_placement_raises_descendant_t_levels() {
    let g = fixture();
    let mut s = Schedule::new(g.num_tasks(), 2);
    let mut e = DynLevelsEngine::new(&g);
    s.place(TaskId(0), ProcId(1), 50, 2).unwrap();
    e.placed(&g, &s, TaskId(0));
    assert_eq!(e.aest(TaskId(0)), 50);
    assert_eq!(e.aest(TaskId(1)), 50 + 2 + 5);
    assert_matches_scan(&g, &s, &e);
}
