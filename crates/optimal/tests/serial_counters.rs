//! Pinned serial branch-and-bound counters.
//!
//! The serial search (`threads: Some(1)`) is a deterministic depth-first
//! walk, so its optimum *and* its effort counters are fixed functions of
//! the instance. Pinning them catches any change to search decisions
//! (branch order, bound tests, duplicate detection) and to the counter
//! bookkeeping that flushes plain per-run fields into the result, which
//! a length-only check would miss.

use dagsched_optimal::{solve, OptimalParams};
use dagsched_suites::rgnos::{self, RgnosParams};

/// (seed, length, nodes_expanded, pruned) on RGNOS v=12, CCR 1.0, par 3,
/// solved on 3 processors.
const PINNED: [(u64, u64, u64, u64); 2] = [(5, 169, 1, 1), (42, 198, 15_680, 11_142)];

#[test]
fn serial_counters_are_pinned_on_rgnos_v12() {
    for (seed, length, expanded, pruned) in PINNED {
        let g = rgnos::generate(RgnosParams::new(12, 1.0, 3, seed));
        let r = solve(
            &g,
            &OptimalParams {
                procs: Some(3),
                threads: Some(1),
                ..OptimalParams::default()
            },
        );
        assert!(r.proven, "seed {seed} must prove");
        assert_eq!(
            (r.length, r.nodes_expanded, r.pruned),
            (length, expanded, pruned),
            "seed {seed}: (length, nodes_expanded, pruned)"
        );
        assert_eq!(
            r.pruned,
            r.pruned_bound + r.pruned_duplicate,
            "seed {seed}: prune breakdown must partition the aggregate"
        );
    }
}
