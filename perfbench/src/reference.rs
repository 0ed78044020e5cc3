//! The correctness reference: makespans of the whole roster and proven
//! branch-and-bound lengths on fixed instances that do not depend on the
//! run's seed, compared with `reference.txt` kept beside this crate.
//!
//! Per-seed outputs are checked on their own (every schedule validated,
//! every pass agreeing with the first); this file pins the values
//! themselves, so a change that alters what any algorithm computes fails
//! the run.

use crate::report::Report;
use crate::{optimal, sweep};

/// Seed of the reference instances.
pub const SEED: u64 = 20_240_601;
/// Tasks per reference sweep graph (smaller than the sweep's, to keep
/// the check cheap; same generator and parameters otherwise).
pub const SWEEP_V: usize = 100;

const COMMITTED: &str = include_str!("../reference.txt");

/// The reference lines for one workload, freshly computed.
fn lines(workload: &str) -> Result<Vec<String>, String> {
    match workload {
        "sweep" => {
            let gs = sweep::graphs(SEED, SWEEP_V);
            let names = dagsched_core::registry::names();
            let ms = sweep::makespans(&gs)?;
            Ok(names
                .iter()
                .zip(ms)
                .map(|(n, m)| format!("sweep {n} {}", join(&m)))
                .collect())
        }
        "optimal" => {
            let ls = optimal::lengths(&optimal::instances(SEED))?;
            Ok(vec![format!("optimal {}", join(&ls))])
        }
        _ => Ok(Vec::new()),
    }
}

fn join(xs: &[u64]) -> String {
    xs.iter().map(u64::to_string).collect::<Vec<_>>().join(" ")
}

/// The full reference file.
pub fn render() -> Result<String, String> {
    let mut out = String::from(
        "# Reference results on the fixed reference instances; regenerate\n\
         # with `perfbench --print-reference` only when a change is meant to\n\
         # alter what an algorithm computes.\n",
    );
    for w in ["sweep", "optimal"] {
        for l in lines(w)? {
            out.push_str(&l);
            out.push('\n');
        }
    }
    Ok(out)
}

/// Compare the workload's reference lines with the committed file; each
/// mismatch is a failed operation.
pub fn check(workload: &str, rep: &mut Report) {
    let fresh = match lines(workload) {
        Ok(l) => l,
        Err(e) => {
            rep.attempted += 1;
            rep.fail(format!("reference instances: {e}"));
            return;
        }
    };
    let prefix = format!("{workload} ");
    let committed: Vec<&str> = COMMITTED
        .lines()
        .filter(|l| l.starts_with(&prefix))
        .collect();
    rep.attempted += fresh.len() as u64;
    if fresh.len() != committed.len() {
        rep.fail(format!(
            "reference.txt has {} {workload} lines, expected {}",
            committed.len(),
            fresh.len()
        ));
        return;
    }
    for (f, c) in fresh.iter().zip(committed) {
        if f != c {
            rep.fail(format!("reference mismatch:\n  got  {f}\n  want {c}"));
        }
    }
}
