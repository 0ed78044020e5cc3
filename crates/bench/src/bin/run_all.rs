// Examples and bench binaries own their stdout (terminal reports).
#![allow(clippy::print_stdout)]
//! Runs the paper's experiments and streams their tables to stdout.
//!
//! ```text
//! run_all              every section, in paper order
//! run_all NAME…        only the named sections, in the order given
//! ```
//!
//! `TASKBENCH_FULL=1` switches to paper-scale sample counts. An unknown
//! name exits nonzero and lists the valid ones.
use dagsched_bench::experiments as exp;
use dagsched_bench::Config;
use dagsched_core::AlgoClass;
use dagsched_metrics::Table;
use std::process::ExitCode;

/// One experiment: its selector name, its stderr heading, and its run.
type Section = (&'static str, &'static str, fn(&Config) -> Vec<Table>);

/// Every experiment, in paper order.
const SECTIONS: [Section; 12] = [
    ("table1_psg", "Table 1", exp::table1::run),
    ("table2_rgbos_unc", "Table 2", |c| {
        exp::rgbos::run(c, AlgoClass::Unc)
    }),
    ("table3_rgbos_bnp", "Table 3", |c| {
        exp::rgbos::run(c, AlgoClass::Bnp)
    }),
    ("table4_rgpos_unc", "Table 4", |c| {
        exp::rgpos::run(c, AlgoClass::Unc)
    }),
    ("table5_rgpos_bnp", "Table 5", |c| {
        exp::rgpos::run(c, AlgoClass::Bnp)
    }),
    ("table6_runtimes", "Table 6", exp::table6::run),
    ("fig2_nsl_rgnos", "Figure 2", exp::figs::fig2),
    ("fig3_procs_rgnos", "Figure 3", exp::figs::fig3),
    ("fig4_cholesky", "Figure 4", exp::figs::fig4),
    ("apn_topology", "Topology", exp::topology::run),
    ("unc_cs", "UNC+CS", exp::unc_cs::run),
    ("ablations", "Ablations", exp::ablate::run),
];

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let selected: Vec<&Section> = if names.is_empty() {
        SECTIONS.iter().collect()
    } else {
        let mut out = Vec::new();
        for name in &names {
            match SECTIONS.iter().find(|s| s.0 == name.as_str()) {
                Some(s) => out.push(s),
                None => {
                    let valid: Vec<&str> = SECTIONS.iter().map(|s| s.0).collect();
                    eprintln!(
                        "run_all: unknown section `{name}`; valid: {}",
                        valid.join(" ")
                    );
                    return ExitCode::FAILURE;
                }
            }
        }
        out
    };
    let cfg = Config::from_env();
    eprintln!("taskbench run_all: seed={:#x} full={}", cfg.seed, cfg.full);
    for (_, heading, run) in selected {
        eprintln!("--- {heading} ---");
        exp::print_tables(&run(&cfg));
    }
    ExitCode::SUCCESS
}
