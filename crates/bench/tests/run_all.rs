//! `run_all NAME…` section selection: a named section prints exactly the
//! tables its experiment renders, and an unknown name fails before any
//! experiment runs, listing the valid names.

use dagsched_bench::config::parse_config;
use dagsched_bench::experiments;
use std::process::{Command, Output};

fn run_all(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_run_all"))
        .args(args)
        .env_remove("TASKBENCH_SEED")
        .env_remove("TASKBENCH_FULL")
        .output()
        .expect("run_all starts")
}

#[test]
fn named_section_prints_only_its_tables() {
    let out = run_all(&["table1_psg"]);
    assert!(out.status.success(), "{out:?}");
    let cfg = parse_config(None, None).expect("defaults parse");
    let expected: String = experiments::table1::run(&cfg)
        .iter()
        .map(|t| format!("{}\n", t.ascii()))
        .collect();
    assert_eq!(String::from_utf8_lossy(&out.stdout), expected);
}

#[test]
fn unknown_section_fails_and_lists_the_names() {
    let out = run_all(&["table1_psg", "table7"]);
    assert!(!out.status.success());
    assert!(
        out.stdout.is_empty(),
        "no section may run before validation"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("`table7`"), "{stderr}");
    for name in ["table1_psg", "table6_runtimes", "apn_topology", "ablations"] {
        assert!(stderr.contains(name), "{name} missing from: {stderr}");
    }
}
