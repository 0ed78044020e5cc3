//! One module per experiment; every `run` function returns renderable
//! [`dagsched_metrics::Table`]s, which `run_all` prints one section at a
//! time.

pub mod ablate;
pub mod figs;
pub mod rgbos;
pub mod rgpos;
pub mod table1;
pub mod table6;
pub mod topology;
pub mod unc_cs;

use dagsched_metrics::Table;

/// Print tables to stdout with blank lines between them.
pub fn print_tables(tables: &[Table]) {
    use std::io::Write;
    let stdout = std::io::stdout();
    let mut lock = stdout.lock();
    for t in tables {
        let _ = writeln!(lock, "{}", t.ascii());
    }
}
