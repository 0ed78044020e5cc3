//! Criterion counterpart of Table 6: running time of every algorithm on
//! RGNOS graphs of growing size. The paper's claim under test is the
//! *ranking*: MCP fastest / ETF & DLS slowest in BNP; LC fastest in UNC;
//! BU fastest / DLS-APN slowest in APN.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dagsched_bench::Config;
use dagsched_core::{registry, AlgoClass, Env};
use dagsched_suites::rgnos::{self, RgnosParams};
use std::hint::black_box;

fn algo_runtimes(c: &mut Criterion) {
    let cfg = Config::quick(0x1998);
    let apn_env = Env::apn(cfg.apn_topology());

    for class in [AlgoClass::Bnp, AlgoClass::Unc, AlgoClass::Apn] {
        // APN algorithms are one to two orders of magnitude slower per run
        // (message scheduling); cap their instance sizes so `cargo bench`
        // completes in minutes, exactly like Table 6 does with samples.
        let sizes: &[usize] = if class == AlgoClass::Apn {
            &[50, 100]
        } else {
            &[50, 100, 200]
        };
        let mut group = c.benchmark_group(format!("{class}"));
        group
            .sample_size(10)
            .warm_up_time(std::time::Duration::from_millis(400))
            .measurement_time(std::time::Duration::from_secs(2));
        for &v in sizes {
            let g = rgnos::generate(RgnosParams::new(v, 1.0, 3, 42));
            let env = match class {
                AlgoClass::Apn => apn_env.clone(),
                _ => Env::bnp(cfg.bnp_unlimited_procs(v)),
            };
            for algo in registry::by_class(class) {
                group.bench_with_input(BenchmarkId::new(algo.name(), v), &g, |b, g| {
                    b.iter(|| {
                        let out = algo.schedule(black_box(g), &env).expect("schedules");
                        black_box(out.schedule.makespan())
                    })
                });
            }
        }
        group.finish();
    }
}

criterion_group!(benches, algo_runtimes);
criterion_main!(benches);
