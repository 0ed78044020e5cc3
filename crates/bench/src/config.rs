//! Harness configuration from environment variables.
//!
//! This module is one of the three allowlisted `TASKBENCH_*` parse
//! helpers (with `ws::parse_workers` and `obs::env`) — the lint rule
//! `env-discipline` keeps every other file from reading the environment
//! directly, so each knob has exactly one parse and one default.

/// Output directory override for adversary-matrix archives
/// (`TASKBENCH_ADV_DIR`), if set.
pub fn adversary_dir() -> Option<std::path::PathBuf> {
    std::env::var_os("TASKBENCH_ADV_DIR").map(std::path::PathBuf::from)
}

/// Master seed when `TASKBENCH_SEED` is unset: the publication year.
const DEFAULT_SEED: u64 = 0x1998;

/// Parse the raw `TASKBENCH_SEED` / `TASKBENCH_FULL` values. The seed is a
/// decimal `u64` (unset or empty = `0x1998`); full is unset, empty
/// or `0` for the quick sweep and `1` for paper scale. Anything else is
/// rejected with a message rather than ignored.
pub fn parse_config(seed: Option<&str>, full: Option<&str>) -> Result<Config, String> {
    let seed = match seed {
        None | Some("") => DEFAULT_SEED,
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("TASKBENCH_SEED must be a decimal u64, got {raw:?}"))?,
    };
    let full = match full {
        None | Some("") | Some("0") => false,
        Some("1") => true,
        Some(raw) => {
            return Err(format!(
                "TASKBENCH_FULL must be unset, empty, 0 or 1, got {raw:?}"
            ))
        }
    };
    Ok(Config { seed, full })
}

/// Experiment sizing knobs.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Master seed; all per-instance seeds derive from it.
    pub seed: u64,
    /// Paper-scale sampling when true; quick (CI-sized) sweeps otherwise.
    pub full: bool,
}

impl Config {
    /// Read `TASKBENCH_SEED` / `TASKBENCH_FULL` from the environment.
    /// Panics with a clear message on a value [`parse_config`] rejects —
    /// an experiment knob that silently ignores its input is worse than
    /// no knob.
    pub fn from_env() -> Config {
        let seed = std::env::var("TASKBENCH_SEED").ok();
        let full = std::env::var("TASKBENCH_FULL").ok();
        parse_config(seed.as_deref(), full.as_deref()).unwrap_or_else(|msg| panic!("{msg}"))
    }

    /// Quick test config.
    pub fn quick(seed: u64) -> Config {
        Config { seed, full: false }
    }

    /// RGNOS samples per graph size: (ccr, parallelism) pairs.
    pub fn rgnos_points(&self) -> Vec<(f64, u32)> {
        if self.full {
            let mut v = Vec::new();
            for &ccr in &dagsched_suites::rgnos::CCRS {
                for &par in &dagsched_suites::rgnos::PARALLELISMS {
                    v.push((ccr, par));
                }
            }
            v
        } else {
            vec![(0.1, 3), (1.0, 3), (10.0, 3)]
        }
    }

    /// RGNOS graph sizes.
    pub fn rgnos_sizes(&self) -> Vec<usize> {
        if self.full {
            dagsched_suites::rgnos::sizes()
        } else {
            vec![50, 100, 200, 300, 400, 500]
        }
    }

    /// Branch-and-bound node cap for the RGBOS optimality reference.
    ///
    /// Raised (quick 400k→1M, full 8M→32M) once the parallel search paid
    /// for the extra budget: more instances *prove* instead of reporting a
    /// best-known bound, which tightens the degradation tables.
    pub fn bnb_node_limit(&self) -> u64 {
        if self.full {
            32_000_000
        } else {
            1_000_000
        }
    }

    /// "Virtually unlimited" processor count for BNP algorithms (§6.4.2):
    /// one per task, capped at 32 (no experiment in the paper benefits from
    /// more; an uncapped ETF/DLS pair scan would be quadratically slower
    /// for zero schedule-quality change).
    pub fn bnp_unlimited_procs(&self, v: usize) -> usize {
        v.min(32)
    }

    /// The APN machine of the figures: 8 processors in a hypercube
    /// ("a 500-node task graph is scheduled to 8 processors", §6.4).
    pub fn apn_topology(&self) -> dagsched_platform::Topology {
        dagsched_platform::Topology::hypercube(3).expect("dim 3 is valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_config_is_small() {
        let c = Config::quick(1);
        assert!(!c.full);
        assert_eq!(c.rgnos_points().len(), 3);
        assert!(c.bnb_node_limit() <= 1_000_000);
        assert!(
            c.bnb_node_limit()
                < Config {
                    seed: 1,
                    full: true
                }
                .bnb_node_limit()
        );
        assert_eq!(c.bnp_unlimited_procs(500), 32);
        assert_eq!(c.bnp_unlimited_procs(10), 10);
    }

    #[test]
    fn full_config_covers_the_paper_sweep() {
        let c = Config {
            seed: 1,
            full: true,
        };
        assert_eq!(c.rgnos_points().len(), 25);
        assert_eq!(c.rgnos_sizes().len(), 10);
    }

    #[test]
    fn parse_config_policy() {
        let parse = |seed, full| parse_config(seed, full).map(|c| (c.seed, c.full));
        assert_eq!(parse(None, None), Ok((DEFAULT_SEED, false)));
        assert_eq!(parse(Some(""), Some("")), Ok((DEFAULT_SEED, false)));
        assert_eq!(parse(Some("42"), Some("0")), Ok((42, false)));
        assert_eq!(parse(Some("0"), Some("1")), Ok((0, true)));
        assert_eq!(
            parse(Some("18446744073709551615"), None),
            Ok((u64::MAX, false))
        );
        let err = parse(Some("abc"), None).unwrap_err();
        assert!(
            err.contains("TASKBENCH_SEED") && err.contains("abc"),
            "{err}"
        );
        assert!(parse(Some("0x2000"), None).is_err(), "hex is not decimal");
        assert!(parse(Some("-1"), None).is_err());
        assert!(
            parse(Some("18446744073709551616"), None).is_err(),
            "overflow"
        );
        assert!(parse(None, Some("true")).is_err());
        let err = parse(None, Some("yes")).unwrap_err();
        assert!(
            err.contains("TASKBENCH_FULL") && err.contains("yes"),
            "{err}"
        );
        assert!(parse(None, Some("2")).is_err());
    }

    #[test]
    fn apn_machine_has_eight_procs() {
        let c = Config::quick(1);
        assert_eq!(c.apn_topology().num_procs(), 8);
    }
}
