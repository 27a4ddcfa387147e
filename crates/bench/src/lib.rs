//! # dve-bench — benchmark harness
//!
//! Two halves:
//!
//! * **Criterion benches** (`benches/`) — wall-clock timing of every
//!   algorithm and substrate, one bench file per paper table/figure plus
//!   substrate micro-benches and the ablation comparison.
//! * **Regenerator binaries** (`src/bin/`) — `table1`, `fig4_cdf`,
//!   `fig5_correlation`, `fig6_distribution`, `table3_dynamics`,
//!   `table4_error`, `ablations`, `run_all`: each re-runs the paper's
//!   experiment and prints the corresponding rows/series.
//!
//! Binaries accept `--runs N`, `--exact-runs N`, `--seed S`, `--quick`
//! (3 runs / 1 exact run) and `--large` (append the beyond-paper
//! 50 000-client scale where supported).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diff;

use diff::{Metric, Record};
use dve_assign::CapInstance;
use dve_sim::experiments::table1::Table1;
use dve_sim::experiments::ExpOptions;
use dve_sim::{build_replication, SimSetup, TopologySpec};
use dve_topology::HierarchicalConfig;
use dve_world::ScenarioConfig;
use rand::rngs::StdRng;
use std::path::{Path, PathBuf};

/// Builds a CAP instance for a scenario notation on the paper's default
/// 500-node hierarchical topology, deterministically from `seed`.
pub fn instance_for(notation: &str, seed: u64) -> (CapInstance, StdRng) {
    let setup = SimSetup {
        scenario: ScenarioConfig::from_notation(notation).expect("valid notation"),
        topology: TopologySpec::Hierarchical(HierarchicalConfig::default()),
        base_seed: seed,
        runs: 1,
        ..Default::default()
    };
    let rep = build_replication(&setup, 0);
    (rep.instance, rep.rng)
}

/// Builds a CAP instance on a scaled-down topology (5 AS x 10 routers)
/// for micro-benchmarks that should not be dominated by APSP time.
pub fn small_instance_for(notation: &str, seed: u64) -> (CapInstance, StdRng) {
    let setup = SimSetup {
        scenario: ScenarioConfig::from_notation(notation).expect("valid notation"),
        topology: TopologySpec::Hierarchical(HierarchicalConfig {
            as_count: 5,
            routers_per_as: 10,
            ..Default::default()
        }),
        base_seed: seed,
        runs: 1,
        ..Default::default()
    };
    let rep = build_replication(&setup, 0);
    (rep.instance, rep.rng)
}

/// The workspace root: committed `BENCH_<name>.json` baselines live
/// here, fresh records under `target/bench-records/`.
fn workspace_root() -> &'static Path {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels down")
}

/// Writes `record` to `target/bench-records/BENCH_<bench>.json`, never
/// into the source tree, stamping the worker width and peak RSS so
/// baselines are compared like for like (`bench_diff` refuses
/// mismatched `threads`). Returns the path written. Promoting a fresh
/// record to the committed baseline is a plain copy onto
/// `BENCH_<bench>.json` at the workspace root.
pub fn write_bench_record(mut record: Record) -> PathBuf {
    record.threads = dve_par::default_threads() as u64;
    record.peak_rss_bytes = dve_sim::peak_rss_bytes().unwrap_or(0);
    let dir = workspace_root().join("target/bench-records");
    let path = dir.join(format!("BENCH_{}.json", record.bench));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, record.to_json()))
        .unwrap_or_else(|e| panic!("could not write {}: {e}", path.display()));
    path
}

/// The committed baseline `BENCH_<name>.json` at the workspace root.
pub fn committed_record(name: &str) -> Result<Record, String> {
    Record::load(workspace_root().join(format!("BENCH_{name}.json")))
}

/// The Table 1 record: per (configuration, algorithm) pair, the
/// **minimum** solve time over the replications (`exec_ms`, gated: noise
/// on a shared runner is additive, so minima are stable where means
/// flap), plus the mean solve time, mean pQoS and mean utilisation
/// (reported). A pair whose minimum sits under 0.05 ms gets no gate
/// (microsecond timings are scheduler noise); a single-sample pair gets
/// double the slack (`rel` 0.5), since one sample has no minimum-of-N
/// protection.
pub fn table1_record(table: &Table1, options: &ExpOptions) -> Record {
    let mut record = Record::new("table1");
    record.report("runs", options.runs as f64);
    record.report("exact_runs", options.exact_runs as f64);
    record.report("base_seed", options.base_seed as f64);
    for row in table.rows.iter().chain(&table.extended) {
        for stats in row.heuristics.iter().chain(&row.exact) {
            if stats.exec_ms.n == 0 {
                continue;
            }
            let pair = format!("{}/{}", row.config, stats.algorithm);
            let exec = Metric::new(format!("{pair}/exec_ms"), stats.exec_ms.min);
            record.metrics.push(if stats.exec_ms.min < 0.05 {
                exec
            } else if stats.exec_ms.n < 2 {
                exec.lower(0.5)
            } else {
                exec.lower(0.25)
            });
            record.report(format!("{pair}/exec_mean_ms"), stats.exec_ms.mean);
            record.report(format!("{pair}/pqos"), stats.pqos.mean);
            record.report(format!("{pair}/utilization"), stats.utilization.mean);
        }
    }
    record
}

/// Parses the shared experiment flags out of `args`, returning the
/// options and the arguments it did not consume (binary-specific flags
/// like `table1`'s `--json`).
pub fn parse_options(args: &[String]) -> (ExpOptions, Vec<String>) {
    let mut options = ExpOptions::default();
    let mut rest = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => options = ExpOptions::quick(),
            "--large" => options.large_scale = true,
            "--runs" => {
                let v = iter.next().expect("--runs needs a value");
                options.runs = v.parse().expect("--runs must be an integer");
            }
            "--exact-runs" => {
                let v = iter.next().expect("--exact-runs needs a value");
                options.exact_runs = v.parse().expect("--exact-runs must be an integer");
            }
            "--seed" => {
                let v = iter.next().expect("--seed needs a value");
                options.base_seed = v.parse().expect("--seed must be an integer");
            }
            other => rest.push(other.to_string()),
        }
    }
    (options, rest)
}

/// Parses the shared binary CLI flags into experiment options, rejecting
/// anything a binary did not consume itself.
pub fn options_from_args() -> ExpOptions {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (options, rest) = parse_options(&args);
    if let Some(other) = rest.first() {
        eprintln!(
            "unknown flag {other}; supported: --quick --large --runs N --exact-runs N --seed S"
        );
        std::process::exit(2);
    }
    options
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_produce_requested_shapes() {
        let (inst, _) = small_instance_for("5s-15z-100c-100cp", 1);
        assert_eq!(inst.num_servers(), 5);
        assert_eq!(inst.num_zones(), 15);
        assert_eq!(inst.num_clients(), 100);
    }

    #[test]
    fn builders_are_deterministic() {
        let (a, _) = small_instance_for("5s-15z-100c-100cp", 9);
        let (b, _) = small_instance_for("5s-15z-100c-100cp", 9);
        assert_eq!(a.obs_cs(0, 0), b.obs_cs(0, 0));
        assert_eq!(a.zone_of(42), b.zone_of(42));
    }
}
