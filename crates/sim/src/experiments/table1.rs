//! Table 1 — `pQoS (R)` for the four DVE configurations, all four
//! heuristics plus the exact (lp_solve-role) solver on the two small
//! configurations, with execution times.

use crate::experiments::scaling::LARGE_TIER;
use crate::experiments::{pqos_r_cell, ExpOptions};
use crate::runner::{run_experiment, AlgoStats};
use crate::setup::{build_replication, SimSetup};
use crate::stats::Summary;
use dve_assign::{
    evaluate, grec, grez_with, improve_iap_with_threads, Assignment, CapAlgorithm, CostMatrix,
    StuckPolicy,
};
use dve_world::ScenarioConfig;
use std::time::Instant;

/// One Table 1 row: a configuration and per-algorithm statistics.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Configuration notation, e.g. `20s-80z-1000c-500cp`.
    pub config: String,
    /// Stats for the four heuristics (Table 1 column order).
    pub heuristics: Vec<AlgoStats>,
    /// Stats for the exact solver, when run (small configs only).
    pub exact: Option<AlgoStats>,
}

/// Full Table 1 result.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// One row per configuration.
    pub rows: Vec<Table1Row>,
    /// Beyond-paper tiers appended with `--large`
    /// ([`ExpOptions::large_scale`]): currently the [`LARGE_TIER`]
    /// production configuration measured through the full engine
    /// pipeline (GreZ-LS-GreC). Recorded alongside the paper rows, so
    /// the bench-diff gate covers them — and the committed
    /// single-thread entry is the baseline the multi-core `mc` bench
    /// measures its speedup against.
    pub extended: Vec<Table1Row>,
}

/// The engine-pipeline display name of the extended tier's algorithm:
/// matrix build + GreZ + 2-sweep local search + GreC — the solve the
/// million/mc benches run, timed end to end over the shared matrix.
pub const GREZ_LS_GREC: &str = "GreZ-LS-GreC";

/// Measures [`GREZ_LS_GREC`] on the [`LARGE_TIER`]: per run, one
/// replication build (untimed) and one timed solve of
/// `CostMatrix::build_threads(…, 1)` + `grez_with` +
/// `improve_iap_with_threads(…, 1)` + `grec`. Runs execute **serially
/// at width 1** — this is the 1-thread baseline the multi-core `mc`
/// bench gates against, so the timings must be contention-free and
/// single-threaded regardless of the caller's `DVE_THREADS` (GreC's
/// internal scans are the one residual width-default; the bench-diff
/// job pins `DVE_THREADS=1` when regenerating the committed file).
/// Delays are not pooled (50 000 per run would dominate the JSON for
/// no gated signal).
fn grez_ls_grec_stats(options: &ExpOptions) -> AlgoStats {
    let setup = SimSetup {
        scenario: ScenarioConfig::from_notation(LARGE_TIER).expect("static notation"),
        runs: options.runs,
        base_seed: options.base_seed,
        ..Default::default()
    };
    let samples: Vec<(f64, f64, f64, bool)> = (0..options.runs)
        .map(|i| {
            let rep = build_replication(&setup, i);
            let t0 = Instant::now();
            let matrix = CostMatrix::build_threads(&rep.instance, 1);
            let mut targets = grez_with(&rep.instance, &matrix, StuckPolicy::BestEffort)
                .unwrap_or_else(|e| panic!("GreZ failed on run {i}: {e}"));
            improve_iap_with_threads(&rep.instance, &matrix, &mut targets, 2, 1);
            let contact_of_client = grec(&rep.instance, &targets);
            let exec_ms = t0.elapsed().as_secs_f64() * 1e3;
            let assignment = Assignment {
                target_of_zone: targets,
                contact_of_client,
            };
            let metrics = evaluate(&rep.instance, &assignment);
            (
                exec_ms,
                metrics.pqos,
                metrics.utilization,
                assignment.is_feasible(&rep.instance),
            )
        })
        .collect();
    AlgoStats {
        algorithm: GREZ_LS_GREC.to_string(),
        pqos: Summary::of(&samples.iter().map(|s| s.1).collect::<Vec<_>>()),
        utilization: Summary::of(&samples.iter().map(|s| s.2).collect::<Vec<_>>()),
        exec_ms: Summary::of(&samples.iter().map(|s| s.0).collect::<Vec<_>>()),
        pooled_delays: Vec::new(),
        feasible_runs: samples.iter().filter(|s| s.3).count(),
        runs: samples.len(),
    }
}

/// Runs the Table 1 experiment.
///
/// The exact solver runs only on the first `exact_configs` configurations
/// (the paper used lp_solve on the first two; the larger ones "did not
/// finish after more than 10 hours").
pub fn run(options: &ExpOptions, exact_configs: usize) -> Table1 {
    let rows = ScenarioConfig::table1_configs()
        .into_iter()
        .enumerate()
        .map(|(idx, scenario)| {
            let setup = SimSetup {
                scenario: scenario.clone(),
                runs: options.runs,
                base_seed: options.base_seed,
                ..Default::default()
            };
            let heuristics =
                run_experiment(&setup, &CapAlgorithm::HEURISTICS, StuckPolicy::BestEffort);
            let exact = (idx < exact_configs).then(|| {
                let exact_setup = SimSetup {
                    runs: options.exact_runs,
                    ..setup.clone()
                };
                run_experiment(
                    &exact_setup,
                    &[CapAlgorithm::Exact],
                    StuckPolicy::BestEffort,
                )
                .pop()
                .expect("one algorithm requested")
            });
            Table1Row {
                config: scenario.notation(),
                heuristics,
                exact,
            }
        })
        .collect();
    let extended = if options.large_scale {
        vec![Table1Row {
            config: LARGE_TIER.to_string(),
            heuristics: vec![grez_ls_grec_stats(options)],
            exact: None,
        }]
    } else {
        Vec::new()
    };
    Table1 { rows, extended }
}

impl Table1 {
    /// Renders the paper-style table, plus an execution-time appendix.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("Table 1. pQoS(R) with different configurations\n");
        out.push_str(&format!(
            "{:<24}{:>14}{:>14}{:>14}{:>14}{:>14}\n",
            "DVE conf.", "RanZ-VirC", "RanZ-GreC", "GreZ-VirC", "GreZ-GreC", "lp_solve"
        ));
        for row in &self.rows {
            out.push_str(&format!("{:<24}", row.config));
            for h in &row.heuristics {
                out.push_str(&format!(
                    "{:>14}",
                    pqos_r_cell(h.pqos.mean, h.utilization.mean)
                ));
            }
            match &row.exact {
                Some(e) => out.push_str(&format!(
                    "{:>14}",
                    pqos_r_cell(e.pqos.mean, e.utilization.mean)
                )),
                None => out.push_str(&format!("{:>14}", "-")),
            }
            out.push('\n');
        }
        out.push_str("\nExecution time (mean ms per run):\n");
        for row in &self.rows {
            out.push_str(&format!("{:<24}", row.config));
            for h in &row.heuristics {
                out.push_str(&format!("{:>14.1}", h.exec_ms.mean));
            }
            match &row.exact {
                Some(e) => out.push_str(&format!("{:>14.1}", e.exec_ms.mean)),
                None => out.push_str(&format!("{:>14}", "-")),
            }
            out.push('\n');
        }
        if !self.extended.is_empty() {
            out.push_str("\nExtended tiers (beyond paper):\n");
            for row in &self.extended {
                for algo in &row.heuristics {
                    out.push_str(&format!(
                        "{:<26}{:<14} pQoS {:.3}  exec {:.1} ms (min {:.1})\n",
                        row.config,
                        algo.algorithm,
                        algo.pqos.mean,
                        algo.exec_ms.mean,
                        algo.exec_ms.min
                    ));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_table1_has_paper_shape() {
        // Tiny replication count, exact on the first config only: checks
        // wiring, ordering and rendering rather than statistics.
        let t = run(&ExpOptions::quick(), 1);
        assert_eq!(t.rows.len(), 4);
        assert_eq!(t.rows[0].config, "5s-15z-200c-100cp");
        assert!(t.rows[0].exact.is_some());
        assert!(t.rows[1].exact.is_none());
        for row in &t.rows {
            assert_eq!(row.heuristics.len(), 4);
            for h in &row.heuristics {
                assert!((0.0..=1.0).contains(&h.pqos.mean), "{}", h.algorithm);
            }
        }
        let rendered = t.render();
        assert!(rendered.contains("GreZ-GreC"));
        assert!(rendered.contains("5s-15z-200c-100cp"));
    }
}
