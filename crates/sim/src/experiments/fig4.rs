//! Figure 4 — cumulative distribution of client→target-path delays for
//! the `30s-160z-2000c-1000cp` configuration, all four heuristics.
//!
//! The paper plots the CDF between 250 ms (the delay bound, where the
//! curve height equals pQoS) and 500 ms (the maximum RTT, where every
//! curve reaches 1).

use crate::experiments::ExpOptions;
use crate::runner::run_experiment;
use crate::setup::SimSetup;
use dve_assign::{cdf_at, fig4_grid, CapAlgorithm, StuckPolicy};
use dve_world::ScenarioConfig;

/// One CDF series.
#[derive(Debug, Clone)]
pub struct CdfSeries {
    /// Algorithm display name.
    pub algorithm: String,
    /// CDF values aligned with [`Fig4::grid`].
    pub cdf: Vec<f64>,
}

/// Full Figure 4 result.
#[derive(Debug, Clone)]
pub struct Fig4 {
    /// Delay grid in ms (250..=500 step 25).
    pub grid: Vec<f64>,
    /// One series per heuristic, Table 1 column order.
    pub series: Vec<CdfSeries>,
}

/// Runs the Figure 4 experiment.
pub fn run(options: &ExpOptions) -> Fig4 {
    let setup = SimSetup {
        scenario: ScenarioConfig::from_notation("30s-160z-2000c-1000cp").expect("static"),
        runs: options.runs,
        base_seed: options.base_seed,
        ..Default::default()
    };
    let stats = run_experiment(&setup, &CapAlgorithm::HEURISTICS, StuckPolicy::BestEffort);
    let grid = fig4_grid();
    let series = stats
        .into_iter()
        .map(|s| CdfSeries {
            cdf: cdf_at(&s.pooled_delays, &grid),
            algorithm: s.algorithm,
        })
        .collect();
    Fig4 { grid, series }
}

impl Fig4 {
    /// Renders the CDF table (one row per grid point, one column per
    /// algorithm) — the data behind the paper's plot.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("Figure 4. Cumulative distribution of delays (30s-160z-2000c-1000cp)\n");
        out.push_str(&format!("{:<12}", "delay(ms)"));
        for s in &self.series {
            out.push_str(&format!("{:>12}", s.algorithm));
        }
        out.push('\n');
        for (k, &g) in self.grid.iter().enumerate() {
            out.push_str(&format!("{:<12.0}", g));
            for s in &self.series {
                out.push_str(&format!("{:>12.3}", s.cdf[k]));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Quick profile on a shrunken scenario shape (the real config is
    /// exercised by the bench binary).
    #[test]
    fn cdf_series_are_monotone_and_end_at_one() {
        let options = ExpOptions {
            runs: 2,
            ..ExpOptions::quick()
        };
        // Use the real entry point but with the quick run count; the
        // scenario itself is the paper's (2000 clients) — 2 runs is fine.
        let fig = run(&options);
        assert_eq!(fig.series.len(), 4);
        for s in &fig.series {
            for w in s.cdf.windows(2) {
                assert!(w[0] <= w[1] + 1e-12, "{} not monotone", s.algorithm);
            }
            let last = *s.cdf.last().unwrap();
            assert!(
                (last - 1.0).abs() < 1e-9,
                "{} should reach 1 at 500ms",
                s.algorithm
            );
        }
        let rendered = fig.render();
        assert!(rendered.contains("delay(ms)"));
    }
}
