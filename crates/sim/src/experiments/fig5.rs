//! Figure 5 — impact of the physical/virtual correlation parameter
//! `delta`: pQoS (a) and resource utilisation R (b) for
//! `delta in {0, 0.2, ..., 1.0}` with `D = 200 ms`.

use crate::experiments::ExpOptions;
use crate::runner::run_experiment;
use crate::setup::SimSetup;
use dve_assign::{CapAlgorithm, StuckPolicy};
use dve_world::ScenarioConfig;

/// One algorithm's series over the correlation sweep.
#[derive(Debug, Clone)]
pub struct CorrelationSeries {
    /// Algorithm display name.
    pub algorithm: String,
    /// Mean pQoS per delta.
    pub pqos: Vec<f64>,
    /// Mean utilisation per delta.
    pub utilization: Vec<f64>,
}

/// Full Figure 5 result.
#[derive(Debug, Clone)]
pub struct Fig5 {
    /// The correlation values swept.
    pub deltas: Vec<f64>,
    /// One series per heuristic.
    pub series: Vec<CorrelationSeries>,
}

/// Runs the Figure 5 sweep.
pub fn run(options: &ExpOptions) -> Fig5 {
    let deltas: Vec<f64> = (0..=5).map(|k| k as f64 * 0.2).collect();
    let mut series: Vec<CorrelationSeries> = CapAlgorithm::HEURISTICS
        .iter()
        .map(|a| CorrelationSeries {
            algorithm: a.name().to_string(),
            pqos: Vec::new(),
            utilization: Vec::new(),
        })
        .collect();
    for &delta in &deltas {
        let mut scenario = ScenarioConfig::default();
        scenario.correlation = delta;
        let setup = SimSetup {
            scenario,
            delay_bound_ms: 200.0, // the paper's Fig. 5 uses D = 200 ms
            runs: options.runs,
            base_seed: options.base_seed,
            ..Default::default()
        };
        let stats = run_experiment(&setup, &CapAlgorithm::HEURISTICS, StuckPolicy::BestEffort);
        for (k, s) in stats.into_iter().enumerate() {
            series[k].pqos.push(s.pqos.mean);
            series[k].utilization.push(s.utilization.mean);
        }
    }
    Fig5 { deltas, series }
}

impl Fig5 {
    /// Renders both panels as tables.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (title, pick) in [
            ("Figure 5(a). pQoS vs correlation (D = 200ms)", 0usize),
            ("Figure 5(b). Resource utilization vs correlation", 1),
        ] {
            out.push_str(title);
            out.push('\n');
            out.push_str(&format!("{:<12}", "delta"));
            for s in &self.series {
                out.push_str(&format!("{:>12}", s.algorithm));
            }
            out.push('\n');
            for (i, &d) in self.deltas.iter().enumerate() {
                out.push_str(&format!("{:<12.1}", d));
                for s in &self.series {
                    let v = if pick == 0 {
                        s.pqos[i]
                    } else {
                        s.utilization[i]
                    };
                    out.push_str(&format!("{:>12.3}", v));
                }
                out.push('\n');
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::TopologySpec;
    use dve_topology::HierarchicalConfig;

    /// A reduced sweep used by the unit test (2 deltas, small scenario).
    fn quick_sweep(deltas: &[f64], runs: usize) -> Vec<CorrelationSeries> {
        let mut series: Vec<CorrelationSeries> = CapAlgorithm::HEURISTICS
            .iter()
            .map(|a| CorrelationSeries {
                algorithm: a.name().to_string(),
                pqos: Vec::new(),
                utilization: Vec::new(),
            })
            .collect();
        for &delta in deltas {
            let mut scenario = ScenarioConfig::from_notation("5s-20z-200c-100cp").unwrap();
            scenario.correlation = delta;
            let setup = SimSetup {
                scenario,
                topology: TopologySpec::Hierarchical(HierarchicalConfig {
                    as_count: 5,
                    routers_per_as: 10,
                    ..Default::default()
                }),
                delay_bound_ms: 200.0,
                runs,
                ..Default::default()
            };
            let stats = run_experiment(&setup, &CapAlgorithm::HEURISTICS, StuckPolicy::BestEffort);
            for (k, s) in stats.into_iter().enumerate() {
                series[k].pqos.push(s.pqos.mean);
                series[k].utilization.push(s.utilization.mean);
            }
        }
        series
    }

    #[test]
    fn greedy_initial_benefits_from_correlation() {
        // The paper's Fig. 5 finding: GreZ-* pQoS rises with delta while
        // RanZ-* stays flat. Check the rise for GreZ-GreC on a small
        // scenario (delta 0 vs delta 1).
        let series = quick_sweep(&[0.0, 1.0], 6);
        let gzgc = series.iter().find(|s| s.algorithm == "GreZ-GreC").unwrap();
        assert!(
            gzgc.pqos[1] > gzgc.pqos[0] - 0.02,
            "GreZ-GreC should not lose from correlation: {:?}",
            gzgc.pqos
        );
        let rz = series.iter().find(|s| s.algorithm == "RanZ-VirC").unwrap();
        // RanZ-VirC is delay-oblivious: correlation moves it little.
        assert!(
            (rz.pqos[1] - rz.pqos[0]).abs() < 0.15,
            "RanZ-VirC should be ~flat: {:?}",
            rz.pqos
        );
    }

    #[test]
    fn render_contains_both_panels() {
        let fig = Fig5 {
            deltas: vec![0.0, 0.5],
            series: vec![CorrelationSeries {
                algorithm: "GreZ-GreC".into(),
                pqos: vec![0.9, 0.95],
                utilization: vec![0.66, 0.6],
            }],
        };
        let r = fig.render();
        assert!(r.contains("Figure 5(a)"));
        assert!(r.contains("Figure 5(b)"));
        assert!(r.contains("GreZ-GreC"));
    }
}
