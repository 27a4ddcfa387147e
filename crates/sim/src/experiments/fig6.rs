//! Figure 6 — impact of client distribution types (Table 2): pQoS (a)
//! and resource utilisation R (b) for the four PW/VW clustering
//! combinations on the `20s-80z-1000c-500cp` configuration.

use crate::experiments::ExpOptions;
use crate::runner::run_experiment;
use crate::setup::SimSetup;
use dve_assign::{CapAlgorithm, StuckPolicy};
use dve_world::{DistributionType, ScenarioConfig};

/// One algorithm's series over the four distribution types.
#[derive(Debug, Clone)]
pub struct DistributionSeries {
    /// Algorithm display name.
    pub algorithm: String,
    /// Mean pQoS per distribution type (Table 2 order).
    pub pqos: Vec<f64>,
    /// Mean utilisation per distribution type.
    pub utilization: Vec<f64>,
}

/// Full Figure 6 result.
#[derive(Debug, Clone)]
pub struct Fig6 {
    /// Distribution type indices as plotted by the paper (1..=4).
    pub types: Vec<usize>,
    /// One series per heuristic.
    pub series: Vec<DistributionSeries>,
}

/// Runs the Figure 6 sweep.
///
/// The paper does not publish its hot-cluster counts; with the quadratic
/// bandwidth model, system-wide feasibility pins the virtual-world
/// clustering to about 2 hot zones at 10x (see DESIGN.md), which is the
/// scenario default. Capacity overflow is handled best-effort, as a live
/// DVE must.
pub fn run(options: &ExpOptions) -> Fig6 {
    let mut series: Vec<DistributionSeries> = CapAlgorithm::HEURISTICS
        .iter()
        .map(|a| DistributionSeries {
            algorithm: a.name().to_string(),
            pqos: Vec::new(),
            utilization: Vec::new(),
        })
        .collect();
    for dist in DistributionType::ALL {
        let mut scenario = ScenarioConfig::default();
        scenario.distribution = dist;
        let setup = SimSetup {
            scenario,
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
    Fig6 {
        types: vec![1, 2, 3, 4],
        series,
    }
}

impl Fig6 {
    /// Renders both panels as tables.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (title, pick) in [
            ("Figure 6(a). pQoS vs distribution type", 0usize),
            ("Figure 6(b). Resource utilization vs distribution type", 1),
        ] {
            out.push_str(title);
            out.push('\n');
            out.push_str(&format!("{:<12}", "type"));
            for s in &self.series {
                out.push_str(&format!("{:>12}", s.algorithm));
            }
            out.push('\n');
            for (i, t) in self.types.iter().enumerate() {
                out.push_str(&format!("{:<12}", t));
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

    #[test]
    fn virtual_clustering_raises_utilization() {
        // The paper's Fig. 6(b) finding: clustered virtual worlds (types
        // 3-4) consume much more bandwidth than uniform ones (types 1-2).
        // Reproduce on a smaller scenario for test speed.
        let mut utils = Vec::new();
        for dist in DistributionType::ALL {
            let mut scenario = ScenarioConfig::from_notation("5s-20z-250c-150cp").unwrap();
            scenario.distribution = dist;
            scenario.hot_zones = 1;
            let setup = SimSetup {
                scenario,
                topology: TopologySpec::Hierarchical(HierarchicalConfig {
                    as_count: 5,
                    routers_per_as: 10,
                    ..Default::default()
                }),
                runs: 4,
                ..Default::default()
            };
            let stats = run_experiment(&setup, &[CapAlgorithm::GreZVirC], StuckPolicy::BestEffort);
            utils.push(stats[0].utilization.mean);
        }
        // types are [uniform, pw, vw, both] in Table 2 order.
        assert!(
            utils[2] > 1.5 * utils[0],
            "VW clustering should inflate utilisation: {utils:?}"
        );
        assert!(
            utils[3] > 1.5 * utils[1],
            "VW clustering should inflate utilisation: {utils:?}"
        );
        // PW clustering alone has little bandwidth impact.
        assert!(
            (utils[1] - utils[0]).abs() < 0.15,
            "PW clustering should not change utilisation much: {utils:?}"
        );
    }

    #[test]
    fn render_shape() {
        let fig = Fig6 {
            types: vec![1, 2, 3, 4],
            series: vec![DistributionSeries {
                algorithm: "GreZ-GreC".into(),
                pqos: vec![0.94, 0.93, 0.9, 0.89],
                utilization: vec![0.66, 0.67, 0.95, 0.96],
            }],
        };
        let r = fig.render();
        assert!(r.contains("Figure 6(a)"));
        assert!(r.contains("Figure 6(b)"));
    }
}
