//! Topology-sensitivity study (extension): the paper reports "similar
//! results" between BRITE-generated and real topologies but shows only
//! the BRITE numbers. This experiment runs the default scenario over all
//! four topology families in the workspace and reports pQoS / R per
//! algorithm, so the claim can be checked rather than trusted.

use crate::experiments::ExpOptions;
use crate::runner::{run_experiment, AlgoStats};
use crate::setup::{SimSetup, TopologySpec};
use dve_assign::{CapAlgorithm, StuckPolicy};
use dve_topology::{HierarchicalConfig, TransitStubConfig, WaxmanParams};
use dve_world::ScenarioConfig;

/// Stats for one topology family.
#[derive(Debug, Clone)]
pub struct TopologyRow {
    /// Family name.
    pub family: String,
    /// Node count of the family's graphs.
    pub nodes: usize,
    /// Per-heuristic stats (Table 1 column order).
    pub stats: Vec<AlgoStats>,
}

/// Full topology study result.
#[derive(Debug, Clone)]
pub struct TopologyStudy {
    /// One row per family.
    pub rows: Vec<TopologyRow>,
}

/// Runs the study on the default scenario (the US backbone row uses a
/// scaled-down scenario since it only has 25 nodes).
pub fn run(options: &ExpOptions) -> TopologyStudy {
    let families: Vec<(String, TopologySpec, ScenarioConfig, usize)> = vec![
        (
            "hierarchical".into(),
            TopologySpec::Hierarchical(HierarchicalConfig::default()),
            ScenarioConfig::default(),
            500,
        ),
        (
            "transit-stub".into(),
            TopologySpec::TransitStub(TransitStubConfig {
                transit_nodes: 10,
                stubs_per_transit: 7,
                nodes_per_stub: 7,
                ..Default::default()
            }),
            ScenarioConfig::default(),
            10 + 10 * 7 * 7,
        ),
        (
            "flat-waxman".into(),
            TopologySpec::FlatWaxman {
                nodes: 500,
                links_per_node: 2,
                params: WaxmanParams::default(),
                plane: 1000.0,
            },
            ScenarioConfig::default(),
            500,
        ),
        (
            "us-backbone".into(),
            TopologySpec::UsBackbone,
            ScenarioConfig::from_notation("10s-40z-500c-250cp").expect("static"),
            25,
        ),
    ];
    let rows = families
        .into_iter()
        .map(|(family, topology, scenario, nodes)| {
            let setup = SimSetup {
                scenario,
                topology,
                runs: options.runs,
                base_seed: options.base_seed,
                ..Default::default()
            };
            TopologyRow {
                family,
                nodes,
                stats: run_experiment(&setup, &CapAlgorithm::HEURISTICS, StuckPolicy::BestEffort),
            }
        })
        .collect();
    TopologyStudy { rows }
}

impl TopologyStudy {
    /// Renders the per-family pQoS table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("Topology sensitivity (extension): pQoS per family\n");
        out.push_str(&format!(
            "{:<16}{:>8}{:>12}{:>12}{:>12}{:>12}\n",
            "family", "nodes", "RanZ-VirC", "RanZ-GreC", "GreZ-VirC", "GreZ-GreC"
        ));
        for row in &self.rows {
            out.push_str(&format!("{:<16}{:>8}", row.family, row.nodes));
            for s in &row.stats {
                out.push_str(&format!("{:>12.3}", s.pqos.mean));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_holds_across_families() {
        // The paper's qualitative claim: the algorithm ranking is not an
        // artifact of the BRITE topology.
        let options = ExpOptions {
            runs: 2,
            ..ExpOptions::quick()
        };
        let study = run(&options);
        assert_eq!(study.rows.len(), 4);
        for row in &study.rows {
            let pqos: Vec<f64> = row.stats.iter().map(|s| s.pqos.mean).collect();
            // GreZ-GreC (index 3) must beat RanZ-VirC (index 0) everywhere.
            assert!(
                pqos[3] > pqos[0],
                "{}: GreZ-GreC {} vs RanZ-VirC {}",
                row.family,
                pqos[3],
                pqos[0]
            );
        }
        assert!(study.render().contains("us-backbone"));
    }
}
