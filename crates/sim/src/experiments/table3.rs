//! Table 3 — pQoS with DVE dynamics: the Before / After / Executed
//! protocol on `20s-80z-1000c-500cp` with `delta = 0` and the paper's
//! batch of 200 joins, 200 leaves and 200 moves.

use crate::dynamics::{run_dynamics, DynamicsRecord};
use crate::experiments::ExpOptions;
use crate::setup::SimSetup;
use dve_assign::{CapAlgorithm, StuckPolicy};
use dve_world::{DynamicsBatch, ScenarioConfig};

/// Full Table 3 result.
#[derive(Debug, Clone)]
pub struct Table3 {
    /// Algorithm display names, row order.
    pub algorithms: Vec<String>,
    /// Before/After/Executed triples per algorithm.
    pub records: Vec<DynamicsRecord>,
}

/// Runs the Table 3 experiment.
pub fn run(options: &ExpOptions) -> Table3 {
    let mut scenario = ScenarioConfig::default();
    scenario.correlation = 0.0; // the paper sets delta = 0 here
    let setup = SimSetup {
        scenario,
        runs: options.runs,
        base_seed: options.base_seed,
        ..Default::default()
    };
    let records = run_dynamics(
        &setup,
        &CapAlgorithm::HEURISTICS,
        &DynamicsBatch::paper_default(),
        StuckPolicy::BestEffort,
    );
    Table3 {
        algorithms: CapAlgorithm::HEURISTICS
            .iter()
            .map(|a| a.name().to_string())
            .collect(),
        records,
    }
}

impl Table3 {
    /// Renders the paper-style table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("Table 3. pQoS with DVE dynamics (delta = 0, 200 join/leave/move)\n");
        out.push_str(&format!(
            "{:<12}{:>10}{:>10}{:>10}\n",
            "Time", "Before", "After", "Executed"
        ));
        for (name, rec) in self.algorithms.iter().zip(&self.records) {
            out.push_str(&format!(
                "{:<12}{:>10.2}{:>10.2}{:>10.2}\n",
                name, rec.before, rec.after, rec.executed
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_lists_all_heuristics() {
        let t = Table3 {
            algorithms: CapAlgorithm::HEURISTICS
                .iter()
                .map(|a| a.name().to_string())
                .collect(),
            records: vec![
                DynamicsRecord {
                    before: 0.59,
                    after: 0.59,
                    executed: 0.59
                };
                4
            ],
        };
        let r = t.render();
        for name in ["RanZ-VirC", "RanZ-GreC", "GreZ-VirC", "GreZ-GreC"] {
            assert!(r.contains(name), "{name} missing");
        }
        assert!(r.contains("Before"));
    }
}
