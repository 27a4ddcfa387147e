//! Ablation study (extension beyond the paper): how much of GreZ's
//! quality comes from the *regret ordering*, and how much head-room is
//! left to local search and simulated annealing?
//!
//! Variants compared on the IAP cost (eq. 4) and the end-to-end pQoS:
//!
//! * **GreZ** — the paper's regret-ordered greedy;
//! * **NoRegret** — same greedy, zones processed in plain index order
//!   (ablates the Romeijn–Morales ordering);
//! * **GreZ+LS** — GreZ polished by shift/swap local search;
//! * **GreZ+SA** — GreZ refined by simulated annealing;
//! * **LP-round** — LP-relaxation rounding with greedy capacity repair.

use crate::experiments::ExpOptions;
use crate::setup::{build_replication, SimSetup};
use crate::stats::Summary;
use dve_assign::{
    anneal_iap, evaluate, grec, grez, iap_total_cost, improve_iap, lp_round_iap, AnnealConfig,
    Assignment, CapInstance, StuckPolicy,
};

/// Aggregated result for one IAP variant.
#[derive(Debug, Clone)]
pub struct VariantStats {
    /// Variant name.
    pub name: String,
    /// IAP total cost (clients without QoS after phase 1).
    pub iap_cost: Summary,
    /// End-to-end pQoS with GreC refinement on top.
    pub pqos: Summary,
}

/// Full ablation result.
#[derive(Debug, Clone)]
pub struct Ablation {
    /// One entry per variant.
    pub variants: Vec<VariantStats>,
}

/// Plain greedy without regret ordering: zones in index order, each to
/// its cheapest feasible server.
fn grez_no_regret(inst: &CapInstance) -> Vec<usize> {
    let m = inst.num_servers();
    let mut target = vec![usize::MAX; inst.num_zones()];
    let mut loads = vec![0.0; m];
    for z in 0..inst.num_zones() {
        let demand = inst.zone_bps(z);
        let mut order: Vec<(f64, usize)> = (0..m).map(|s| (inst.iap_cost(s, z), s)).collect();
        order.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite").then(a.1.cmp(&b.1)));
        let mut placed = false;
        for &(_, s) in &order {
            if loads[s] + demand <= inst.capacity(s) + 1e-9 {
                target[z] = s;
                loads[s] += demand;
                placed = true;
                break;
            }
        }
        if !placed {
            // best-effort fallback (same as the named algorithms).
            let s = (0..m)
                .max_by(|&a, &b| {
                    (inst.capacity(a) - loads[a])
                        .partial_cmp(&(inst.capacity(b) - loads[b]))
                        .expect("finite")
                })
                .expect("at least one server");
            target[z] = s;
            loads[s] += demand;
        }
    }
    target
}

/// Runs the ablation on `setup`-shaped replications.
pub fn run_with_setup(setup: &SimSetup, options: &ExpOptions) -> Ablation {
    let names = ["GreZ", "NoRegret", "GreZ+LS", "GreZ+SA", "LP-round"];
    let indices: Vec<usize> = (0..options.runs).collect();
    let rows: Vec<Vec<(f64, f64)>> = dve_par::par_map(&indices, |&i| {
        let mut rep = build_replication(setup, i);
        let inst = &rep.instance;
        let base = grez(inst, StuckPolicy::BestEffort).expect("best effort cannot fail");

        let mut with_ls = base.clone();
        improve_iap(inst, &mut with_ls, 50);

        let sa = anneal_iap(
            inst,
            &base,
            &AnnealConfig {
                steps: 10_000,
                ..Default::default()
            },
            &mut rep.rng,
        );

        let lp_rounded =
            lp_round_iap(inst, StuckPolicy::BestEffort).unwrap_or_else(|_| base.clone());
        let variants = [
            base.clone(),
            grez_no_regret(inst),
            with_ls,
            sa.target_of_zone,
            lp_rounded,
        ];
        variants
            .into_iter()
            .map(|t| {
                let cost = iap_total_cost(inst, &t);
                let a = Assignment {
                    contact_of_client: grec(inst, &t),
                    target_of_zone: t,
                };
                (cost, evaluate(inst, &a).pqos)
            })
            .collect()
    });
    let variants = names
        .iter()
        .enumerate()
        .map(|(k, name)| {
            let costs: Vec<f64> = rows.iter().map(|r| r[k].0).collect();
            let pqos: Vec<f64> = rows.iter().map(|r| r[k].1).collect();
            VariantStats {
                name: name.to_string(),
                iap_cost: Summary::of(&costs),
                pqos: Summary::of(&pqos),
            }
        })
        .collect();
    Ablation { variants }
}

/// Runs the ablation on the paper's default scenario.
pub fn run(options: &ExpOptions) -> Ablation {
    let setup = SimSetup {
        runs: options.runs,
        base_seed: options.base_seed,
        ..Default::default()
    };
    run_with_setup(&setup, options)
}

impl Ablation {
    /// Renders the comparison table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("Ablation: IAP variants (cost = clients without QoS after phase 1)\n");
        out.push_str(&format!(
            "{:<12}{:>16}{:>16}\n",
            "variant", "IAP cost", "pQoS (w/ GreC)"
        ));
        for v in &self.variants {
            out.push_str(&format!(
                "{:<12}{:>16.2}{:>16.3}\n",
                v.name, v.iap_cost.mean, v.pqos.mean
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::TopologySpec;
    use dve_topology::HierarchicalConfig;
    use dve_world::ScenarioConfig;

    #[test]
    fn local_search_and_annealing_never_hurt_iap_cost() {
        let setup = SimSetup {
            scenario: ScenarioConfig::from_notation("5s-20z-200c-100cp").unwrap(),
            topology: TopologySpec::Hierarchical(HierarchicalConfig {
                as_count: 5,
                routers_per_as: 10,
                ..Default::default()
            }),
            runs: 3,
            ..Default::default()
        };
        let options = ExpOptions {
            runs: 3,
            ..ExpOptions::quick()
        };
        let ab = run_with_setup(&setup, &options);
        let by = |n: &str| ab.variants.iter().find(|v| v.name == n).unwrap();
        assert!(by("GreZ+LS").iap_cost.mean <= by("GreZ").iap_cost.mean + 1e-9);
        assert!(by("GreZ+SA").iap_cost.mean <= by("GreZ").iap_cost.mean + 1e-9);
        let r = ab.render();
        assert!(r.contains("NoRegret"));
    }
}
