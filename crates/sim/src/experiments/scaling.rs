//! Scaling study (extension): assignment time vs DVE size.
//!
//! The paper's case for heuristics is that "assignment decisions" must be
//! "timely" — all its heuristics run "in less than 1 second" while
//! lp_solve takes minutes-to-forever. This study measures how the
//! heuristics' solve times actually grow as the DVE scales from 500 to
//! 8000 clients (servers/zones scaled proportionally), validating that
//! the <1 s envelope holds far beyond the paper's largest configuration.

use crate::experiments::ExpOptions;
use crate::setup::{build_replication, SimSetup, TopologySpec};
use crate::stats::Summary;
use dve_assign::{evaluate, solve, CapAlgorithm, StuckPolicy};
use dve_topology::HierarchicalConfig;
use dve_world::ScenarioConfig;
use std::time::Instant;

/// One scale point.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// Scenario notation.
    pub config: String,
    /// Clients at this scale.
    pub clients: usize,
    /// Mean GreZ-GreC solve time, ms.
    pub grezgrec_ms: Summary,
    /// Mean GreZ-GreC pQoS (sanity: quality should not degrade).
    pub pqos: Summary,
}

/// Full scaling-study result.
#[derive(Debug, Clone)]
pub struct Scaling {
    /// One entry per scale.
    pub points: Vec<ScalePoint>,
}

/// The beyond-paper production tier: 100 servers, 1000 zones, 50 000
/// clients (25× the paper's largest Table 1 configuration). Zone
/// populations average 50, so the quadratic bandwidth model puts total
/// demand around 52 Gbps; 65 Gbps capacity leaves realistic head-room.
pub const LARGE_TIER: &str = "100s-1000z-50000c-65000cp";

/// The million-client tier of the blocked delay pipeline: 200 servers,
/// 4000 zones, 1 000 000 clients. Zone populations average 250, so the
/// quadratic bandwidth model puts expected demand near 5.0 Tbps; 6.5 Tbps
/// total capacity (32.5 Gbps per server) keeps the same ~1.3× head-room
/// as [`LARGE_TIER`]. Built only through
/// [`CapInstance::from_world`](dve_assign::CapInstance::from_world) with
/// the shared-by-node layout — a dense k×m f64 table would be 3.2 GB
/// before the solver even starts.
pub const MILLION_TIER: &str = "200s-4000z-1000000c-6500000cp";

/// Scale points beyond the paper's proportions, opened up by the
/// precomputed cost-matrix engine: a mid step and [`LARGE_TIER`].
pub fn large_tiers() -> Vec<(usize, String)> {
    vec![
        (12_000, "60s-400z-12000c-12000cp".to_string()),
        (50_000, LARGE_TIER.to_string()),
    ]
}

/// Runs the scaling study. Scales follow the paper's proportions
/// (1 server : 4 zones : 50 clients : 25 Mbps); with
/// `options.large_scale` the beyond-paper [`large_tiers`] are appended.
pub fn run(options: &ExpOptions) -> Scaling {
    let mut scales: Vec<(usize, String)> = [10usize, 20, 40, 80, 160]
        .iter()
        .map(|&s| {
            (
                s * 50,
                format!("{}s-{}z-{}c-{}cp", s, 4 * s, 50 * s, 25 * s),
            )
        })
        .collect();
    if options.large_scale {
        scales.extend(large_tiers());
    }
    let points = scales
        .into_iter()
        .map(|(clients, notation)| {
            let setup = SimSetup {
                scenario: ScenarioConfig::from_notation(&notation).expect("static"),
                topology: TopologySpec::Hierarchical(HierarchicalConfig::default()),
                runs: options.runs,
                base_seed: options.base_seed,
                ..Default::default()
            };
            let indices: Vec<usize> = (0..options.runs).collect();
            let samples: Vec<(f64, f64)> = dve_par::par_map(&indices, |&i| {
                let mut rep = build_replication(&setup, i);
                let t0 = Instant::now();
                let a = solve(
                    &rep.instance,
                    CapAlgorithm::GreZGreC,
                    StuckPolicy::BestEffort,
                    &mut rep.rng,
                )
                .expect("solve");
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                (ms, evaluate(&rep.instance, &a).pqos)
            });
            let times: Vec<f64> = samples.iter().map(|&(t, _)| t).collect();
            let pqos: Vec<f64> = samples.iter().map(|&(_, p)| p).collect();
            ScalePoint {
                config: notation,
                clients,
                grezgrec_ms: Summary::of(&times),
                pqos: Summary::of(&pqos),
            }
        })
        .collect();
    Scaling { points }
}

impl Scaling {
    /// Renders the scaling table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("Scaling study (extension): GreZ-GreC solve time vs DVE size\n");
        out.push_str(&format!(
            "{:<26}{:>10}{:>14}{:>10}\n",
            "config", "clients", "solve(ms)", "pQoS"
        ));
        for p in &self.points {
            out.push_str(&format!(
                "{:<26}{:>10}{:>14.2}{:>10.3}\n",
                p.config, p.clients, p.grezgrec_ms.mean, p.pqos.mean
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_time_stays_interactive_at_8000_clients() {
        let options = ExpOptions {
            runs: 1,
            ..ExpOptions::quick()
        };
        let s = run(&options);
        assert_eq!(s.points.len(), 5);
        let largest = s.points.last().unwrap();
        assert_eq!(largest.clients, 8000);
        // The paper's envelope: well under 1 second (debug builds are
        // slower, so allow a wide margin while still catching quadratic
        // blow-ups).
        assert!(
            largest.grezgrec_ms.mean < 30_000.0,
            "8000-client solve took {} ms",
            largest.grezgrec_ms.mean
        );
        // Quality must not collapse with scale.
        assert!(largest.pqos.mean > 0.8);
        assert!(s.render().contains("8000"));
    }

    #[test]
    fn million_tier_notation_is_valid_and_feasible() {
        use dve_world::ScenarioConfig;
        let config = ScenarioConfig::from_notation(MILLION_TIER).expect("valid tier notation");
        assert_eq!(config.clients, 1_000_000);
        assert_eq!(config.servers, 200);
        let mean_pop = config.clients / config.zones;
        let expected_demand = config.zones as f64 * config.bandwidth.zone_bps(mean_pop);
        assert!(
            expected_demand < config.total_capacity_bps,
            "{MILLION_TIER}: expected demand {expected_demand:.2e} exceeds capacity"
        );
        // Head-room comparable to the 50k tier (~1.2-1.4x).
        let headroom = config.total_capacity_bps / expected_demand;
        assert!((1.1..1.6).contains(&headroom), "head-room {headroom:.2}");
    }

    #[test]
    fn large_tier_notations_are_valid_and_appended() {
        use dve_world::ScenarioConfig;
        for (clients, notation) in large_tiers() {
            let config = ScenarioConfig::from_notation(&notation).expect("valid tier notation");
            assert_eq!(config.clients, clients);
            // The quadratic bandwidth model must fit inside the tier's
            // capacity at the mean zone population, or every replication
            // would run over budget by construction.
            let mean_pop = config.clients / config.zones;
            let expected_demand = config.zones as f64 * config.bandwidth.zone_bps(mean_pop);
            assert!(
                expected_demand < config.total_capacity_bps,
                "{notation}: expected demand {expected_demand:.2e} exceeds capacity"
            );
        }
        assert_eq!(large_tiers().last().unwrap().1, LARGE_TIER);
    }
}
