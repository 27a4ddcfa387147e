//! Repair study (extension): a churn time series comparing three
//! operational strategies over `ticks` rounds of join/leave/move:
//!
//! * **Never** — keep the initial assignment forever (lower bound);
//! * **Full** — re-run GreZ-GreC from scratch each tick (the paper's
//!   "re-execute" recommendation);
//! * **Repair** — incremental repair each tick (our §3.4 extension:
//!   migrate as few zones as possible).
//!
//! Reports mean pQoS across ticks, total zone migrations, and cumulative
//! assignment time per strategy.

use crate::dynamics::{carry_assignment, CarryPolicy};
use crate::experiments::ExpOptions;
use crate::repair::{repair_assignment, zone_migrations};
use crate::setup::{build_replication, SimSetup};
use crate::stats::Summary;
use dve_assign::{evaluate, grec, grez, solve, Assignment, CapAlgorithm, CapInstance, StuckPolicy};
use dve_world::{apply_dynamics, DynamicsBatch, ErrorModel};
use std::time::Instant;

/// Aggregated outcome of one strategy.
#[derive(Debug, Clone)]
pub struct StrategyStats {
    /// Strategy name.
    pub name: String,
    /// Mean pQoS across all ticks and replications.
    pub pqos: Summary,
    /// Zone migrations per tick.
    pub migrations_per_tick: Summary,
    /// Mean assignment time per tick, ms.
    pub time_ms: Summary,
}

/// Full repair-study result.
#[derive(Debug, Clone)]
pub struct RepairStudy {
    /// Ticks simulated per replication.
    pub ticks: usize,
    /// One entry per strategy: Never, Full, Repair.
    pub strategies: Vec<StrategyStats>,
}

struct StrategyState {
    assignment: Assignment,
    pqos: Vec<f64>,
    migrations: Vec<f64>,
    time_ms: Vec<f64>,
}

/// Runs the repair study: `ticks` churn rounds per replication.
pub fn run_with(options: &ExpOptions, ticks: usize, batch: DynamicsBatch) -> RepairStudy {
    let setup = SimSetup {
        runs: options.runs,
        base_seed: options.base_seed,
        ..Default::default()
    };
    let indices: Vec<usize> = (0..options.runs).collect();
    let per_run: Vec<[StrategyState; 3]> = dve_par::par_map(&indices, |&i| {
        let mut rep = build_replication(&setup, i);
        let initial = solve(
            &rep.instance,
            CapAlgorithm::GreZGreC,
            StuckPolicy::BestEffort,
            &mut rep.rng,
        )
        .expect("solve");
        let mut states: [StrategyState; 3] = [
            StrategyState {
                assignment: initial.clone(),
                pqos: vec![],
                migrations: vec![],
                time_ms: vec![],
            },
            StrategyState {
                assignment: initial.clone(),
                pqos: vec![],
                migrations: vec![],
                time_ms: vec![],
            },
            StrategyState {
                assignment: initial,
                pqos: vec![],
                migrations: vec![],
                time_ms: vec![],
            },
        ];
        let mut world = rep.world.clone();
        for _tick in 0..ticks {
            let old_zone_of: Vec<usize> = world.clients.iter().map(|c| c.zone).collect();
            let outcome = apply_dynamics(&world, &batch, rep.topology.node_count(), &mut rep.rng);
            world = outcome.world.clone();
            let inst = CapInstance::from_world(
                &world,
                &rep.delays,
                0.5,
                250.0,
                ErrorModel::PERFECT,
                dve_assign::DelayLayout::Dense64,
                &mut rep.rng,
            );
            // Carry each strategy's assignment across the churn first.
            for state in states.iter_mut() {
                state.assignment = carry_assignment(
                    &state.assignment,
                    &outcome.carried_from,
                    &old_zone_of,
                    &inst,
                    CarryPolicy::KeepContact,
                );
            }
            // Strategy 0: Never — evaluate the carried assignment as-is.
            {
                let t0 = Instant::now();
                states[0].migrations.push(0.0);
                states[0].time_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                states[0]
                    .pqos
                    .push(evaluate(&inst, &states[0].assignment).pqos);
            }
            // Strategy 1: Full re-execution (GreZ + GreC from scratch).
            {
                let prev = states[1].assignment.target_of_zone.clone();
                let t0 = Instant::now();
                let targets = grez(&inst, StuckPolicy::BestEffort).expect("best effort");
                let contacts = grec(&inst, &targets);
                let elapsed = t0.elapsed().as_secs_f64() * 1e3;
                states[1]
                    .migrations
                    .push(zone_migrations(&prev, &targets) as f64);
                states[1].assignment = Assignment {
                    target_of_zone: targets,
                    contact_of_client: contacts,
                };
                states[1].time_ms.push(elapsed);
                states[1]
                    .pqos
                    .push(evaluate(&inst, &states[1].assignment).pqos);
            }
            // Strategy 2: incremental repair.
            {
                let prev = states[2].assignment.target_of_zone.clone();
                let t0 = Instant::now();
                let out = repair_assignment(&inst, &prev);
                let elapsed = t0.elapsed().as_secs_f64() * 1e3;
                states[2].migrations.push(out.zones_migrated as f64);
                states[2].assignment = out.assignment;
                states[2].time_ms.push(elapsed);
                states[2]
                    .pqos
                    .push(evaluate(&inst, &states[2].assignment).pqos);
            }
        }
        states
    });

    let names = ["Never", "Full re-exec", "Repair"];
    let strategies = (0..3)
        .map(|k| {
            let mut pqos = Vec::new();
            let mut mig = Vec::new();
            let mut time = Vec::new();
            for run in &per_run {
                pqos.extend_from_slice(&run[k].pqos);
                mig.extend_from_slice(&run[k].migrations);
                time.extend_from_slice(&run[k].time_ms);
            }
            StrategyStats {
                name: names[k].to_string(),
                pqos: Summary::of(&pqos),
                migrations_per_tick: Summary::of(&mig),
                time_ms: Summary::of(&time),
            }
        })
        .collect();
    RepairStudy { ticks, strategies }
}

/// Runs the study with the paper's churn batch over 10 ticks.
pub fn run(options: &ExpOptions) -> RepairStudy {
    run_with(options, 10, DynamicsBatch::paper_default())
}

impl RepairStudy {
    /// Renders the comparison table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "Repair study (extension): {} churn ticks of 200 join/leave/move\n",
            self.ticks
        ));
        out.push_str(&format!(
            "{:<14}{:>10}{:>18}{:>14}\n",
            "strategy", "pQoS", "migrations/tick", "time/tick(ms)"
        ));
        for s in &self.strategies {
            out.push_str(&format!(
                "{:<14}{:>10.3}{:>18.1}{:>14.2}\n",
                s.name, s.pqos.mean, s.migrations_per_tick.mean, s.time_ms.mean
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repair_beats_never_and_migrates_less_than_full() {
        let options = ExpOptions {
            runs: 2,
            ..ExpOptions::quick()
        };
        let study = run_with(
            &options,
            4,
            DynamicsBatch {
                joins: 100,
                leaves: 100,
                moves: 100,
            },
        );
        let by = |n: &str| {
            study
                .strategies
                .iter()
                .find(|s| s.name == n)
                .unwrap()
                .clone()
        };
        let never = by("Never");
        let full = by("Full re-exec");
        let repair = by("Repair");
        assert!(
            repair.pqos.mean >= never.pqos.mean - 0.01,
            "repair {} vs never {}",
            repair.pqos.mean,
            never.pqos.mean
        );
        assert!(
            repair.migrations_per_tick.mean <= full.migrations_per_tick.mean + 1e-9,
            "repair should migrate fewer zones: {} vs {}",
            repair.migrations_per_tick.mean,
            full.migrations_per_tick.mean
        );
        assert_eq!(never.migrations_per_tick.mean, 0.0);
        let rendered = study.render();
        assert!(rendered.contains("Repair study"));
    }
}
