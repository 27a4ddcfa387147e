//! The churn-engine benchmark (perf acceptance for the delta-aware
//! carry of `CapInstance` + `CostMatrix` across population dynamics).
//!
//! Claim checked in release mode on every run: over epochs of the
//! paper's Table 3 batch (200 joins / 200 leaves / 200 moves) at the
//! production `100s-1000z-50000c` tier, carrying the instance and the
//! cost matrix across each [`WorldDelta`] must be at least **5× faster**
//! than the per-epoch full rebuild (`CapInstance::build` +
//! `CostMatrix::build`) — while producing a **bit-identical** matrix,
//! asserted epoch by epoch.
//!
//! ```bash
//! cargo bench -p dve-bench --bench churn
//! ```

use criterion::{black_box, criterion_group, Criterion};
use dve_assign::{CapInstance, CostMatrix, DelayLayout};
use dve_bench::diff::Record;
use dve_sim::experiments::scaling::LARGE_TIER;
use dve_sim::{build_replication, SimSetup, TopologySpec};
use dve_topology::HierarchicalConfig;
use dve_world::{apply_dynamics, DynamicsBatch, ErrorModel, ScenarioConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// The paper's largest Table 1 configuration (criterion micro tier).
const TABLE1_LARGEST: &str = "30s-160z-2000c-1000cp";

/// Churn epochs the acceptance check averages over.
const EPOCHS: usize = 5;

/// Steady-state churn at the mid tier: every iteration is one epoch —
/// draw a Table 3 batch, then bring instance + matrix up to date, either
/// by full rebuild or by the delta path. The dynamics draw is common to
/// both arms, so the difference between them is the update cost alone.
fn bench_delta_vs_rebuild(c: &mut Criterion) {
    let setup = SimSetup {
        scenario: ScenarioConfig::from_notation(TABLE1_LARGEST).expect("static notation"),
        topology: TopologySpec::Hierarchical(HierarchicalConfig {
            as_count: 5,
            routers_per_as: 10,
            ..Default::default()
        }),
        base_seed: 7,
        runs: 1,
        ..Default::default()
    };
    let rep = build_replication(&setup, 0);
    let batch = DynamicsBatch::paper_default();

    let mut group = c.benchmark_group("churn_epoch/30s-160z-2000c");
    group.sample_size(20);
    group.bench_function("full_rebuild", |b| {
        let mut world = rep.world.clone();
        let mut rng = StdRng::seed_from_u64(5);
        b.iter(|| {
            let outcome = apply_dynamics(&world, &batch, rep.topology.node_count(), &mut rng);
            let fresh = CapInstance::from_world(
                &outcome.world,
                &rep.delays,
                setup.provisioning,
                setup.delay_bound_ms,
                ErrorModel::PERFECT,
                DelayLayout::Dense64,
                &mut rng,
            );
            let matrix = CostMatrix::build(&fresh);
            world = outcome.world;
            black_box(matrix)
        })
    });
    group.bench_function("delta_update", |b| {
        let mut world = rep.world.clone();
        let mut rng = StdRng::seed_from_u64(5);
        let mut inst = Some(rep.instance.clone());
        let mut matrix = CostMatrix::build(inst.as_ref().expect("present"));
        b.iter(|| {
            let outcome = apply_dynamics(&world, &batch, rep.topology.node_count(), &mut rng);
            let cur = inst.take().expect("present");
            matrix.retire_departures(&cur, &outcome.delta);
            let carried = cur.apply_delta(&outcome, &rep.delays, ErrorModel::PERFECT, &mut rng);
            matrix.admit_arrivals(&carried, &outcome.delta);
            world = outcome.world;
            inst = Some(carried);
            black_box(&matrix);
        })
    });
    group.finish();
}

/// Acceptance: at the production tier, the delta path is ≥ 5× the full
/// rebuild per epoch and bit-identical to it. Returns
/// (full_ms_per_epoch, delta_ms_per_epoch).
fn check_churn_speedup() -> (f64, f64) {
    let setup = SimSetup {
        scenario: ScenarioConfig::from_notation(LARGE_TIER).expect("static notation"),
        topology: TopologySpec::Hierarchical(HierarchicalConfig::default()),
        runs: 1,
        ..Default::default()
    };
    let rep = build_replication(&setup, 0);
    let mut rng = rep.rng;
    let batch = DynamicsBatch::paper_default();

    let mut world = rep.world;
    let mut inst = rep.instance;
    let mut matrix = CostMatrix::build(&inst);
    let (mut full_s, mut delta_s) = (0.0f64, 0.0f64);
    for epoch in 0..EPOCHS {
        let outcome = apply_dynamics(&world, &batch, rep.topology.node_count(), &mut rng);

        // Full rebuild path: instance from the delay matrix, matrix from
        // all k clients. The RNG is untouched under the perfect error
        // model, so both paths see identical inputs.
        let t = Instant::now();
        let fresh_inst = CapInstance::from_world(
            &outcome.world,
            &rep.delays,
            setup.provisioning,
            setup.delay_bound_ms,
            ErrorModel::PERFECT,
            DelayLayout::Dense64,
            &mut rng,
        );
        let fresh_matrix = CostMatrix::build(&fresh_inst);
        full_s += t.elapsed().as_secs_f64();

        // Delta path: carry both across the WorldDelta (two-phase matrix
        // update around the consuming O(k) instance carry).
        let t = Instant::now();
        matrix.retire_departures(&inst, &outcome.delta);
        inst = inst.apply_delta(&outcome, &rep.delays, ErrorModel::PERFECT, &mut rng);
        matrix.admit_arrivals(&inst, &outcome.delta);
        delta_s += t.elapsed().as_secs_f64();

        assert_eq!(
            matrix, fresh_matrix,
            "epoch {epoch}: delta-updated matrix diverged from fresh build"
        );
        world = outcome.world;
    }

    let speedup = full_s / delta_s;
    println!(
        "churn/acceptance: {EPOCHS} epochs of 200j/200l/200m on {LARGE_TIER}: \
         full rebuild {:.1} ms/epoch, delta update {:.1} ms/epoch -> {speedup:.1}x",
        full_s * 1e3 / EPOCHS as f64,
        delta_s * 1e3 / EPOCHS as f64
    );
    assert!(
        speedup >= 5.0,
        "churn delta-update speedup {speedup:.2}x below the required 5x"
    );
    (full_s * 1e3 / EPOCHS as f64, delta_s * 1e3 / EPOCHS as f64)
}

criterion_group!(benches, bench_delta_vs_rebuild);

fn main() {
    benches();
    let (full_ms, delta_ms) = check_churn_speedup();
    let mut record = Record::new("churn").with_tier(LARGE_TIER);
    record.report("epochs", EPOCHS as f64);
    record.report("full_rebuild_ms_per_epoch", full_ms);
    record.report("delta_update_ms_per_epoch", delta_ms);
    record.report("speedup", full_ms / delta_ms);
    let path = dve_bench::write_bench_record(record);
    println!("churn: record written to {}", path.display());
}
