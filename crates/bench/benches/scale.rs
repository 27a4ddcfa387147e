//! The cost-matrix engine benchmark (perf acceptance for the
//! precomputed-`C^I` refactor).
//!
//! Two claims are checked, in release mode, every time this bench runs:
//!
//! 1. **Engine speedup** — GreZ + local search on the paper's largest
//!    Table 1 configuration (`30s-160z-2000c-1000cp`) must be at least
//!    5× faster through [`CostMatrix`]/`IncrementalEval` than through
//!    the naive per-call `iap_cost` path (kept in
//!    `dve_assign::reference`).
//! 2. **Production tier** — the beyond-paper `100s-1000z-50000c`
//!    scenario must solve end-to-end (topology → world → instance →
//!    GreZ-GreC) in under 10 seconds.
//!
//! ```bash
//! cargo bench -p dve-bench --bench scale
//! ```

use criterion::{black_box, criterion_group, Criterion};
use dve_assign::reference::{grez_reference, improve_iap_reference};
use dve_assign::{
    evaluate, grez_with, improve_iap_with, solve, CapAlgorithm, CostMatrix, StuckPolicy,
};
use dve_bench::diff::Record;
use dve_sim::experiments::scaling::LARGE_TIER;
use dve_sim::{build_replication, SimSetup, TopologySpec};
use dve_topology::HierarchicalConfig;
use dve_world::ScenarioConfig;
use std::time::Instant;

/// The paper's largest Table 1 configuration.
const TABLE1_LARGEST: &str = "30s-160z-2000c-1000cp";

fn bench_engine_vs_naive(c: &mut Criterion) {
    let (inst, _) = dve_bench::small_instance_for(TABLE1_LARGEST, 7);
    let mut group = c.benchmark_group("grez_improve/30s-160z-2000c");
    group.sample_size(10);
    group.bench_function("naive", |b| {
        b.iter(|| {
            let mut t = grez_reference(&inst, StuckPolicy::BestEffort).expect("grez");
            improve_iap_reference(&inst, &mut t, 50);
            black_box(t)
        })
    });
    group.bench_function("matrix", |b| {
        b.iter(|| {
            let matrix = CostMatrix::build(&inst);
            let mut t = grez_with(&inst, &matrix, StuckPolicy::BestEffort).expect("grez");
            improve_iap_with(&inst, &matrix, &mut t, 50);
            black_box(t)
        })
    });
    group.finish();
}

fn bench_cost_matrix_build(c: &mut Criterion) {
    let (inst, _) = dve_bench::small_instance_for(TABLE1_LARGEST, 7);
    let mut group = c.benchmark_group("cost_matrix/30s-160z-2000c");
    group.sample_size(10);
    group.bench_function("build", |b| b.iter(|| black_box(CostMatrix::build(&inst))));
    group.finish();
}

/// Wall-clock median over `reps` runs of `f`.
fn median_secs<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    times[times.len() / 2]
}

/// Acceptance check 1: the engine path is ≥ 5× the naive path.
/// Returns (naive_ms, matrix_ms).
fn check_speedup() -> (f64, f64) {
    let (inst, _) = dve_bench::small_instance_for(TABLE1_LARGEST, 7);
    // Identical results first — the speedup must not come from doing
    // different work.
    let mut naive = grez_reference(&inst, StuckPolicy::BestEffort).expect("grez");
    improve_iap_reference(&inst, &mut naive, 50);
    let matrix = CostMatrix::build(&inst);
    let mut fast = grez_with(&inst, &matrix, StuckPolicy::BestEffort).expect("grez");
    improve_iap_with(&inst, &matrix, &mut fast, 50);
    assert_eq!(naive, fast, "engine and naive paths must agree exactly");

    let naive_s = median_secs(5, || {
        let mut t = grez_reference(&inst, StuckPolicy::BestEffort).expect("grez");
        improve_iap_reference(&inst, &mut t, 50);
        black_box(t);
    });
    let fast_s = median_secs(5, || {
        let matrix = CostMatrix::build(&inst);
        let mut t = grez_with(&inst, &matrix, StuckPolicy::BestEffort).expect("grez");
        improve_iap_with(&inst, &matrix, &mut t, 50);
        black_box(t);
    });
    let speedup = naive_s / fast_s;
    println!(
        "scale/acceptance: GreZ+improve on {TABLE1_LARGEST}: naive {:.1} ms, \
         matrix {:.1} ms -> {speedup:.1}x",
        naive_s * 1e3,
        fast_s * 1e3
    );
    assert!(
        speedup >= 5.0,
        "cost-matrix engine speedup {speedup:.2}x below the required 5x"
    );
    (naive_s * 1e3, fast_s * 1e3)
}

/// Acceptance check 2: the 50 000-client tier solves end-to-end < 10 s.
/// Returns (build_s, solve_s, pqos).
fn check_large_tier() -> (f64, f64, f64) {
    let setup = SimSetup {
        scenario: ScenarioConfig::from_notation(LARGE_TIER).expect("static notation"),
        topology: TopologySpec::Hierarchical(HierarchicalConfig::default()),
        runs: 1,
        ..Default::default()
    };
    let t = Instant::now();
    let mut rep = build_replication(&setup, 0);
    let build_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let assignment = solve(
        &rep.instance,
        CapAlgorithm::GreZGreC,
        StuckPolicy::BestEffort,
        &mut rep.rng,
    )
    .expect("solve");
    let solve_s = t.elapsed().as_secs_f64();
    let metrics = evaluate(&rep.instance, &assignment);
    let total = build_s + solve_s;
    println!(
        "scale/acceptance: {LARGE_TIER} end-to-end: build {build_s:.2} s + \
         GreZ-GreC {solve_s:.2} s = {total:.2} s (pQoS {:.3})",
        metrics.pqos
    );
    assert!(
        total < 10.0,
        "large-tier end-to-end took {total:.2} s (budget 10 s)"
    );
    assert!(metrics.pqos > 0.5, "large-tier quality collapsed");
    (build_s, solve_s, metrics.pqos)
}

criterion_group!(benches, bench_engine_vs_naive, bench_cost_matrix_build);

fn main() {
    benches();
    let (naive_ms, matrix_ms) = check_speedup();
    let (build_s, solve_s, pqos) = check_large_tier();
    // Machine-readable record keyed by worker width, for the scale-mc
    // job's artifacts (bench_diff refuses cross-width comparisons).
    let mut record = Record::new("scale").with_tier(LARGE_TIER);
    record.report("grez_improve_naive_ms", naive_ms);
    record.report("grez_improve_matrix_ms", matrix_ms);
    record.report("speedup", naive_ms / matrix_ms);
    record.report("large_build_s", build_s);
    record.report("large_solve_s", solve_s);
    record.report("large_pqos", pqos);
    let path = dve_bench::write_bench_record(record);
    println!("scale: record written to {}", path.display());
}
