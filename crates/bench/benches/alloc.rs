//! The allocation-budget benchmark (steady-state zero-alloc acceptance
//! for the serving layer).
//!
//! Claim checked in release mode: replaying the paper's churn mix
//! (≈200 joins / 200 leaves / 200 moves per epoch) as a per-event
//! stream at the production `100s-1000z-50000c` tier, the engine's
//! **amortized allocator traffic per steady-state event** — counted by
//! a wrapper around the system allocator, after one warm-up epoch has
//! grown every scratch buffer to its high-water mark — must stay within
//! [`ALLOC_BUDGET_PER_EVENT`]. The per-event latency and pQoS floors of
//! the stream bench are asserted alongside, so pooling can never buy
//! its budget by slowing serving down.
//!
//! The counting allocator only exists under the `count-allocs` feature
//! (its atomics would tax every other bench for nothing), so this bench
//! refuses to run without it:
//!
//! ```bash
//! DVE_THREADS=1 cargo bench -p dve-bench --features count-allocs --bench alloc
//! ```

#[cfg(feature = "count-allocs")]
#[path = "support/alloc_count.rs"]
mod alloc_count;

#[cfg(feature = "count-allocs")]
#[global_allocator]
static COUNTER: alloc_count::CountingAlloc = alloc_count::CountingAlloc;

#[cfg(not(feature = "count-allocs"))]
fn main() {
    eprintln!("alloc: the counting allocator is feature-gated; run with");
    eprintln!("  DVE_THREADS=1 cargo bench -p dve-bench --features count-allocs --bench alloc");
    std::process::exit(2);
}

#[cfg(feature = "count-allocs")]
fn main() {
    use dve_assign::StuckPolicy;
    use dve_bench::diff::{Metric, Record};
    use dve_sim::experiments::scaling::LARGE_TIER;
    use dve_sim::{
        build_replication, ClientId, ServeConfig, ServeEngine, SimSetup, StreamEvent, TopologySpec,
    };
    use dve_topology::HierarchicalConfig;
    use dve_world::{ErrorModel, ScenarioConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Amortized allocations per steady-state serve event the pools
    /// must hold (the landing budget; ratchet toward 0 as the tail of
    /// unpooled paths shrinks).
    const ALLOC_BUDGET_PER_EVENT: f64 = 2.0;
    /// Steady epochs measured (600 events each, as in the stream bench).
    const EPOCHS: usize = 5;
    /// Warm-up epochs before the counters are snapshotted: the first
    /// flushes legitimately allocate while every pool grows to its
    /// high-water mark.
    const WARMUP_EPOCHS: usize = 1;
    const EVENTS_PER_EPOCH: usize = 600;
    /// The stream bench's latency gates, re-asserted here.
    const P99_BUDGET_NS: u64 = 1_000_000;
    const MEAN_BUDGET_NS: f64 = 250_000.0;

    let setup = SimSetup {
        scenario: ScenarioConfig::from_notation(LARGE_TIER).expect("static notation"),
        topology: TopologySpec::Hierarchical(HierarchicalConfig::default()),
        runs: 1,
        ..Default::default()
    };
    let rep = build_replication(&setup, 0);
    let nodes = rep.topology.node_count();
    let zones = rep.instance.num_zones();
    let mut engine = ServeEngine::new(
        rep.instance,
        &rep.world,
        rep.delays,
        ErrorModel::PERFECT,
        StuckPolicy::BestEffort,
        ServeConfig {
            max_batch: 16,
            max_staleness: 4,
            ..Default::default()
        },
        rep.rng,
    )
    .expect("tier solves");
    let initial = engine.num_clients();

    // One deterministic churn trace for warm-up and steady phases: the
    // population oscillates around its boot size, so after warm-up every
    // book and pool has seen its working capacity.
    let mut rng = StdRng::seed_from_u64(17);
    let mut live: Vec<ClientId> = (0..initial as ClientId).collect();
    let mut drive_epoch = |engine: &mut ServeEngine, live: &mut Vec<ClientId>| {
        for _ in 0..EVENTS_PER_EPOCH {
            match rng.gen_range(0..3) {
                0 if live.len() > initial / 2 => {
                    let pick = rng.gen_range(0..live.len());
                    let id = live.swap_remove(pick);
                    engine.push(StreamEvent::Leave { id }).expect("valid leave");
                }
                1 => {
                    let id = engine
                        .push(StreamEvent::Join {
                            node: rng.gen_range(0..nodes),
                            zone: rng.gen_range(0..zones),
                        })
                        .expect("valid join")
                        .expect("open admission");
                    live.push(id);
                }
                _ => {
                    let pick = rng.gen_range(0..live.len());
                    engine
                        .push(StreamEvent::Move {
                            id: live[pick],
                            zone: rng.gen_range(0..zones),
                        })
                        .expect("valid move");
                }
            }
        }
        engine.flush_now();
    };

    engine.begin_warmup();
    for _ in 0..WARMUP_EPOCHS {
        drive_epoch(&mut engine, &mut live);
    }
    engine.end_warmup();

    let (allocs_before, bytes_before) = alloc_count::totals();
    for _ in 0..EPOCHS {
        drive_epoch(&mut engine, &mut live);
    }
    let (allocs_after, bytes_after) = alloc_count::totals();

    let steady_events = (EPOCHS * EVENTS_PER_EPOCH) as u64;
    let steady_allocs = allocs_after - allocs_before;
    let steady_bytes = bytes_after - bytes_before;
    let allocs_per_event = steady_allocs as f64 / steady_events as f64;
    let bytes_per_event = steady_bytes as f64 / steady_events as f64;

    let latency = &engine.stats().latency;
    let mean = latency.mean_ns();
    let p99 = latency.quantile_upper_ns(0.99);
    let pqos = engine.metrics().pqos;
    println!(
        "alloc/acceptance: {WARMUP_EPOCHS}+{EPOCHS} epochs of ~200j/200l/200m on {LARGE_TIER} \
         (max_batch=16): {steady_allocs} allocs / {steady_bytes} bytes over {steady_events} \
         steady events = {allocs_per_event:.4} allocs/event, {bytes_per_event:.1} bytes/event"
    );
    println!(
        "alloc/latency: steady {} | pqos {pqos:.4}",
        latency.render_us()
    );
    assert_eq!(
        latency.count(),
        steady_events,
        "every steady streamed event must be measured"
    );
    assert!(
        allocs_per_event <= ALLOC_BUDGET_PER_EVENT,
        "steady-state serving allocated {allocs_per_event:.4} times per event \
         (budget {ALLOC_BUDGET_PER_EVENT})"
    );
    assert!(
        p99 <= P99_BUDGET_NS,
        "p99 per-event latency {:.1}us over the {:.1}us budget",
        p99 as f64 / 1e3,
        P99_BUDGET_NS as f64 / 1e3
    );
    assert!(
        mean <= MEAN_BUDGET_NS,
        "mean per-event latency {:.1}us over the {:.1}us budget",
        mean / 1e3,
        MEAN_BUDGET_NS / 1e3
    );
    assert!(
        pqos >= 0.85,
        "streamed pQoS {pqos:.3} collapsed at the production tier"
    );

    let mut record = Record::new("alloc").with_tier(LARGE_TIER);
    record.report("epochs", EPOCHS as f64);
    record.report("steady_events", steady_events as f64);
    record.report("steady_allocs", steady_allocs as f64);
    record.report("steady_bytes", steady_bytes as f64);
    // The zero-alloc claim is a property of this build: a baseline that
    // itself crept up must not launder further creep.
    record
        .metrics
        .push(Metric::new("allocs_per_event", allocs_per_event).abs_max(ALLOC_BUDGET_PER_EVENT));
    // Single-digit bytes per event are allocator bookkeeping, not a leak.
    record.metrics.push(
        Metric::new("bytes_per_event", bytes_per_event)
            .lower(0.25)
            .floor(8.0),
    );
    record.report("steady_mean_ns", mean);
    record.report("steady_p99_ns", p99 as f64);
    record.report("pqos", pqos);
    let path = dve_bench::write_bench_record(record);
    println!("alloc: record written to {}", path.display());
}
