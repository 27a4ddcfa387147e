//! The burst benchmark (line-rate acceptance for the ingest front end).
//!
//! Claim checked in release mode on every run: at the production
//! `100s-1000z-50000c` tier, churn replayed through the full ingest
//! path — SPSC [`IngestRing`] admission stamps, the `DeltaBuffer`
//! coalesce-or-shed boundary, incremental engine repairs — must
//!
//! * keep **p99.9 arrival-to-commit latency** under the budget (the
//!   end-to-end stamp: ring enqueue to the end of the applying flush),
//! * shed **no Leave, ever** (a shed departure is a phantom client), and
//! * keep the overall shed rate under 1% (bursts are absorbed, not
//!   dropped).
//!
//! Two recorded schedules are gated: `exponential` (bursty arrivals —
//! chunk sizes drawn from an exponential distribution, the classic
//! M/G/1 front-end picture) and `flash_crowd` (the
//! `examples/flash_crowd.rs` drill served live instead of re-solved:
//! 30% of the population storms the busiest zone with join/leave churn
//! on top). Producer and consumer interleave on one thread in chunks —
//! deterministic on the single-core CI box, while still exercising ring
//! occupancy and the batch/staleness flush policy. A warm-up window
//! ([`ServeEngine::begin_warmup`]) keeps cold caches out of the gated
//! quantiles, exactly like the stream bench, and the latency gate takes
//! the best of up to [`ATTEMPTS`] replays so one scheduler stall on the
//! shared runner cannot fail the build (the shed gates are asserted on
//! every replay).
//!
//! The measurements land in `target/bench-records/BENCH_burst.json`,
//! which `bench_diff` compares against the committed `BENCH_burst.json`
//! (p99.9 may not grow past +25% above a 2 ms floor; shed leaves must
//! stay zero).
//!
//! ```bash
//! cargo bench -p dve-bench --bench burst
//! ```

use dve_assign::StuckPolicy;
use dve_bench::diff::{Metric, Record};
use dve_sim::experiments::scaling::LARGE_TIER;
use dve_sim::{
    IngestConfig, IngestReport, IngestStream, ServeConfig, ServeEngine, SimSetup, TopologySpec,
};
use dve_topology::HierarchicalConfig;
use dve_world::{ErrorModel, IngestRing, ScenarioConfig, WorldEvent};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// Under `count-allocs` the run doubles as an attribution aid: the
// counting allocator is installed and the whole-run totals are printed,
// so an alloc-gate regression can be localised without a profiler.
#[cfg(feature = "count-allocs")]
#[path = "support/alloc_count.rs"]
mod alloc_count;

#[cfg(feature = "count-allocs")]
#[global_allocator]
static COUNTER: alloc_count::CountingAlloc = alloc_count::CountingAlloc;

/// Ring capacity: deep enough to hold the largest burst chunk whole.
const RING_CAP: usize = 4096;

/// `DeltaBuffer` bound behind the ring (leaves are admitted past it).
const BOUND: usize = 1024;

/// Warm-up traffic flushed into [`dve_sim::ServeStats::warmup`] before
/// the gated schedule: a multiple of `max_batch` so the buffer is empty
/// (fully flushed) when the warm-up window closes.
const WARMUP_EVENTS: usize = 640;

/// The p99.9 arrival-to-commit budget, nanoseconds (5 ms).
const P999_BUDGET_NS: u64 = 5_000_000;

/// Attempts per schedule: the **latency** gate takes the best attempt.
/// p99.9 of 16 000 samples is the worst 16, and one scheduler stall on
/// the shared single-core runner lands a whole burst (≥128 samples)
/// in the tail — a re-run shields the gate from that noise without
/// weakening it (the serving decisions are deterministic; only the
/// wall clock varies). The shed/drop gates are asserted on **every**
/// attempt.
const ATTEMPTS: usize = 3;

/// Shed budget: at most 1% of gated arrivals (ring + buffer combined).
const MAX_SHED_RATE: f64 = 0.01;

/// One gated schedule: a name and its bursts (each inner vec is pushed
/// into the ring back-to-back before the consumer pumps).
struct Schedule {
    name: &'static str,
    bursts: Vec<Vec<WorldEvent>>,
}

/// Bursty arrivals: a Table-3-style churn mix (60% moves, 20% joins,
/// 20% leaves against stable ids, never addressing a departed client)
/// arriving in chunks whose sizes are exponentially distributed — long
/// quiet runs punctuated by deep bursts.
fn exponential_schedule(clients: usize, zones: usize, nodes: usize, events: usize) -> Schedule {
    let mut rng = StdRng::seed_from_u64(0xb00);
    let mut gone = vec![false; clients];
    let mut bursts = Vec::new();
    let mut emitted = 0usize;
    while emitted < events {
        let u: f64 = rng.gen_range(0.0..1.0);
        let size = ((-48.0 * (1.0 - u).ln()).ceil() as usize).clamp(1, 512);
        let mut chunk = Vec::with_capacity(size);
        while chunk.len() < size && emitted + chunk.len() < events {
            let roll: f64 = rng.gen();
            if roll < 0.6 {
                let client = rng.gen_range(0..clients);
                if gone[client] {
                    continue;
                }
                chunk.push(WorldEvent::Move {
                    client,
                    zone: rng.gen_range(0..zones),
                });
            } else if roll < 0.8 {
                chunk.push(WorldEvent::Join {
                    node: rng.gen_range(0..nodes),
                    zone: rng.gen_range(0..zones),
                });
            } else {
                let client = rng.gen_range(0..clients);
                if gone[client] {
                    continue;
                }
                gone[client] = true;
                chunk.push(WorldEvent::Leave { client });
            }
        }
        emitted += chunk.len();
        bursts.push(chunk);
    }
    Schedule {
        name: "exponential",
        bursts,
    }
}

/// The flash-crowd drill served live: 30% of the population storms the
/// busiest zone, plus join/leave churn, arriving in 128-event bursts —
/// the worst sustained pressure the front end is specified for. (Each
/// burst group-commits as one flush, so burst depth is also the repair
/// window the tail of the burst waits behind; 128 keeps one window's
/// repair inside the latency budget even at full saturation.)
fn flash_crowd_schedule(
    zone_populations: &[usize],
    base_zone_of: &[usize],
    nodes: usize,
) -> Schedule {
    let clients = base_zone_of.len();
    let zones = zone_populations.len();
    let hot_zone = (0..zones)
        .max_by_key(|&z| zone_populations[z])
        .expect("tier has zones");
    let mut rng = StdRng::seed_from_u64(0xf1a5);
    let mut script: Vec<WorldEvent> = Vec::new();
    let mut stormers = 0usize;
    for client in 0..clients {
        if stormers >= clients * 3 / 10 {
            break;
        }
        if base_zone_of[client] != hot_zone && rng.gen::<f64>() < 0.35 {
            script.push(WorldEvent::Move {
                client,
                zone: hot_zone,
            });
            stormers += 1;
        }
    }
    for _ in 0..500 {
        script.push(WorldEvent::Join {
            node: rng.gen_range(0..nodes),
            zone: rng.gen_range(0..zones),
        });
    }
    let mut left = vec![false; clients];
    let mut departures = 0usize;
    while departures < 500 {
        let client = rng.gen_range(0..clients);
        if !left[client] {
            left[client] = true;
            script.push(WorldEvent::Leave { client });
            departures += 1;
        }
    }
    Schedule {
        name: "flash_crowd",
        bursts: script.chunks(128).map(<[WorldEvent]>::to_vec).collect(),
    }
}

/// Pushes one burst into the ring on the producer side of the
/// interleaving: leaves must always land (a full ring drains inline —
/// same thread, so blocking would deadlock), moves and joins may shed.
fn push_burst(
    burst: &[WorldEvent],
    ring: &IngestRing,
    stream: &mut IngestStream,
    engine: &mut ServeEngine,
) {
    for &ev in burst {
        if matches!(ev, WorldEvent::Leave { .. }) {
            while ring.try_push(ev).is_err() {
                stream.pump(engine, ring);
            }
        } else {
            ring.push_or_shed(ev).expect("ring open");
        }
    }
}

/// One gated row of the record.
struct Row {
    name: &'static str,
    report: IngestReport,
    ring_shed: u64,
    mean_ms: f64,
    p99_ms: f64,
    p999_ms: f64,
    p999_ns: u64,
}

/// One full replay of `schedule` through a fresh engine: asserts the
/// deterministic gates (shed leaves, drops, shed rate) and returns the
/// measured row. The latency gate is applied by the caller across
/// attempts.
fn run_schedule(setup: &SimSetup, schedule: &Schedule) -> Row {
    let rep = dve_sim::build_replication(setup, 0);
    let world = rep.world;
    let zones = world.zones;
    let clients = world.clients.len();
    let mut engine = ServeEngine::new(
        rep.instance,
        &world,
        rep.delays,
        ErrorModel::PERFECT,
        StuckPolicy::BestEffort,
        ServeConfig {
            // Align the engine's batch cap with the ingest window so a
            // group-committed burst lands as one flush (one repair),
            // not a chain of micro-flushes the tail queues behind.
            max_batch: BOUND,
            ..ServeConfig::default()
        },
        rep.rng,
    )
    .expect("tier solves");

    let ring = IngestRing::with_capacity(RING_CAP);
    let mut stream = IngestStream::new(&engine, &world, BOUND, IngestConfig::default());

    // Warm-up: population-preserving moves through the same path, timed
    // into the warm-up histogram so cold caches never touch the gate.
    let mut rng = StdRng::seed_from_u64(0x3a3);
    engine.begin_warmup();
    let warmup: Vec<WorldEvent> = (0..WARMUP_EVENTS)
        .map(|i| WorldEvent::Move {
            client: i % clients,
            zone: rng.gen_range(0..zones),
        })
        .collect();
    for chunk in warmup.chunks(256) {
        push_burst(chunk, &ring, &mut stream, &mut engine);
        stream.pump(&mut engine, &ring);
    }
    engine.end_warmup();
    let warmed = stream.report();
    assert_eq!(
        engine.stats().latency.count(),
        0,
        "burst/{}: warm-up leaked into the gated histogram",
        schedule.name
    );

    // The gated schedule: push a burst, pump, repeat.
    let bursts = schedule.bursts.len();
    for burst in &schedule.bursts {
        push_burst(burst, &ring, &mut stream, &mut engine);
        stream.pump(&mut engine, &ring);
    }
    ring.close();
    stream.pump(&mut engine, &ring);
    let mut report = stream.finish(&mut engine);

    // Strip the warm-up prologue out of the gated counters.
    report.arrivals -= warmed.arrivals;
    report.committed -= warmed.committed;
    report.flushes -= warmed.flushes;
    report.coalesced -= warmed.coalesced;
    report.ineffective -= warmed.ineffective;
    report.shed -= warmed.shed;

    let stats = engine.stats();
    let row = Row {
        name: schedule.name,
        ring_shed: ring.shed_events(),
        mean_ms: stats.latency.mean_ns() / 1e6,
        p99_ms: stats.latency.quantile_upper_ns(0.99) as f64 / 1e6,
        p999_ms: stats.latency.quantile_upper_ns(0.999) as f64 / 1e6,
        p999_ns: stats.latency.quantile_upper_ns(0.999),
        report,
    };
    println!(
        "burst/{}: {} events in {bursts} bursts on {LARGE_TIER}: committed {} flushes {} \
         coalesced {} dropped {}",
        row.name,
        row.report.arrivals,
        row.report.committed,
        row.report.flushes,
        row.report.coalesced,
        row.report.dropped
    );
    println!(
        "burst/{}: migrations {} full-repairs {} failovers {}",
        row.name, stats.zones_migrated, stats.full_repairs, stats.failovers
    );
    println!(
        "burst/{}: shed ring {} buffer {} leaves {}; arrival-to-commit mean {:.3} ms \
         p99 {:.3} ms p99.9 {:.3} ms ({} samples)",
        row.name,
        row.ring_shed,
        row.report.shed,
        row.report.shed_leaves,
        row.mean_ms,
        row.p99_ms,
        row.p999_ms,
        stats.latency.count()
    );

    // --- The gates. ---
    assert_eq!(
        row.report.shed_leaves, 0,
        "burst/{}: a departure was shed at the buffer bound",
        row.name
    );
    assert_eq!(
        row.report.dropped, 0,
        "burst/{}: the recorded schedule is well-formed; drops are a translation bug",
        row.name
    );
    let shed = row.ring_shed + row.report.shed;
    let rate = shed as f64 / row.report.arrivals as f64;
    assert!(
        rate <= MAX_SHED_RATE,
        "burst/{}: shed {shed} of {} arrivals ({:.2}% > {:.0}%)",
        row.name,
        row.report.arrivals,
        rate * 100.0,
        MAX_SHED_RATE * 100.0
    );
    row
}

/// Replays `schedule` up to [`ATTEMPTS`] times and gates p99.9 on the
/// best attempt (see [`ATTEMPTS`] for why), returning that row.
fn gate_schedule(setup: &SimSetup, schedule: &Schedule) -> Row {
    let mut best: Option<Row> = None;
    for attempt in 1..=ATTEMPTS {
        let row = run_schedule(setup, schedule);
        let p999_ns = row.p999_ns;
        if best.as_ref().is_none_or(|b| row.p999_ns < b.p999_ns) {
            best = Some(row);
        }
        if p999_ns <= P999_BUDGET_NS {
            break;
        }
        if attempt < ATTEMPTS {
            println!(
                "burst/{}: p99.9 {:.3} ms over budget, retrying ({}/{ATTEMPTS} attempts used)",
                schedule.name,
                p999_ns as f64 / 1e6,
                attempt
            );
        }
    }
    let row = best.expect("at least one attempt ran");
    assert!(
        row.p999_ns <= P999_BUDGET_NS,
        "burst/{}: best-of-{ATTEMPTS} p99.9 arrival-to-commit {:.3} ms blew the {:.1} ms budget",
        row.name,
        row.p999_ns as f64 / 1e6,
        P999_BUDGET_NS as f64 / 1e6
    );
    row
}

fn main() {
    let setup = SimSetup {
        scenario: ScenarioConfig::from_notation(LARGE_TIER).expect("static notation"),
        topology: TopologySpec::Hierarchical(HierarchicalConfig::default()),
        runs: 1,
        ..Default::default()
    };
    // One replication up front just to derive the schedules (zone
    // populations for the hot zone, node count for joins); each gated
    // run re-builds its own engine from the same seed.
    let probe = dve_sim::build_replication(&setup, 0);
    let nodes = probe.topology.node_count();
    let zone_pops = probe.world.zone_populations();
    let base_zone_of: Vec<usize> = probe.world.clients.iter().map(|c| c.zone).collect();
    let clients = probe.world.clients.len();
    let zones = probe.world.zones;
    drop(probe);

    let schedules = vec![
        flash_crowd_schedule(&zone_pops, &base_zone_of, nodes),
        exponential_schedule(clients, zones, nodes, 6_000),
    ];

    let mut record = Record::new("burst").with_tier(LARGE_TIER);
    record.report("ring", RING_CAP as f64);
    record.report("bound", BOUND as f64);
    record.report("warmup_events", WARMUP_EVENTS as f64);
    record.report("p999_budget_ms", P999_BUDGET_NS as f64 / 1e6);
    record.report("max_shed_rate", MAX_SHED_RATE);
    for schedule in schedules {
        let row = gate_schedule(&setup, &schedule);
        let name = |stat: &str| format!("{}/{stat}", row.name);
        let report = &row.report;
        record.report(name("events"), report.arrivals as f64);
        record.report(name("committed"), report.committed as f64);
        record.report(name("flushes"), report.flushes as f64);
        record.report(name("coalesced"), report.coalesced as f64);
        record.report(name("shed_events"), (row.ring_shed + report.shed) as f64);
        // A shed Leave is a phantom client, whatever the baseline says.
        record
            .metrics
            .push(Metric::new(name("shed_leaves"), report.shed_leaves as f64).abs_max(0.0));
        record.report(name("mean_ms"), row.mean_ms);
        record.report(name("p99_ms"), row.p99_ms);
        // Tails at or under 2 ms are scheduler jitter on a shared runner.
        record.metrics.push(
            Metric::new(name("p999_ms"), row.p999_ms)
                .lower(0.25)
                .floor(2.0),
        );
    }
    let path = dve_bench::write_bench_record(record);
    println!("burst: record written to {}", path.display());
    #[cfg(feature = "count-allocs")]
    {
        let (allocs, bytes) = alloc_count::totals();
        println!("burst/allocs: {allocs} allocations / {bytes} bytes over the whole run");
    }
}
