//! Width-invariance property tests for the zone-sharded serving layer:
//! a [`ShardedServeEngine`] must make **bit-identical decisions** to a
//! plain [`ServeEngine`] fed the same trace, at every shard count —
//! plain churn, and a churn+fault replay whose evacuations and
//! re-admission sweeps cross shard boundaries.

use dve_assign::StuckPolicy;
use dve_sim::{
    build_replication, run_recovery_stream, run_recovery_stream_sharded, run_stream,
    run_stream_sharded, QualityEstimator, ServeConfig, ServeEngine, ServeSink, ServeStats,
    ShardedServeEngine, SimSetup, StreamEvent, TopologySpec,
};
use dve_topology::HierarchicalConfig;
use dve_world::{DynamicsBatch, ErrorModel, FaultKind, FaultSchedule, ScenarioConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Shard widths the properties are pinned across — serial, even split,
/// uneven split, more shards than some zones' residues use.
const WIDTHS: [usize; 4] = [1, 2, 3, 8];

fn setup() -> SimSetup {
    SimSetup {
        scenario: ScenarioConfig::from_notation("8s-40z-600c-100cp").unwrap(),
        topology: TopologySpec::Hierarchical(HierarchicalConfig {
            as_count: 5,
            routers_per_as: 8,
            ..Default::default()
        }),
        runs: 1,
        ..Default::default()
    }
}

fn batch() -> DynamicsBatch {
    DynamicsBatch {
        joins: 60,
        leaves: 60,
        moves: 60,
    }
}

/// The decision-relevant counters of a [`ServeStats`]: everything but
/// the latency histograms, which record wall-clock time and are the one
/// part of a report that legitimately varies run to run.
fn decisions(stats: &ServeStats) -> [u64; 9] {
    [
        stats.events,
        stats.flushes,
        stats.zones_migrated,
        stats.full_repairs,
        stats.shed_events,
        stats.rejected_joins,
        stats.queued_joins,
        stats.failovers,
        stats.recoveries,
    ]
}

/// Plain churn: every width's sharded report equals the unsharded one —
/// same per-epoch records (pQoS is an f64, compared exactly) and same
/// lifetime counters — and the shard books account for every event.
#[test]
fn sharded_stream_is_bit_identical_across_widths() {
    let setup = setup();
    let batch = batch();
    let epochs = 4;
    let baseline = run_stream(
        &setup,
        0,
        &batch,
        epochs,
        StuckPolicy::BestEffort,
        ServeConfig::default(),
    )
    .expect("baseline run solves");
    for shards in WIDTHS {
        let (report, books) = run_stream_sharded(
            &setup,
            0,
            &batch,
            epochs,
            StuckPolicy::BestEffort,
            ServeConfig::default(),
            shards,
        )
        .expect("sharded run solves");
        assert_eq!(
            report.records, baseline.records,
            "epoch records diverged at {shards} shards"
        );
        assert_eq!(
            decisions(&report.stats),
            decisions(&baseline.stats),
            "lifetime counters diverged at {shards} shards"
        );
        assert_eq!(books.len(), shards);
        let routed: u64 = books.iter().map(|b| b.events).sum();
        assert_eq!(
            routed, report.stats.events,
            "shard books must account for every applied event at {shards} shards"
        );
        let sampled: u64 = books.iter().map(|b| b.latency.count()).sum();
        assert_eq!(routed, sampled, "one latency sample per routed event");
    }
}

/// Churn + a fail/recover schedule: the mass evacuation and the
/// re-admission sweep move zones between servers owned by different
/// shards, and the replay still matches the unsharded engine exactly at
/// every width.
#[test]
fn sharded_recovery_is_bit_identical_across_widths() {
    let setup = setup();
    let batch = batch();
    let schedule = FaultSchedule::generate(FaultKind::FailRecover { down_for: 2 }, 8, 6, 0xd1e5);
    let baseline = run_recovery_stream(
        &setup,
        0,
        &batch,
        &schedule,
        StuckPolicy::BestEffort,
        ServeConfig::default(),
        QualityEstimator::Exact,
        0.95,
    )
    .expect("baseline recovery solves");
    assert!(
        baseline.stats.failovers >= 1 && baseline.stats.recoveries >= 1,
        "the trace must actually exercise failure and recovery"
    );
    for shards in WIDTHS {
        let (report, books) = run_recovery_stream_sharded(
            &setup,
            0,
            &batch,
            &schedule,
            StuckPolicy::BestEffort,
            ServeConfig::default(),
            QualityEstimator::Exact,
            0.95,
            shards,
        )
        .expect("sharded recovery solves");
        assert_eq!(
            report.records, baseline.records,
            "recovery records diverged at {shards} shards"
        );
        assert_eq!(report.pre_pqos.to_bits(), baseline.pre_pqos.to_bits());
        assert_eq!(report.trough_pqos.to_bits(), baseline.trough_pqos.to_bits());
        assert_eq!(report.recovered_at, baseline.recovered_at);
        assert_eq!(report.events_to_recover, baseline.events_to_recover);
        assert_eq!(report.dropped_events, baseline.dropped_events);
        assert_eq!(
            decisions(&report.stats),
            decisions(&baseline.stats),
            "recovery counters diverged at {shards} shards"
        );
        let routed: u64 = books.iter().map(|b| b.events).sum();
        assert_eq!(routed, report.stats.events);
    }
}

/// Drives a sink through a fixed churn + failure + recovery script and
/// returns the engine's full decision state.
fn drive_script<E: ServeSink>(engine: &mut E) -> (Vec<usize>, Vec<usize>, usize, [u64; 9]) {
    let initial = engine.engine().num_clients() as u64;
    // Joins land in a spread of zones; leaves retire low ids; moves
    // push survivors across the zone space. All well-formed for the
    // 8s-40z-600c scenario.
    for zone in 0..24 {
        engine
            .push(StreamEvent::Join {
                node: zone % 5,
                zone,
            })
            .expect("join admitted");
    }
    for id in 0..12u64 {
        engine.push(StreamEvent::Leave { id }).expect("leave");
    }
    for id in 100..140u64 {
        engine
            .push(StreamEvent::Move {
                id,
                zone: (id as usize * 7) % 40,
            })
            .expect("move");
    }
    engine.flush_now();
    engine.fail_server(2).expect("fail");
    for id in 200..230u64 {
        engine
            .push(StreamEvent::Move {
                id,
                zone: (id as usize * 3) % 40,
            })
            .expect("move under failure");
    }
    engine.flush_now();
    engine.restore_server(2).expect("restore");
    engine.flush_now();
    let e = engine.engine();
    assert!(e.num_clients() as u64 >= initial); // joins minus leaves
    (
        e.targets().to_vec(),
        e.contacts().to_vec(),
        e.num_clients(),
        decisions(e.stats()),
    )
}

/// The strongest form of the property: the full per-client assignment
/// (target and contact servers), not just aggregate reports, is
/// bit-identical between a plain engine and the sharded engine at every
/// width — through a script that fails and restores a server, so
/// evacuation and re-admission cross shard boundaries.
#[test]
fn sharded_assignments_equal_unsharded_per_client() {
    let setup = setup();
    let boot = |_w: usize| {
        let rep = build_replication(&setup, 0);
        (rep.instance, rep.world, rep.delays)
    };
    let (instance, world, delays) = boot(0);
    let mut plain = ServeEngine::new(
        instance,
        &world,
        delays,
        ErrorModel::PERFECT,
        StuckPolicy::BestEffort,
        ServeConfig::default(),
        StdRng::seed_from_u64(0xbeef),
    )
    .expect("plain engine solves");
    let baseline = drive_script(&mut plain);
    for shards in WIDTHS {
        let (instance, world, delays) = boot(shards);
        let mut sharded = ShardedServeEngine::new(
            instance,
            &world,
            delays,
            ErrorModel::PERFECT,
            StuckPolicy::BestEffort,
            ServeConfig::default(),
            StdRng::seed_from_u64(0xbeef),
            shards,
        )
        .expect("sharded engine solves");
        let got = drive_script(&mut sharded);
        assert_eq!(
            got, baseline,
            "per-client targets/contacts diverged at {shards} shards"
        );
        // The books routed exactly the applied events, and merging the
        // shard histograms reproduces the engine's own (warm-up plus
        // steady) latency record.
        let routed: u64 = sharded.shard_stats().iter().map(|b| b.events).sum();
        assert_eq!(routed, sharded.engine().stats().events);
        let mut engine_book = sharded.engine().stats().warmup.clone();
        engine_book.merge(&sharded.engine().stats().latency);
        assert_eq!(sharded.merged_latency(), engine_book);
    }
}

/// The inter-shard message seam under maximum stress: two servers fail
/// (mass evacuations land zones on servers owned by *other* shards, and
/// shed relays re-book cross-shard), churn continues while degraded,
/// then both recover (re-admission sweeps pull zones back). Every
/// storm flush touches 40 zones, past the 8-zone knee, so at every
/// width above 1 each flush takes the concurrent propose/commit path,
/// and every width must reproduce the serial single-shard engine's
/// full per-client assignment exactly.
#[test]
fn concurrent_flush_matches_serial_under_cross_shard_evacuations() {
    let setup = setup();
    let boot = || {
        let rep = build_replication(&setup, 0);
        (rep.instance, rep.world, rep.delays)
    };

    fn storm<E: ServeSink>(engine: &mut E) -> (Vec<usize>, Vec<usize>, usize, [u64; 9]) {
        for zone in 0..40 {
            engine
                .push(StreamEvent::Join {
                    node: zone % 5,
                    zone,
                })
                .expect("join admitted");
        }
        engine.flush_now();
        // Server 0 owns zones of every shard residue (zones land by
        // cost, not residue), so evacuating it must cross shards.
        engine.fail_server(0).expect("fail 0");
        for id in 300..360u64 {
            engine
                .push(StreamEvent::Move {
                    id,
                    zone: (id as usize * 11) % 40,
                })
                .expect("move under failure");
        }
        engine.flush_now();
        engine.fail_server(3).expect("fail 3");
        for id in 400..440u64 {
            engine
                .push(StreamEvent::Move {
                    id,
                    zone: (id as usize * 13) % 40,
                })
                .expect("move doubly degraded");
        }
        engine.flush_now();
        engine.restore_server(0).expect("restore 0");
        engine.restore_server(3).expect("restore 3");
        for id in 500..540u64 {
            engine
                .push(StreamEvent::Move {
                    id,
                    zone: (id as usize * 17) % 40,
                })
                .expect("move recovered");
        }
        engine.flush_now();
        let e = engine.engine();
        (
            e.targets().to_vec(),
            e.contacts().to_vec(),
            e.num_clients(),
            decisions(e.stats()),
        )
    }

    let (instance, world, delays) = boot();
    let mut plain = ServeEngine::new(
        instance,
        &world,
        delays,
        ErrorModel::PERFECT,
        StuckPolicy::BestEffort,
        ServeConfig::default(),
        StdRng::seed_from_u64(0xfade),
    )
    .expect("plain engine solves");
    let baseline = storm(&mut plain);
    assert!(
        baseline.3[7] >= 2 && baseline.3[8] >= 2,
        "the storm must exercise two failovers and two recoveries"
    );
    for shards in WIDTHS {
        let (instance, world, delays) = boot();
        let mut sharded = ShardedServeEngine::new(
            instance,
            &world,
            delays,
            ErrorModel::PERFECT,
            StuckPolicy::BestEffort,
            ServeConfig::default(),
            StdRng::seed_from_u64(0xfade),
            shards,
        )
        .expect("sharded engine solves");
        let got = storm(&mut sharded);
        assert_eq!(
            got, baseline,
            "concurrent flush diverged from serial at {shards} shards"
        );
        if shards > 1 {
            let proposed: u64 = sharded.shard_stats().iter().map(|b| b.flush.count()).sum();
            assert!(
                proposed > 0,
                "at {shards} shards the storm must take the concurrent flush path"
            );
        }
    }
}
