//! The two tiers the workloads serve, how the benchmark boots an engine
//! on them, and the correctness gate every replay ends with.

use crate::trace::Tracer;
use dve_assign::{
    evaluate, grec, grez_with, Assignment, CapInstance, CostMatrix, DelayLayout, StuckPolicy,
};
use dve_sim::experiments::scaling::{LARGE_TIER, MILLION_TIER};
use dve_sim::{
    build_replication, DelayMode, IngestReport, Replication, ServeConfig, ServeEngine,
    ShardedServeEngine, SimSetup, TopologySpec,
};
use dve_topology::{DelayMatrix, DelaySource, HierarchicalConfig, OnDemandDelays};
use dve_world::{ErrorModel, ScenarioConfig, World, WorldDelays};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

/// The replication every workload serves. The tier is fixed (the
/// repository's canonical seed-42 replication); `--seed` varies the
/// event schedules only, so set-up cost and the initial assignment are
/// the same on every run.
pub fn setup(million: bool) -> SimSetup {
    let notation = if million { MILLION_TIER } else { LARGE_TIER };
    SimSetup {
        scenario: ScenarioConfig::from_notation(notation).expect("static tier notation"),
        topology: TopologySpec::Hierarchical(HierarchicalConfig::default()),
        delay_mode: if million {
            DelayMode::OnDemand { landmarks: 8 }
        } else {
            DelayMode::Dense
        },
        delay_layout: if million {
            DelayLayout::SharedByNode
        } else {
            DelayLayout::default()
        },
        runs: 1,
        ..SimSetup::default()
    }
}

/// `build_replication`, one layer call at a time, each in its own span.
/// Draws the RNG in the same order, so the result is identical (a unit
/// test holds it to that).
pub fn traced_replication(setup: &SimSetup, tracer: &mut Tracer, parent: usize) -> Replication {
    let p = Some(parent);
    let mut rng = StdRng::seed_from_u64(setup.base_seed);
    let topology = tracer.span("topology.generate", 0, p, || {
        setup.topology.generate(&mut rng)
    });
    let source: Arc<dyn DelaySource> =
        tracer.span("topology.delays", 0, p, || match setup.delay_mode {
            DelayMode::Dense => Arc::new(
                DelayMatrix::from_graph(&topology.graph, setup.max_rtt_ms)
                    .expect("generated topologies are connected"),
            ) as Arc<dyn DelaySource>,
            DelayMode::OnDemand { landmarks } => Arc::new(
                OnDemandDelays::from_graph(&topology.graph, setup.max_rtt_ms, landmarks)
                    .expect("generated topologies are connected"),
            ),
        });
    let world = tracer.span("world.generate", 0, p, || {
        World::generate(
            &setup.scenario,
            topology.node_count(),
            &topology.as_of_node,
            &mut rng,
        )
        .expect("scenario fits the topology")
    });
    let delays = tracer.span("world.delays", 0, p, || {
        WorldDelays::for_world(source, &world)
    });
    let instance = tracer.span("assign.instance", 0, p, || {
        CapInstance::from_world(
            &world,
            &delays,
            setup.provisioning,
            setup.delay_bound_ms,
            ErrorModel::new(setup.error_factor),
            setup.delay_layout,
            &mut rng,
        )
    });
    Replication {
        topology,
        delays,
        world,
        instance,
        rng,
    }
}

/// Fills the set-up and check layers of the traced run from its spans:
/// medians over every traced boot and check. `serve.books_s` is the
/// engine constructor minus the solver stages it runs, each of which
/// was timed on its own.
pub fn setup_layers(report: &mut crate::Report, tracer: &Tracer) {
    let med = |name: &str| {
        let d = tracer.durations_ms(name);
        if d.is_empty() {
            0.0
        } else {
            crate::stats::median(&d) / 1e3
        }
    };
    let boot = med("serve.boot");
    let solve = med("assign.matrix") + med("assign.grez") + med("assign.grec");
    report.set("serve.boot_s", boot);
    report.set("serve.books_s", boot - solve);
    report.set("serve.metrics_ms", med("serve.metrics") * 1e3);
    for (metric, span) in [
        ("assign.instance_s", "assign.instance"),
        ("assign.matrix_s", "assign.matrix"),
        ("assign.grez_s", "assign.grez"),
        ("assign.grec_s", "assign.grec"),
        ("assign.evaluate_s", "assign.evaluate"),
        ("world.generate_s", "world.generate"),
        ("world.delays_s", "world.delays"),
        ("topology.generate_s", "topology.generate"),
        ("topology.delays_s", "topology.delays"),
    ] {
        report.set(metric, med(span));
    }
}

/// What a boot hands to a workload.
pub struct Boot<E> {
    /// The engine, ready to serve.
    pub engine: E,
    /// The world it was booted on (the ingest stream's id anchor).
    pub world: World,
    /// Topology nodes (the join-event node range).
    pub nodes: usize,
    /// Wall time of `build_replication` plus the engine constructor.
    pub setup_s: f64,
}

/// Boots an engine the way a server does. Untraced, this is exactly
/// `build_replication` plus `ServeEngine::new` (or the sharded one),
/// timed as `setup_s`. Traced, the replication is built layer by layer
/// and the solver stages the constructor runs (`CostMatrix::build`,
/// GreZ, GreC) are each timed once more on their own, outside
/// `setup_s`, so `serve.books_s` can be derived.
pub fn boot<E>(
    setup: &SimSetup,
    config: ServeConfig,
    tracer: &mut Tracer,
    id: u64,
    new: impl FnOnce(Replication, ServeConfig) -> E,
) -> Boot<E> {
    let root = tracer.open("setup", id, None);
    let t = Instant::now();
    let rep = if tracer.is_on() {
        traced_replication(setup, tracer, root)
    } else {
        build_replication(setup, 0)
    };
    let built_s = t.elapsed().as_secs_f64();
    let world = rep.world.clone();
    let nodes = rep.topology.node_count();
    if tracer.is_on() {
        let p = Some(root);
        let matrix = tracer.span("assign.matrix", id, p, || CostMatrix::build(&rep.instance));
        let targets = tracer.span("assign.grez", id, p, || {
            grez_with(&rep.instance, &matrix, StuckPolicy::BestEffort).expect("tier solves")
        });
        tracer.span("assign.grec", id, p, || grec(&rep.instance, &targets));
    }
    let t = Instant::now();
    let span = tracer.open("serve.boot", id, Some(root));
    let engine = new(rep, config);
    tracer.close(span);
    let setup_s = built_s + t.elapsed().as_secs_f64();
    tracer.close(root);
    Boot {
        engine,
        world,
        nodes,
        setup_s,
    }
}

/// `ServeEngine::new` on a replication, as `dvecap serve` calls it.
pub fn plain(rep: Replication, config: ServeConfig) -> ServeEngine {
    ServeEngine::new(
        rep.instance,
        &rep.world,
        rep.delays,
        ErrorModel::PERFECT,
        StuckPolicy::BestEffort,
        config,
        rep.rng,
    )
    .expect("tier solves")
}

/// `ShardedServeEngine::new` of `width` on a replication.
pub fn sharded(width: usize) -> impl FnOnce(Replication, ServeConfig) -> ShardedServeEngine {
    move |rep, config| {
        ShardedServeEngine::new(
            rep.instance,
            &rep.world,
            rep.delays,
            ErrorModel::PERFECT,
            StuckPolicy::BestEffort,
            config,
            rep.rng,
            width,
        )
        .expect("tier solves")
    }
}

/// The paper's two scores of a served assignment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    /// Share of clients within the delay bound.
    pub pqos: f64,
    /// Total server load over total capacity.
    pub utilization: f64,
}

/// The correctness gate run after every replay:
///
/// * the engine's served `metrics()` equal a from-scratch recount of
///   pQoS and R over the carried instance and assignment;
/// * the carried cost matrix equals `CostMatrix::build` of the carried
///   instance.
///
/// `metrics()` is itself `dve_assign::evaluate` of the carried state, so
/// comparing the two would prove nothing; `evaluate` is only timed here,
/// in the traced run, for the `assign` layer.
pub fn check_engine(engine: &ServeEngine, tracer: &mut Tracer, id: u64) -> Result<Quality, String> {
    let served = tracer.span("serve.metrics", id, None, || engine.metrics());
    let served = Quality {
        pqos: served.pqos,
        utilization: served.utilization,
    };
    let inst = engine.instance();
    let assignment = Assignment {
        target_of_zone: engine.targets().to_vec(),
        contact_of_client: engine.contacts().to_vec(),
    };
    if tracer.is_on() {
        tracer.span("assign.evaluate", id, None, || evaluate(inst, &assignment));
    }
    let counted = recount(inst, &assignment);
    if served != counted {
        return Err(format!(
            "served quality (pQoS {}, R {}) differs from a recount (pQoS {}, R {})",
            served.pqos, served.utilization, counted.pqos, counted.utilization
        ));
    }
    if engine.matrix() != &CostMatrix::build(inst) {
        return Err("carried cost matrix differs from CostMatrix::build".into());
    }
    Ok(served)
}

/// Checks that an ingest stream lost nothing: it popped all `pushed`
/// events, and each popped event was committed, coalesced into an
/// earlier one, dropped at flush as a no-op, shed, dropped as invalid or
/// refused at admission — exactly one of these. Server fault events
/// count as committed. Holds once the buffer is flushed.
pub fn check_ingest(report: &IngestReport, pushed: u64) -> Result<(), String> {
    let r = report;
    let accounted = r.committed
        + r.coalesced
        + r.ineffective
        + r.shed
        + r.shed_leaves
        + r.dropped
        + r.refused_joins;
    if r.arrivals != pushed || accounted != r.arrivals {
        return Err(format!(
            "ingest lost events: {pushed} pushed, {} popped, {accounted} accounted ({r:?})",
            r.arrivals
        ));
    }
    Ok(())
}

/// pQoS and R recomputed from the instance's raw accessors: a client
/// counts when its true client→contact→target delay is within the
/// bound; a server's load is its hosted zones plus the forwarding
/// overhead of clients contacting it for a foreign target.
fn recount(inst: &CapInstance, assignment: &Assignment) -> Quality {
    let k = inst.num_clients();
    let mut without_qos = 0usize;
    let mut load = vec![0.0; inst.num_servers()];
    for (z, &s) in assignment.target_of_zone.iter().enumerate() {
        load[s] += inst.zone_bps(z);
    }
    for c in 0..k {
        let target = assignment.target_of_zone[inst.zone_of(c)];
        let contact = assignment.contact_of_client[c];
        if inst.true_path_delay(c, contact, target) > inst.delay_bound() {
            without_qos += 1;
        }
        if contact != target {
            load[contact] += inst.client_forwarding_bps(c);
        }
    }
    let pqos = if k == 0 {
        1.0
    } else {
        1.0 - without_qos as f64 / k as f64
    };
    Quality {
        pqos,
        utilization: load.iter().sum::<f64>() / inst.total_capacity(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SimSetup {
        SimSetup {
            scenario: ScenarioConfig::from_notation("5s-15z-200c-100cp").unwrap(),
            topology: TopologySpec::Hierarchical(HierarchicalConfig {
                as_count: 5,
                routers_per_as: 8,
                ..Default::default()
            }),
            runs: 1,
            ..Default::default()
        }
    }

    #[test]
    fn traced_replication_matches_build_replication() {
        for million_like in [false, true] {
            let mut setup = small();
            if million_like {
                setup.delay_mode = DelayMode::OnDemand { landmarks: 2 };
                setup.delay_layout = DelayLayout::SharedByNode;
            }
            let mut tracer = Tracer::new(true, Instant::now(), "main");
            let root = tracer.open("setup", 0, None);
            let a = traced_replication(&setup, &mut tracer, root);
            let b = build_replication(&setup, 0);
            assert_eq!(a.world.clients, b.world.clients);
            assert_eq!(a.delays.table(), b.delays.table());
            for c in 0..a.instance.num_clients() {
                for s in 0..a.instance.num_servers() {
                    assert_eq!(a.instance.obs_cs(c, s), b.instance.obs_cs(c, s));
                }
            }
            assert_eq!(tracer.spans().len(), 6);
        }
    }

    #[test]
    fn gate_accepts_a_served_engine() {
        let setup = small();
        let mut tracer = Tracer::new(false, Instant::now(), "main");
        let boot = boot(&setup, ServeConfig::default(), &mut tracer, 0, plain);
        let q = check_engine(&boot.engine, &mut tracer, 0).expect("fresh engine passes");
        assert!(q.pqos > 0.0 && q.pqos <= 1.0);
        assert!(q.utilization > 0.0);
    }

    #[test]
    fn ingest_check_catches_a_lost_event() {
        let balanced = IngestReport {
            arrivals: 10,
            committed: 5,
            coalesced: 2,
            ineffective: 1,
            shed: 1,
            dropped: 1,
            ..IngestReport::default()
        };
        assert!(check_ingest(&balanced, 10).is_ok());
        assert!(check_ingest(&balanced, 11).is_err(), "one never popped");
        let lost = IngestReport {
            committed: 4,
            ..balanced
        };
        assert!(check_ingest(&lost, 10).is_err(), "one popped, then lost");
    }
}
