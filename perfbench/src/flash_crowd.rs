//! `flash-crowd`: the burst bench's storm on the 50k tier, served
//! in-process by `ShardedServeEngine` at width 2 through `IngestRing`
//! and `IngestStream::pump`, one group-committed flush per burst.
//!
//! The staleness bound outlasts the replay, so every burst commits as
//! exactly one flush and the decisions are the same on every run and at
//! both widths. The replay is short (a few tenths of a second), so it
//! repeats on fresh engines until the time budget is spent, and the run
//! reports the median of its replays' timings; one width-1 replay
//! checks the decisions match.

use crate::replay::{self, BOUND};
use crate::sched::{flash_storm, hot_zone, Burst};
use crate::stats::{median, quantile, window_rates};
use crate::tier;
use crate::trace::Tracer;
use crate::{Args, Report, SUSTAINED_Q};
use dve_sim::{ServeConfig, ServeSink};
use dve_world::{World, WorldEvent};
use std::time::{Duration, Instant};

/// Width of the measured engine: this machine class's core count.
const WIDTH: usize = 2;

/// Rate window: 16 bursts. `sustained_eps` is the low decile of the
/// commit rates of every window of every replay.
const WINDOW: usize = 16 * 128;

/// Fewest width-2 replays per run, whatever the time budget.
const MIN_REPS: usize = 5;

/// One replay of the storm on a fresh engine.
struct Rep {
    setup_s: f64,
    run: replay::Replay,
    /// Pump duration of each churn burst (one flush each), ms.
    flush_ms: Vec<f64>,
    /// Pump durations of the ServerDown and ServerUp events, ms.
    fault_ms: Vec<f64>,
    targets: Vec<usize>,
    contacts: Vec<usize>,
    zones_migrated: u64,
    full_repairs: u64,
    /// Per-shard propose samples, p99 (ms) and total (ms); width 2 only.
    propose: Vec<(u64, f64, f64)>,
    imbalance: (u64, u64),
}

impl Rep {
    fn decisions(&self) -> (&[usize], &[usize], tier::Quality) {
        (&self.targets, &self.contacts, self.run.quality)
    }
}

/// Boots a fresh sharded engine of `width` and replays the storm.
fn run_once(width: usize, bursts: &[Burst], tracer: &mut Tracer, rep: u64) -> Result<Rep, String> {
    let config = ServeConfig {
        max_batch: BOUND,
        ..ServeConfig::default()
    };
    let tier::Boot {
        mut engine,
        world,
        setup_s,
        ..
    } = tier::boot(
        &tier::setup(false),
        config,
        tracer,
        rep,
        tier::sharded(width),
    );
    let chunks: Vec<&[WorldEvent]> = bursts.iter().map(Burst::events).collect();
    let run = replay::replay(&mut engine, &world, &chunks, tracer, rep * 1_000)?;
    let churn = bursts
        .iter()
        .filter(|b| matches!(b, Burst::Churn(_)))
        .count() as u64;
    if run.report.server_events != 2 || run.report.flushes != churn {
        return Err(format!(
            "expected one flush per burst ({churn}) and two server events, saw {} and {}",
            run.report.flushes, run.report.server_events
        ));
    }
    let (mut flush_ms, mut fault_ms) = (Vec::new(), Vec::new());
    for (burst, &ms) in bursts.iter().zip(&run.pump_ms) {
        match burst {
            Burst::Churn(_) => flush_ms.push(ms),
            Burst::Fault(_) => fault_ms.push(ms),
        }
    }
    let stats = engine.engine().stats();
    let propose = engine
        .shard_stats()
        .iter()
        .map(|s| {
            let n = s.flush.count();
            let p99 = s.flush.quantile_upper_ns(0.99) as f64 / 1e6;
            (n, p99, s.flush.mean_ns() * n as f64 / 1e6)
        })
        .collect();
    Ok(Rep {
        setup_s,
        flush_ms,
        fault_ms,
        targets: engine.engine().targets().to_vec(),
        contacts: engine.engine().contacts().to_vec(),
        zones_migrated: stats.zones_migrated,
        full_repairs: stats.full_repairs,
        propose,
        imbalance: engine.event_imbalance(),
        run,
    })
}

fn failures(r: &replay::Replay) -> u64 {
    let r = &r.report;
    r.shed + r.shed_leaves + r.dropped + r.refused_joins
}

/// Runs the workload; see the module docs.
pub fn run(args: &Args, main: &mut Tracer) -> Result<Report, String> {
    // The schedule needs the tier's hot zone and its booted target.
    let probe = tier::boot(
        &tier::setup(false),
        ServeConfig::default(),
        &mut main.fork("probe"),
        0,
        tier::plain,
    );
    let world: World = probe.world.clone();
    let hot_target = probe.engine.targets()[hot_zone(&world)];
    let bursts = flash_storm(&world, probe.nodes, hot_target, args.seed);
    drop(probe);

    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut traced: Vec<bool> = Vec::new();
    while reps.len() < MIN_REPS || started.elapsed() < budget {
        // The traced run alternates traced and untraced replays; the
        // gap between them is the tracing overhead.
        let on = main.is_on() && reps.len() % 2 == 1;
        let mut t = Tracer::new(on, main.epoch(), "main");
        let r = run_once(WIDTH, &bursts, &mut t, reps.len() as u64)?;
        main.absorb(t);
        eprintln!(
            "flash-crowd: replay {}: {:.0} ev/s, p50 {:.3} ms, p99 {:.3} ms, boot {:.3} s",
            reps.len(),
            r.run.events as f64 / r.run.wall_s,
            quantile(&r.run.latency_ms, 0.5).unwrap_or(0.0),
            quantile(&r.run.latency_ms, 0.99).unwrap_or(0.0),
            r.setup_s
        );
        if reps
            .first()
            .is_some_and(|first| r.decisions() != first.decisions())
        {
            return Err("width-2 replays of one schedule made different decisions".into());
        }
        reps.push(r);
        traced.push(on);
    }
    let mut t1 = Tracer::new(main.is_on(), main.epoch(), "main");
    let w1 = run_once(1, &bursts, &mut t1, 999)?;
    main.absorb(t1);
    let first = &reps[0];
    if w1.decisions() != first.decisions() {
        return Err("width-1 and width-2 replays made different decisions".into());
    }

    let mut report = Report {
        attempted: reps.iter().map(|r| r.run.events).sum(),
        failed: reps.iter().map(|r| failures(&r.run)).sum(),
        ..Report::default()
    };
    // Every timing is taken per replay, and the run reports the median
    // over its replays.
    let per_rep = |name: &str, f: &dyn Fn(&Rep) -> f64| {
        let samples: Vec<f64> = reps.iter().map(f).collect();
        crate::log_samples("flash-crowd", name, &samples);
        median(&samples)
    };
    let q = |r: &Rep, q: f64| quantile(&r.run.latency_ms, q).unwrap_or(0.0);
    report.set("setup_s", per_rep("setup_s", &|r| r.setup_s));
    report.set("commit_p50_ms", per_rep("commit_p50_ms", &|r| q(r, 0.5)));
    report.set(
        "replay_eps",
        per_rep("replay_eps", &|r| r.run.events as f64 / r.run.wall_s),
    );
    report.set(
        "cpu_us_per_event",
        per_rep("cpu_us_per_event", &|r| {
            r.run.cpu_s * 1e6 / r.run.events as f64
        }),
    );
    let sizes: Vec<usize> = bursts.iter().map(|b| b.events().len()).collect();
    let rates: Vec<f64> = reps
        .iter()
        .flat_map(|r| window_rates(&sizes, &r.run.done_s, WINDOW))
        .collect();
    crate::log_samples("flash-crowd", "sustained_eps", &rates);
    report.set(
        "sustained_eps",
        quantile(&rates, SUSTAINED_Q).unwrap_or(0.0),
    );
    report.set("pqos", first.run.quality.pqos);
    report.set("utilization", first.run.quality.utilization);

    if main.is_on() {
        layers(&mut report, &reps, &traced, &w1, main)?;
    }
    Ok(report)
}

fn layers(
    report: &mut Report,
    reps: &[Rep],
    traced: &[bool],
    w1: &Rep,
    main: &Tracer,
) -> Result<(), String> {
    let pooled: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.run.latency_ms.iter().copied())
        .collect();
    let flushes: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.flush_ms.iter().copied())
        .collect();
    let last = reps.last().expect("at least one replay");
    let sent: u64 = reps.iter().map(|r| r.run.events).sum();
    report.set("gen.sent", sent as f64);
    report.set("gen.commit_p90_ms", quantile(&pooled, 0.9).unwrap_or(0.0));
    report.set("gen.commit_p99_ms", quantile(&pooled, 0.99).unwrap_or(0.0));
    report.set("ring.pushes", sent as f64);
    // The replay refuses rather than sheds: a ring shed fails the run.
    report.set("ring.shed", 0.0);
    report.set(
        "ring.depth_p99",
        quantile(&last.run.depth, 0.99).unwrap_or(0.0),
    );
    let r = &last.run.report;
    report.set("ingest.pumps", last.run.pump_ms.len() as f64);
    report.set(
        "ingest.busy_frac",
        last.run.pump_ms.iter().sum::<f64>() / (last.run.wall_s * 1e3),
    );
    report.set("ingest.flushes", r.flushes as f64);
    report.set(
        "ingest.events_per_flush",
        r.arrivals as f64 / r.flushes.max(1) as f64,
    );
    report.set("ingest.coalesced", r.coalesced as f64);
    report.set("ingest.shed", r.shed as f64);
    report.set("ingest.dropped", r.dropped as f64);
    report.set("ingest.refused_joins", r.refused_joins as f64);
    report.set("serve.flush_ms_p50", quantile(&flushes, 0.5).unwrap_or(0.0));
    report.set(
        "serve.flush_ms_p99",
        quantile(&flushes, 0.99).unwrap_or(0.0),
    );
    report.set(
        "serve.flush_events_mean",
        (r.committed - r.server_events) as f64 / r.flushes.max(1) as f64,
    );
    report.set("serve.zones_migrated", last.zones_migrated as f64);
    report.set("serve.full_repairs", last.full_repairs as f64);
    report.set(
        "serve.failover_ms",
        median(&reps.iter().map(|r| r.fault_ms[0]).collect::<Vec<_>>()),
    );
    report.set(
        "serve.restore_ms",
        median(&reps.iter().map(|r| r.fault_ms[1]).collect::<Vec<_>>()),
    );
    tier::setup_layers(report, main);

    let w2_flush = median(&reps.iter().map(|r| median(&r.flush_ms)).collect::<Vec<_>>());
    let w1_flush = median(&w1.flush_ms);
    report.set("shard.flush_ms_w1", w1_flush);
    report.set("shard.flush_ms_w2", w2_flush);
    report.set("shard.speedup", w1_flush / w2_flush);
    let samples: u64 = last.propose.iter().map(|p| p.0).sum();
    let p99 = last.propose.iter().map(|p| p.1).fold(0.0, f64::max);
    let busiest = last.propose.iter().map(|p| p.2).fold(0.0, f64::max);
    report.set("shard.propose_samples", samples as f64);
    report.set("shard.propose_p99_ms", p99);
    report.set(
        "shard.propose_share",
        busiest / last.flush_ms.iter().sum::<f64>(),
    );
    let (hi, lo) = last.imbalance;
    report.set("shard.event_imbalance", hi as f64 / lo.max(1) as f64);

    let wall = |on: bool| -> Vec<f64> {
        reps.iter()
            .zip(traced)
            .filter(|p| *p.1 == on)
            .map(|p| p.0.run.wall_s)
            .collect()
    };
    let coverage = reps
        .iter()
        .zip(traced)
        .filter(|p| *p.1)
        .map(|p| p.0.run.coverage)
        .fold(f64::INFINITY, f64::min);
    crate::trace_summary(report, coverage, &wall(true), &wall(false))
}
