//! `million`: the 1M-client tier (`OnDemand` delays, `SharedByNode`
//! rows) on a plain engine at width 1. Each repetition boots a fresh
//! engine — the boot is `setup_s` — admits warm-up joins, then replays
//! a fixed join/leave/move schedule (`sched::million_mix`) through
//! `push` and `flush_now` in fixed batches, so the decisions (and pQoS)
//! never depend on timing.

use crate::host::process_cpu_s;
use crate::sched::million_mix;
use crate::stats::{median, quantile, window_quantiles, window_rates};
use crate::tier::{self, check_engine, Boot, Quality};
use crate::trace::Tracer;
use crate::{Args, Report, SUSTAINED_Q};
use dve_sim::{ServeConfig, ServeEngine, StreamEvent};
use std::time::Instant;

/// Joins admitted inside the warm-up window before the timed replay.
const WARMUP: usize = 2_000;

/// Events of the timed replay (30 windows): well over a second of
/// engine work.
const EVENTS: usize = 30 * WINDOW;

/// Events per `flush_now`.
const BATCH: usize = 64;

/// Events per latency window: 64 flushes. The run reports the median
/// over all windows of the window's p50 and p99.
const WINDOW: usize = 64 * BATCH;

/// Fewest repetitions per run; each is a full boot plus the replay.
const MIN_REPS: usize = 3;

/// One repetition on a fresh engine.
struct Replay {
    setup_s: f64,
    wall_s: f64,
    cpu_s: f64,
    failed: u64,
    latency_ms: Vec<f64>,
    flush_ms: Vec<f64>,
    /// When each batch's flush returned, seconds since the replay began.
    done_s: Vec<f64>,
    push_ns: f64,
    quality: Quality,
    targets: Vec<usize>,
    contacts: Vec<usize>,
    zones_migrated: u64,
    full_repairs: u64,
    coverage: f64,
}

/// Boots a fresh engine on the tier.
fn boot(tracer: &mut Tracer, rep: u64) -> Boot<ServeEngine> {
    // The engine's own batch cap sits above BATCH, so flushes happen
    // exactly at the harness's flush_now calls.
    let config = ServeConfig {
        max_batch: 1_024,
        ..ServeConfig::default()
    };
    tier::boot(&tier::setup(true), config, tracer, rep, tier::plain)
}

fn replay(
    boot: Boot<ServeEngine>,
    warm: &[StreamEvent],
    steady: &[StreamEvent],
    tracer: &mut Tracer,
    rep: u64,
) -> Result<Replay, String> {
    let mut engine = boot.engine;
    let initial = engine.num_clients();
    let mut failed = 0u64;
    engine.begin_warmup();
    for &event in warm {
        failed += u64::from(engine.push(event).is_err());
    }
    engine.end_warmup();

    let mut latency_ms = Vec::with_capacity(steady.len());
    let mut flush_ms = Vec::with_capacity(steady.len() / BATCH + 1);
    let mut done_s = Vec::with_capacity(steady.len() / BATCH + 1);
    let mut pushed_at = Vec::with_capacity(BATCH);
    let mut push_s = 0.0;
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    for (b, batch) in steady.chunks(BATCH).enumerate() {
        let id = rep * 100_000 + b as u64;
        pushed_at.clear();
        let start = Instant::now();
        let span = tracer.open("serve.push", id, None);
        for &event in batch {
            pushed_at.push(Instant::now());
            failed += u64::from(engine.push(event).is_err());
        }
        tracer.close(span);
        let flush = Instant::now();
        let span = tracer.open("serve.flush", id, None);
        engine.flush_now();
        tracer.close(span);
        let done = Instant::now();
        push_s += (flush - start).as_secs_f64();
        flush_ms.push((done - flush).as_secs_f64() * 1e3);
        done_s.push((done - t0).as_secs_f64());
        latency_ms.extend(pushed_at.iter().map(|&t| (done - t).as_secs_f64() * 1e3));
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;
    let coverage = tracer.coverage("main", t0, Instant::now());
    // Every event the engine took was applied, and the live population
    // is the schedule's.
    let pushed = (warm.len() + steady.len()) as u64 - failed;
    let joins = warm
        .iter()
        .chain(steady)
        .filter(|e| matches!(e, StreamEvent::Join { .. }));
    let leaves = steady
        .iter()
        .filter(|e| matches!(e, StreamEvent::Leave { .. }));
    let live = initial + joins.count() - leaves.count();
    if engine.pending_events() != 0
        || engine.stats().events != pushed
        || (failed == 0 && engine.num_clients() != live)
    {
        return Err(format!(
            "events lost: {pushed} pushed, {} applied, {} pending, {} live of {live} expected",
            engine.stats().events,
            engine.pending_events(),
            engine.num_clients()
        ));
    }
    let quality = check_engine(&engine, tracer, rep)?;
    let stats = engine.stats();
    Ok(Replay {
        setup_s: boot.setup_s,
        wall_s,
        cpu_s,
        failed,
        push_ns: push_s * 1e9 / steady.len() as f64,
        latency_ms,
        flush_ms,
        done_s,
        quality,
        targets: engine.targets().to_vec(),
        contacts: engine.contacts().to_vec(),
        zones_migrated: stats.zones_migrated,
        full_repairs: stats.full_repairs,
        coverage,
    })
}

/// Runs the workload; see the module docs.
pub fn run(args: &Args, main: &mut Tracer) -> Result<Report, String> {
    // Width 1 throughout, as the `million` bench pins it: a flush whose
    // refresh forks onto a second worker would wait on whichever vCPU
    // the host runs last, and that wait, not the engine, set the p99.
    std::env::set_var("DVE_THREADS", "1");
    let mut schedule: Option<(Vec<StreamEvent>, Vec<StreamEvent>)> = None;
    let reps_wanted = MIN_REPS.max((args.seconds / 5.0).round() as usize);
    let mut reps: Vec<Replay> = Vec::new();
    let mut traced = Vec::new();
    for rep in 0..reps_wanted {
        let on = main.is_on() && rep % 2 == 1;
        let mut t = Tracer::new(on, main.epoch(), "main");
        let b = boot(&mut t, rep as u64);
        // The schedule follows the tier's popularity, so it is drawn from
        // the first boot's world (the tier is the same on every boot).
        let (warm, steady) =
            schedule.get_or_insert_with(|| million_mix(&b.world, args.seed, WARMUP, EVENTS));
        let r = replay(b, warm, steady, &mut t, rep as u64)?;
        main.absorb(t);
        eprintln!(
            "million: replay {rep}: {:.0} ev/s, p50 {:.3} ms, p99 {:.3} ms, boot {:.3} s",
            EVENTS as f64 / r.wall_s,
            quantile(&r.latency_ms, 0.5).unwrap_or(0.0),
            quantile(&r.latency_ms, 0.99).unwrap_or(0.0),
            r.setup_s
        );
        if let Some(first) = reps.first() {
            if (&r.targets, &r.contacts, r.quality)
                != (&first.targets, &first.contacts, first.quality)
            {
                return Err("replays of one schedule made different decisions".into());
            }
        }
        reps.push(r);
        traced.push(on);
    }

    let attempted = (WARMUP + EVENTS) as u64 * reps.len() as u64;
    let per_rep = |f: &dyn Fn(&Replay) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let mut report = Report {
        attempted,
        failed: reps.iter().map(|r| r.failed).sum(),
        ..Report::default()
    };
    let eps = per_rep(&|r| EVENTS as f64 / r.wall_s);
    report.set("setup_s", per_rep(&|r| r.setup_s));
    let windows = |q: f64| {
        let w: Vec<f64> = reps
            .iter()
            .flat_map(|r| window_quantiles(&r.latency_ms, WINDOW, q))
            .collect();
        median(&w)
    };
    report.set("commit_p50_ms", windows(0.5));
    report.set("replay_eps", eps);
    let sizes: Vec<usize> = (0..EVENTS)
        .step_by(BATCH)
        .map(|i| BATCH.min(EVENTS - i))
        .collect();
    let rates: Vec<f64> = reps
        .iter()
        .flat_map(|r| window_rates(&sizes, &r.done_s, WINDOW))
        .collect();
    report.set(
        "sustained_eps",
        quantile(&rates, SUSTAINED_Q).unwrap_or(0.0),
    );
    report.set(
        "cpu_us_per_event",
        reps.iter().map(|r| r.cpu_s).sum::<f64>() * 1e6 / (EVENTS * reps.len()) as f64,
    );
    report.set("pqos", reps[0].quality.pqos);
    report.set("utilization", reps[0].quality.utilization);

    if main.is_on() {
        let pooled: Vec<f64> = reps
            .iter()
            .flat_map(|r| r.latency_ms.iter().copied())
            .collect();
        let flushes: Vec<f64> = reps
            .iter()
            .flat_map(|r| r.flush_ms.iter().copied())
            .collect();
        let last = reps.last().expect("at least one repetition");
        report.set("gen.sent", attempted as f64);
        report.set("gen.commit_p90_ms", quantile(&pooled, 0.9).unwrap_or(0.0));
        report.set("gen.commit_p99_ms", quantile(&pooled, 0.99).unwrap_or(0.0));
        report.set("serve.push_ns", per_rep(&|r| r.push_ns));
        report.set("serve.flush_ms_p50", quantile(&flushes, 0.5).unwrap_or(0.0));
        report.set(
            "serve.flush_ms_p99",
            quantile(&flushes, 0.99).unwrap_or(0.0),
        );
        report.set("serve.flush_events_mean", BATCH as f64);
        report.set("serve.zones_migrated", last.zones_migrated as f64);
        report.set("serve.full_repairs", last.full_repairs as f64);
        tier::setup_layers(&mut report, main);
        let wall = |on: bool| -> Vec<f64> {
            reps.iter()
                .zip(&traced)
                .filter(|p| *p.1 == on)
                .map(|p| p.0.wall_s)
                .collect()
        };
        let coverage = reps
            .iter()
            .zip(&traced)
            .filter(|p| *p.1)
            .map(|p| p.0.coverage)
            .fold(f64::INFINITY, f64::min);
        crate::trace_summary(&mut report, coverage, &wall(true), &wall(false))?;
    }
    Ok(report)
}
