//! `wire-steady`: the 50k tier on a plain engine at width 1, fed over a
//! loopback socket exactly as `dvecap serve` is fed: one generator
//! thread writes wire frames in open loop, a reader thread decodes them
//! onto an `IngestRing` (ring 4096, buffer bound 1024,
//! `IngestConfig::default()`), and the engine thread runs the
//! `run_ingest_stream` pump loop.
//!
//! Phases, each on a freshly booted engine:
//!
//! * **A**: a fixed 4 000 ev/s, about a third of the knee, for
//!   [`STEADY_SHARE`] of `--seconds`. Commit latency is timed from each
//!   event's *due* time, so a stall charges every event queued behind
//!   it. The run reports the median over 250 ms windows of the window's
//!   p50.
//! * **B**: linear ramps from 4 000 ev/s. Once [`SATURATED_DEPTH`]
//!   events wait on the ring the engine is saturated; the generator
//!   then holds a backlog for [`HOLD`] and samples the engine's pop
//!   rate every [`HOLD_SAMPLE`]: `sustained_eps` is the low decile of
//!   the samples of all ramps. A ramp that never saturates the engine
//!   counts in `gen.ramps_unsaturated` and reports its top rate,
//!   [`RAMP_TO`], as a floor. The latency-limited knee — the last
//!   sliding 250 ms window whose p99 met [`LIMIT_MS`] before a failure
//!   lasting a full window — is a diagnostic.
//! * **C**: the mix replayed in-process through ring and ingest in
//!   256-event chunks (no socket, `replay::replay`), between the ramps:
//!   `replay_eps`, the median of the replays' rates.

use crate::host::process_cpu_s;
use crate::replay::{self, BOUND, RING};
use crate::sched::wire_mix;
use crate::stats::{commit_latencies, median, quantile, ramp_knee, RampWindow};
use crate::tier::{self, check_engine, check_ingest, Quality};
use crate::trace::Tracer;
use crate::{Args, Report, SUSTAINED_Q};
use dve_sim::{IngestConfig, IngestReport, IngestStream, ServeConfig, ServeEngine};
use dve_world::wire::{encode_event, FrameReader};
use dve_world::{IngestRing, World, WorldEvent};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Phase A's offered rate, events per second.
const STEADY_RATE: f64 = 4_000.0;

/// Phase B: start and end rate, ramp length, and the ring depth past
/// which the engine is saturated: events then wait ~20 ms, far past the
/// 1 ms staleness bound, so each pop flushes alone. The top rate is
/// about three times the 22k-27k ev/s the engine saturates at on a
/// 2-vCPU Xeon VM, so a speed-up shows before the ramp caps it. A full
/// ramp plus a backlog held at its top rate sends 77% of the initial
/// clients away (leaves are 10% of the mix), near all the mix can spend.
const RAMP_FROM: f64 = 4_000.0;
const RAMP_TO: f64 = 75_000.0;
const RAMP_SECONDS: f64 = 5.9;
const SATURATED_DEPTH: usize = 256;
const RAMPS: usize = 5;

/// How long a saturated backlog is held, the depth it is topped up
/// from, the top-up size, and the span of each pop-rate sample taken
/// while it is held.
const HOLD: Duration = Duration::from_millis(2_000);
const HOLD_LOW: usize = 1_024;
const HOLD_CHUNK: usize = 256;
const HOLD_SAMPLE: Duration = Duration::from_millis(250);

/// Window over which latency quantiles are taken, and the sliding step
/// of the ramp's windows.
const WINDOW: Duration = Duration::from_millis(250);
const STEP: Duration = Duration::from_millis(25);

/// The ramp's p99 limit, ms: above the worst host stall measured on
/// this machine class (12 ms), below the backlog past the knee.
const LIMIT_MS: f64 = 25.0;

/// Phase C: events per chunk, and events per replay (about a second of
/// engine work).
const CHUNK: usize = 256;
const REPLAY_EVENTS: usize = 96_000;

/// Share of `--seconds` phase A runs for.
const STEADY_SHARE: f64 = 0.25;

/// Lead time between starting the threads and the first due event.
const LEAD: Duration = Duration::from_millis(50);

/// What the socket reader saw.
#[derive(Debug, Default)]
struct ReaderOut {
    /// Per decoded frame: whether it reached the ring.
    accepted: Vec<bool>,
    reads: u64,
    bytes: u64,
    decode_ns: u64,
    /// Time in `push_blocking` (leaves and faults), ns.
    blocked_ns: u64,
    /// Reader busy time (decode + push), ns.
    busy_ns: u64,
}

/// What one open-loop socket phase measured.
struct SocketRun {
    due_ns: Vec<u64>,
    /// Per offered event: send time relative to the origin, if sent.
    sent_ns: Vec<Option<u64>>,
    /// See [`GenOut::saturated`].
    saturated: Option<Vec<f64>>,
    /// Per offered event: commit latency from due time, if committed.
    latency_ns: Vec<Option<u64>>,
    reader: ReaderOut,
    report: IngestReport,
    ring_shed: u64,
    pumps: u64,
    idle_pumps: u64,
    busy_ns: u64,
    depth: Vec<f64>,
    wall_s: f64,
    cpu_s: f64,
    coverage: f64,
    quality: Quality,
    setup_s: f64,
}

/// Reads one connection onto the ring, as `dvecap serve` does: Leave and
/// server faults block for a slot, joins and moves shed on a full ring.
/// Closes the ring at end of stream.
fn read_connection(
    mut conn: TcpStream,
    ring: &IngestRing,
    pushed: &AtomicU64,
    tracer: &mut Tracer,
) -> ReaderOut {
    let mut out = ReaderOut::default();
    let mut frames = FrameReader::new();
    let mut buf = [0u8; 4096];
    loop {
        let t = Instant::now();
        let n = match conn.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        let busy = Instant::now();
        tracer.record("wire.read", out.reads, t, busy);
        out.reads += 1;
        out.bytes += n as u64;
        frames.feed(&buf[..n]);
        loop {
            let d = Instant::now();
            let event = match frames.next_event() {
                Ok(Some(event)) => event,
                Ok(None) => break,
                Err(e) => {
                    eprintln!("perfbench: wire error: {e}");
                    ring.close();
                    return out;
                }
            };
            let decoded = Instant::now();
            out.decode_ns += (decoded - d).as_nanos() as u64;
            let ok = if matches!(
                event,
                WorldEvent::Leave { .. }
                    | WorldEvent::ServerDown { .. }
                    | WorldEvent::ServerUp { .. }
            ) {
                let ok = ring.push_blocking(event).is_ok();
                out.blocked_ns += decoded.elapsed().as_nanos() as u64;
                ok
            } else {
                ring.push_or_shed(event) == Ok(true)
            };
            pushed.fetch_add(u64::from(ok), Ordering::Relaxed);
            out.accepted.push(ok);
        }
        let done = Instant::now();
        out.busy_ns += (done - busy).as_nanos() as u64;
        tracer.record("wire.decode", out.reads, busy, done);
    }
    ring.close();
    out
}

/// The generator's view of a ramp's backlog: the ring, and how many
/// events the reader has put on it.
struct Backlog<'a> {
    ring: &'a IngestRing,
    pushed: &'a AtomicU64,
}

/// What the generator saw.
struct GenOut {
    /// Per offered event: send time relative to the origin, if sent.
    sent_ns: Vec<Option<u64>>,
    /// Engine pop rate over each [`HOLD_SAMPLE`] while a saturated
    /// backlog was held, events/s.
    saturated: Option<Vec<f64>>,
}

/// Writes `events` at their due times in open loop: whatever is due is
/// sent at once, however late, and the generator then sleeps until the
/// next due time.
///
/// With a `backlog` to watch (the ramp), once the ring holds
/// [`SATURATED_DEPTH`] events the generator stops following the
/// schedule and instead keeps between [`HOLD_LOW`] and [`HOLD_LOW`] +
/// [`HOLD_CHUNK`] events outstanding for [`HOLD`], measuring how fast
/// the engine pops while it can never run dry, one rate per
/// [`HOLD_SAMPLE`]; then it stops.
fn generate(
    addr: std::net::SocketAddr,
    events: &[WorldEvent],
    due_ns: &[u64],
    origin: Instant,
    backlog: Option<Backlog<'_>>,
) -> GenOut {
    let mut sent_ns = vec![None; events.len()];
    let mut conn = TcpStream::connect(addr).expect("loopback connect");
    conn.set_nodelay(true).expect("set TCP_NODELAY");
    let mut buf = Vec::with_capacity(4096);
    // Start of the current pop-rate sample, and the pops before it.
    let mut held: Option<(Instant, u64)> = None;
    let mut hold_end = origin;
    let mut saturated = None;
    let mut rates = Vec::new();
    let mut i = 0;
    while i < events.len() {
        let now = Instant::now();
        let mut due = origin + Duration::from_nanos(due_ns[i]);
        if let Some(b) = &backlog {
            let depth = b.ring.len();
            // Popped so far: everything pushed minus what still waits.
            let popped = b
                .pushed
                .load(Ordering::Relaxed)
                .saturating_sub(depth as u64);
            // Sent but not yet popped or shed: in the socket, the reader
            // or the ring.
            let outstanding = (i as u64).saturating_sub(popped + b.ring.shed_events());
            match held {
                None if depth >= SATURATED_DEPTH => {
                    held = Some((now, popped));
                    hold_end = now + HOLD;
                }
                Some((since, popped0)) => {
                    if now - since >= HOLD_SAMPLE {
                        rates.push((popped - popped0) as f64 / (now - since).as_secs_f64());
                        held = Some((now, popped));
                    }
                    if now >= hold_end {
                        saturated = Some(std::mem::take(&mut rates));
                        break;
                    }
                    // The backlog lasts tens of milliseconds: a check per
                    // millisecond keeps it topped up without taking a
                    // core from the reader and the engine.
                    if outstanding >= HOLD_LOW as u64 {
                        std::thread::sleep(Duration::from_millis(1));
                        continue;
                    }
                    due = now;
                }
                None => {}
            }
        }
        if due > now {
            std::thread::sleep(due - now);
            continue;
        }
        let at = now.saturating_duration_since(origin).as_nanos() as u64;
        buf.clear();
        let chunk_end = if held.is_some() {
            (i + HOLD_CHUNK).min(events.len())
        } else {
            due_ns.partition_point(|&d| d <= at).max(i + 1)
        };
        for k in i..chunk_end {
            encode_event(&events[k], &mut buf);
            sent_ns[k] = Some(at);
        }
        i = chunk_end;
        if conn.write_all(&buf).is_err() {
            break;
        }
    }
    GenOut { sent_ns, saturated }
}

/// Due times of an open-loop schedule whose rate climbs linearly from
/// `from` to `to` over `seconds` (constant when they are equal).
fn due_times(events: usize, from: f64, to: f64, seconds: f64) -> Vec<u64> {
    let slope = (to - from) / seconds;
    (0..events)
        .map(|i| {
            let i = i as f64;
            let t = if slope.abs() < 1e-9 {
                i / from
            } else {
                (-from + (from * from + 2.0 * slope * i).sqrt()) / slope
            };
            (t * 1e9) as u64
        })
        .collect()
}

/// Boots an engine and serves one open-loop socket phase on it. With
/// `alternate`, the serving threads trace only odd [`WINDOW`]s.
fn socket_phase(
    events: &[WorldEvent],
    due_ns: Vec<u64>,
    ramp: bool,
    alternate: bool,
    tracer: &mut Tracer,
    id: u64,
) -> Result<SocketRun, String> {
    let config = ServeConfig {
        max_batch: IngestConfig::default().max_batch,
        ..ServeConfig::default()
    };
    let tier::Boot {
        mut engine,
        world,
        setup_s,
        ..
    } = tier::boot(&tier::setup(false), config, tracer, id, tier::plain);
    let listener = TcpListener::bind(("127.0.0.1", 0)).map_err(|e| format!("bind: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    let ring = IngestRing::with_capacity(RING);
    let pushed = AtomicU64::new(0);
    let origin = Instant::now() + LEAD;
    let mut reader_tracer = tracer.fork("reader");
    let mut engine_tracer = tracer.fork("engine");
    if alternate {
        reader_tracer.set_alternate(Some((origin, WINDOW)));
        engine_tracer.set_alternate(Some((origin, WINDOW)));
    }
    let cpu0 = process_cpu_s();
    let (gen, reader, serve) = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let (conn, _) = listener.accept().expect("loopback accept");
            read_connection(conn, &ring, &pushed, &mut reader_tracer)
        });
        let backlog = ramp.then_some(Backlog {
            ring: &ring,
            pushed: &pushed,
        });
        let generator = s.spawn(|| generate(addr, events, &due_ns, origin, backlog));
        let serve = serve_loop(&mut engine, &world, &ring, origin, &mut engine_tracer);
        let reader = reader.join().expect("reader thread panicked");
        let gen = generator.join().expect("generator thread panicked");
        (gen, reader, serve)
    });
    let cpu_s = process_cpu_s() - cpu0;
    eprintln!(
        "wire-steady: phase {id}: {} of {} events sent, {:.2} s serving, ring shed {}",
        gen.sent_ns.iter().filter(|s| s.is_some()).count(),
        events.len(),
        serve.wall_s,
        ring.shed_events()
    );
    tracer.absorb(reader_tracer);
    tracer.absorb(engine_tracer);
    // Every event sent was decoded, and reached the ring or was shed by
    // it; every event on the ring is accounted for by the stream.
    let sent = gen.sent_ns.iter().filter(|s| s.is_some()).count();
    let popped = reader.accepted.iter().filter(|&&ok| ok).count() as u64;
    let refused = reader.accepted.len() as u64 - popped;
    if reader.accepted.len() != sent || refused != ring.shed_events() {
        return Err(format!(
            "socket lost events: {sent} sent, {} decoded, {refused} refused, ring shed {}",
            reader.accepted.len(),
            ring.shed_events()
        ));
    }
    check_ingest(&serve.report, popped)?;
    let quality = check_engine(&engine, tracer, id)?;
    let accepted: Vec<bool> = (0..events.len())
        .map(|i| reader.accepted.get(i).copied().unwrap_or(false))
        .collect();
    let latency_ns = commit_latencies(&due_ns, &accepted, &serve.commits);
    Ok(SocketRun {
        due_ns,
        sent_ns: gen.sent_ns,
        saturated: gen.saturated,
        latency_ns,
        reader,
        report: serve.report,
        ring_shed: ring.shed_events(),
        pumps: serve.pumps,
        idle_pumps: serve.idle_pumps,
        busy_ns: serve.busy_ns,
        depth: serve.depth,
        wall_s: serve.wall_s,
        cpu_s,
        coverage: serve.coverage,
        quality,
        setup_s,
    })
}

struct ServeOut {
    commits: Vec<(u64, u64)>,
    report: IngestReport,
    pumps: u64,
    idle_pumps: u64,
    busy_ns: u64,
    depth: Vec<f64>,
    wall_s: f64,
    coverage: f64,
}

/// The engine thread: `run_ingest_stream`'s loop, reading the arrival
/// count after each pump as the commit point (`pump` group-commits
/// before it returns).
fn serve_loop(
    engine: &mut ServeEngine,
    world: &World,
    ring: &IngestRing,
    origin: Instant,
    tracer: &mut Tracer,
) -> ServeOut {
    let mut stream = IngestStream::new(engine, world, BOUND, IngestConfig::default());
    let mut out = ServeOut {
        commits: Vec::new(),
        report: IngestReport::default(),
        pumps: 0,
        idle_pumps: 0,
        busy_ns: 0,
        depth: Vec::new(),
        wall_s: 0.0,
        coverage: 0.0,
    };
    let start = Instant::now();
    loop {
        let t0 = Instant::now();
        let depth = ring.len();
        let popped = stream.pump(engine, ring);
        if popped == 0 {
            std::thread::yield_now();
        }
        let t1 = Instant::now();
        if popped > 0 {
            let at = t1.saturating_duration_since(origin).as_nanos() as u64;
            out.commits.push((stream.report().arrivals, at));
            out.depth.push(depth as f64);
            out.busy_ns += (t1 - t0).as_nanos() as u64;
            tracer.record("ingest.pump", out.pumps, t0, t1);
            out.pumps += 1;
        } else {
            tracer.extend_or_record("ingest.idle", out.idle_pumps, t0, t1);
            out.idle_pumps += 1;
        }
        if ring.is_closed() && ring.is_empty() {
            break;
        }
    }
    let end = Instant::now();
    out.wall_s = (end - start).as_secs_f64();
    out.coverage = tracer.coverage("engine", start, end);
    out.report = stream.finish(engine);
    out
}

/// Exact quantile of the events due in `[lo, hi)`, ms; failed events
/// count as infinitely late.
fn window_quantile(run: &SocketRun, lo: u64, hi: u64, q: f64) -> Option<f64> {
    let from = run.due_ns.partition_point(|&d| d < lo);
    let to = run.due_ns.partition_point(|&d| d < hi);
    let lat: Vec<f64> = run.latency_ns[from..to]
        .iter()
        .map(|l| l.map_or(f64::INFINITY, |ns| ns as f64 / 1e6))
        .collect();
    quantile(&lat, q)
}

/// Median commit latency of each disjoint [`WINDOW`] of a phase, ms.
fn window_p50s(run: &SocketRun) -> Vec<f64> {
    let w = WINDOW.as_nanos() as u64;
    let end = run.due_ns.last().copied().unwrap_or(0);
    (0..=end / w)
        .filter_map(|k| {
            let (lo, hi) = (k * w, (k + 1) * w);
            // A window cut short by the schedule's end is not a sample.
            if hi > end + 1 {
                return None;
            }
            window_quantile(run, lo, hi, 0.5)
        })
        .collect()
}

/// Sliding windows of a ramp, stepped by [`STEP`].
fn ramp_windows(run: &SocketRun) -> Vec<RampWindow> {
    let (w, step) = (WINDOW.as_nanos() as u64, STEP.as_nanos() as u64);
    let end = run.due_ns.last().copied().unwrap_or(0);
    (0..)
        .map(|k| k * step)
        .take_while(|&lo| lo + w <= end)
        .filter_map(|lo| {
            let n = run.due_ns[run.due_ns.partition_point(|&d| d < lo)..]
                .partition_point(|&d| d < lo + w);
            Some(RampWindow {
                rate: n as f64 / WINDOW.as_secs_f64(),
                p99_ms: window_quantile(run, lo, lo + w, 0.99)?,
            })
        })
        .collect()
}

fn failures(run: &SocketRun) -> u64 {
    let uncommitted = run.latency_ns.iter().filter(|l| l.is_none()).count() as u64;
    let r = &run.report;
    uncommitted + r.shed + r.shed_leaves + r.dropped + r.refused_joins
}

/// One phase-C replay: its rate and its engine's set-up time.
struct Replay {
    eps: f64,
    setup_s: f64,
}

/// Phase C: one in-process replay of `events` on a fresh engine,
/// untraced, so its 256-event pumps stay out of the socket path's layer
/// metrics.
fn replay_once(events: &[WorldEvent], id: u64) -> Result<Replay, String> {
    let mut tracer = Tracer::new(false, Instant::now(), "main");
    let config = ServeConfig {
        max_batch: BOUND,
        ..ServeConfig::default()
    };
    let tier::Boot {
        mut engine,
        world,
        setup_s,
        ..
    } = tier::boot(&tier::setup(false), config, &mut tracer, id, tier::plain);
    let chunks: Vec<&[WorldEvent]> = events.chunks(CHUNK).collect();
    let run = replay::replay(&mut engine, &world, &chunks, &mut tracer, id * 1_000)?;
    let r = &run.report;
    if r.shed + r.shed_leaves + r.dropped + r.refused_joins > 0 {
        return Err(format!("in-process replay failed events: {r:?}"));
    }
    Ok(Replay {
        eps: run.events as f64 / run.wall_s,
        setup_s,
    })
}

/// Runs the workload; see the module docs.
pub fn run(args: &Args, main: &mut Tracer) -> Result<Report, String> {
    let world = tier::boot(
        &tier::setup(false),
        ServeConfig::default(),
        &mut main.fork("probe"),
        0,
        tier::plain,
    )
    .world;
    let steady_s = (args.seconds * STEADY_SHARE).max(1.0);
    let steady_events = (STEADY_RATE * steady_s) as usize;
    // The ramp's schedule, plus enough events to hold a backlog at the
    // ramp's top rate.
    let ramp_events = (RAMP_FROM * RAMP_SECONDS
        + (RAMP_TO - RAMP_FROM) * RAMP_SECONDS / 2.0
        + RAMP_TO * HOLD.as_secs_f64()) as usize;
    let events = wire_mix(
        &world,
        args.seed,
        steady_events.max(ramp_events).max(REPLAY_EVENTS),
    );

    // Phase A. The traced run alternates traced and untraced windows.
    let mut setups = Vec::new();
    let steady_due = due_times(steady_events, STEADY_RATE, STEADY_RATE, steady_s);
    let a = socket_phase(&events[..steady_events], steady_due, false, true, main, 1)?;
    setups.push(a.setup_s);
    let win = window_p50s(&a);

    // Phases B and C interleave, so both sample the host across the
    // whole run rather than one stretch of it.
    let mut knees = Vec::new();
    let mut saturated = Vec::new();
    let mut unsaturated = 0usize;
    let mut ramps = Vec::new();
    let mut replays = Vec::new();
    for r in 0..RAMPS {
        let due = due_times(ramp_events, RAMP_FROM, RAMP_TO, RAMP_SECONDS);
        let mut run = socket_phase(
            &events[..ramp_events],
            due,
            true,
            false,
            main,
            10 + r as u64,
        )?;
        setups.push(run.setup_s);
        let persist = (WINDOW.as_nanos() / STEP.as_nanos()) as usize;
        // A diagnostic only: a stall in the first window leaves none.
        let knee = ramp_knee(&ramp_windows(&run), LIMIT_MS, persist);
        knees.extend(knee);
        // An engine that outruns the whole ramp sustained at least its
        // top rate: it counts as that floor, flagged, for as many samples
        // as a hold takes, rather than fail the run.
        let rates = run.saturated.take().unwrap_or_else(|| {
            eprintln!("wire-steady: ramp {r} never saturated the engine; reporting its top rate");
            unsaturated += 1;
            vec![RAMP_TO; (HOLD.as_nanos() / HOLD_SAMPLE.as_nanos()) as usize]
        });
        let knee = knee.map_or("none".to_string(), |k| format!("{k:.0} ev/s"));
        eprintln!(
            "wire-steady: ramp {r}: knee {knee}, saturated {:.0} ev/s",
            median(&rates)
        );
        saturated.extend(rates);
        ramps.push(run);
        // One phase C replay after each ramp per 10 s of `--seconds`.
        let per_ramp = ((args.seconds / 10.0).round() as usize).max(1);
        for _ in 0..per_ramp {
            let rep = replay_once(&events[..REPLAY_EVENTS], 20 + replays.len() as u64)?;
            setups.push(rep.setup_s);
            replays.push(rep);
        }
    }
    let committed = a.latency_ns.iter().filter(|l| l.is_some()).count();
    let mut report = Report {
        attempted: steady_events as u64,
        failed: failures(&a),
        ..Report::default()
    };
    // Every timing is sampled many times in the run: the run reports the
    // median of phase A's windows and of phase C's replay rates, and the
    // low decile of the ramps' saturated pop rates.
    let log = |name: &str, samples: &[f64]| crate::log_samples("wire-steady", name, samples);
    log("setup_s", &setups);
    report.set("setup_s", median(&setups));
    log("commit_p50_ms", &win);
    report.set("commit_p50_ms", median(&win));
    log("sustained_eps", &saturated);
    report.set(
        "sustained_eps",
        quantile(&saturated, SUSTAINED_Q).unwrap_or(0.0),
    );
    let eps: Vec<f64> = replays.iter().map(|r| r.eps).collect();
    log("replay_eps", &eps);
    report.set("replay_eps", median(&eps));
    report.set("cpu_us_per_event", a.cpu_s * 1e6 / committed.max(1) as f64);
    report.set("pqos", a.quality.pqos);
    report.set("utilization", a.quality.utilization);
    let late: Vec<f64> = a
        .sent_ns
        .iter()
        .zip(&a.due_ns)
        .filter_map(|(s, &d)| s.map(|s| s.saturating_sub(d) as f64 / 1e6))
        .collect();
    report.set("gen.late_p99_ms", quantile(&late, 0.99).unwrap_or(0.0));
    report.set("gen.late_max_ms", quantile(&late, 1.0).unwrap_or(0.0));
    report.set("gen.ramps_unsaturated", unsaturated as f64);
    if main.is_on() {
        if !knees.is_empty() {
            report.set("gen.ramp_knee_eps", median(&knees));
        }
        layers(&mut report, &a, &win, &ramps, main)?;
    }
    Ok(report)
}

fn layers(
    report: &mut Report,
    a: &SocketRun,
    win: &[f64],
    ramps: &[SocketRun],
    main: &Tracer,
) -> Result<(), String> {
    let pooled: Vec<f64> = a
        .latency_ns
        .iter()
        .map(|l| l.map_or(f64::INFINITY, |ns| ns as f64 / 1e6))
        .collect();
    let sent = a.sent_ns.iter().filter(|s| s.is_some()).count();
    report.set("gen.sent", sent as f64);
    report.set("gen.commit_p90_ms", quantile(&pooled, 0.9).unwrap_or(0.0));
    report.set("gen.commit_p99_ms", quantile(&pooled, 0.99).unwrap_or(0.0));
    let r = &a.reader;
    let frames = r.accepted.len() as f64;
    report.set("wire.frames", frames);
    report.set("wire.bytes", r.bytes as f64);
    report.set("wire.reads", r.reads as f64);
    report.set(
        "wire.decode_ns_per_frame",
        r.decode_ns as f64 / frames.max(1.0),
    );
    report.set("wire.busy_frac", r.busy_ns as f64 / 1e9 / a.wall_s);
    report.set("ring.pushes", frames);
    report.set("ring.shed", a.ring_shed as f64);
    report.set("ring.blocked_ms", r.blocked_ns as f64 / 1e6);
    report.set("ring.depth_p99", quantile(&a.depth, 0.99).unwrap_or(0.0));
    let ir = &a.report;
    report.set("ingest.pumps", a.pumps as f64);
    report.set("ingest.idle_pumps", a.idle_pumps as f64);
    report.set("ingest.busy_frac", a.busy_ns as f64 / 1e9 / a.wall_s);
    report.set("ingest.flushes", ir.flushes as f64);
    report.set(
        "ingest.events_per_flush",
        ir.arrivals as f64 / ir.flushes.max(1) as f64,
    );
    report.set("ingest.coalesced", ir.coalesced as f64);
    report.set("ingest.shed", ir.shed as f64);
    report.set("ingest.dropped", ir.dropped as f64);
    report.set("ingest.refused_joins", ir.refused_joins as f64);
    // Each busy pump is one group-committed flush on this workload.
    let pumps = main.durations_ms("ingest.pump");
    report.set("serve.flush_ms_p50", quantile(&pumps, 0.5).unwrap_or(0.0));
    report.set("serve.flush_ms_p99", quantile(&pumps, 0.99).unwrap_or(0.0));
    report.set(
        "serve.flush_events_mean",
        ir.committed as f64 / ir.flushes.max(1) as f64,
    );
    tier::setup_layers(report, main);

    // Ramps are traced throughout: their engine-thread spans must add up
    // to the thread's wall time. Phase A alternated traced (odd) and
    // untraced (even) windows.
    let side = |odd: bool| -> Vec<f64> {
        win.iter()
            .enumerate()
            .filter(|(k, _)| (k % 2 == 1) == odd)
            .map(|(_, &p50)| p50)
            .collect()
    };
    let coverage = ramps
        .iter()
        .map(|r| r.coverage)
        .fold(f64::INFINITY, f64::min);
    crate::trace_summary(report, coverage, &side(true), &side(false))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_follow_the_rate() {
        let fixed = due_times(5, 4_000.0, 4_000.0, 1.0);
        assert_eq!(fixed, vec![0, 250_000, 500_000, 750_000, 1_000_000]);
        // A ramp from 1k to 3k ev/s over 1 s offers 2 000 events.
        let ramp = due_times(2_001, 1_000.0, 3_000.0, 1.0);
        assert!((ramp[2_000] as f64 - 1e9).abs() < 1e3);
        // Its gaps shrink as the rate climbs.
        assert!(ramp[1] - ramp[0] > ramp[2_000] - ramp[1_999]);
    }
}
