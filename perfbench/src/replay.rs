//! The in-process replay flash-crowd and wire-steady's phase C share:
//! chunks of events pushed onto an `IngestRing` and pumped through
//! `IngestStream`, one group commit per chunk, with no socket.
//!
//! The staleness bound outlasts any replay and the buffer bound and
//! flush cap exceed a chunk, so each chunk commits as exactly one flush
//! and the decisions never depend on timing.

use crate::host::process_cpu_s;
use crate::tier::{check_engine, check_ingest, Quality};
use crate::trace::Tracer;
use dve_sim::{IngestConfig, IngestReport, IngestStream, ServeSink};
use dve_world::{IngestRing, World, WorldEvent};
use std::time::{Duration, Instant};

/// Ring slots (`dvecap serve`'s default): deeper than any chunk, so no
/// push is ever refused.
pub const RING: usize = 4096;

/// Buffer bound and flush cap (the burst bench's).
pub const BOUND: usize = 1024;

/// What one replay measured.
pub struct Replay {
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Events pushed.
    pub events: u64,
    /// Harness push → return of the pump that committed it, per event, ms.
    pub latency_ms: Vec<f64>,
    /// Pump duration of each chunk, ms.
    pub pump_ms: Vec<f64>,
    /// When each chunk's pump returned, seconds since the replay began.
    pub done_s: Vec<f64>,
    /// Ring occupancy before each pump.
    pub depth: Vec<f64>,
    pub report: IngestReport,
    pub quality: Quality,
    /// Share of the replay's wall time covered by its top-level spans.
    pub coverage: f64,
}

/// Replays `chunks` into `engine` (booted on `world`) and runs the
/// correctness gate on the result: every pushed event popped and
/// accounted for by the stream (`check_ingest`), and the served state
/// consistent (`check_engine`). Spans are `ring.push` and `ingest.pump`,
/// id `id_base + chunk index`.
pub fn replay<E: ServeSink>(
    engine: &mut E,
    world: &World,
    chunks: &[&[WorldEvent]],
    tracer: &mut Tracer,
    id_base: u64,
) -> Result<Replay, String> {
    let ring = IngestRing::with_capacity(RING);
    let config = IngestConfig {
        max_batch: BOUND,
        max_staleness: Duration::from_secs(3_600),
    };
    let mut stream = IngestStream::new(engine, world, BOUND, config);
    let events: usize = chunks.iter().map(|c| c.len()).sum();
    let mut latency_ms = Vec::with_capacity(events);
    let mut pump_ms = Vec::with_capacity(chunks.len());
    let mut done_s = Vec::with_capacity(chunks.len());
    let mut depth = Vec::with_capacity(chunks.len());
    let mut pushed_at = Vec::new();
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    for (c, chunk) in chunks.iter().enumerate() {
        let id = id_base + c as u64;
        let push = tracer.open("ring.push", id, None);
        pushed_at.clear();
        for &event in *chunk {
            ring.try_push(event)
                .map_err(|e| format!("ring refused a replay event: {e}"))?;
            pushed_at.push(Instant::now());
        }
        tracer.close(push);
        depth.push(ring.len() as f64);
        let start = Instant::now();
        let pump = tracer.open("ingest.pump", id, None);
        stream.pump(engine, &ring);
        tracer.close(pump);
        let done = Instant::now();
        pump_ms.push((done - start).as_secs_f64() * 1e3);
        done_s.push((done - t0).as_secs_f64());
        latency_ms.extend(pushed_at.iter().map(|&t| (done - t).as_secs_f64() * 1e3));
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;
    let coverage = tracer.coverage("main", t0, Instant::now());
    ring.close();
    let report = stream.finish(engine);
    check_ingest(&report, events as u64)?;
    let quality = check_engine(engine.engine(), tracer, id_base)?;
    Ok(Replay {
        wall_s,
        cpu_s,
        events: events as u64,
        latency_ms,
        pump_ms,
        done_s,
        depth,
        report,
        quality,
        coverage,
    })
}
