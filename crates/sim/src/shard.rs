//! Zone-sharded serving on a persistent worker team.
//!
//! [`ShardedServeEngine`] partitions the serving state by zone — shard
//! `i` owns every zone `z` with `z % shards == i`: those zones'
//! [`CostMatrix`](dve_assign::CostMatrix) columns during the flush
//! refresh, and the shard-local books (event counter, latency
//! histogram) the wrapper maintains. The
//! team is a [`dve_par::WorkerTeam`] created **once** at boot; no flush
//! ever spawns a thread (property-tested against
//! [`dve_par::threads_spawned`]).
//!
//! ## The determinism discipline
//!
//! Every flush follows the propose-∥/commit-serial split the sharded
//! *solve* paths established (see `docs/PARALLELISM.md` for the full
//! argument):
//!
//! 1. **Propose in parallel.** The engine's read-only flush state —
//!    instance, matrix, targets, unserved lists — moves into a shared
//!    snapshot (`mem::take` + `Arc`); each shard's worker derives, for
//!    its own touched zones (`z % shards == w`), the refreshed
//!    orderings/regrets, the repair shift-candidate prefixes, and
//!    ranked contact plans for the shard's joiners/movers and unserved
//!    violators. Everything proposed is either load-independent or
//!    prunes by a **monotone** bound (loads only grow during a commit,
//!    so a server that failed a fit under the snapshot can never pass
//!    later), which is what makes the skipped work provably
//!    re-derivable.
//! 2. **Commit serially, worker-index first.** [`WorkerTeam::scatter`]
//!    returns the per-shard proposal lists in worker-index order; one
//!    serial pass installs the zone orders and consumes the prefixes
//!    and plans with **live** capacity checks. Disjoint zones make the
//!    install order immaterial — the result is bit-identical to the
//!    serial pipeline at **any** `DVE_THREADS` width.
//! 3. **Cross-shard effects stay in the serial commit.** Everything
//!    load-coupled — target migrations, relay shedding onto another
//!    shard's server, evacuation targets, server failure and recovery,
//!    the full-repair escalation — runs in the serial merge, exactly
//!    as unsharded. A plan invalidated by a cross-shard effect (its
//!    zone's target moved) is voided by a guard and re-decided live. A
//!    shard never observes another shard's in-flight state, so there
//!    is nothing to race and nothing to reorder.
//!
//! The inter-shard message step is therefore the scatter's return path
//! itself: shard-local proposals travel back to the serial committer in
//! worker-index order, and per-event samples are routed to shard books
//! after the commit. Decisions are bit-identical to the single-shard
//! engine by construction, and the property tests
//! (`crates/sim/tests/shard_width.rs`) pin it across
//! `DVE_THREADS ∈ {1, 2, 8}` on churn and churn+fault traces.

use crate::fault::{drive_recovery, RecoveryReport};
use crate::serve::{
    drive_stream, ClientId, FailoverReport, FlushReport, QualityEstimator, RestoreReport,
    ServeConfig, ServeEngine, ServeError, ServeSink, StreamEvent, StreamReport,
};
use crate::setup::{build_replication, SimSetup};
use crate::stats::LatencyHistogram;
use dve_assign::{CapInstance, StuckPolicy};
use dve_par::WorkerTeam;
use dve_world::{DynamicsBatch, ErrorModel, FaultSchedule, World, WorldDelays};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

/// Touched-zone knee: below this many touched zones a team scatter
/// costs more than the serial work it replaces (a channel round-trip
/// per worker) and the flush stays serial. Scheduling only — both paths
/// make bit-identical decisions.
pub(crate) const TEAM_ZONE_MIN: usize = 8;

/// Per-shard serving books: what shard `i` of a [`ShardedServeEngine`]
/// has served.
#[derive(Debug, Clone, Default)]
pub struct ShardStats {
    /// Events applied whose zone routes to this shard (a leave counts
    /// in the zone it departed, a move in the zone it arrived in).
    pub events: u64,
    /// Arrival-to-commit latencies of those events (warm-up and steady
    /// phases combined — the phase split lives in the engine's global
    /// [`crate::ServeStats`]).
    pub latency: LatencyHistogram,
    /// On-worker durations of this shard's flush propose jobs — one
    /// sample per **concurrent** flush (serial flushes, below the
    /// 8-zone knee, record nothing). Shards with
    /// systematically longer propose times than their siblings expose
    /// `z % S` ownership skew.
    pub flush: LatencyHistogram,
}

/// A [`ServeEngine`] partitioned into zone shards on a persistent
/// worker team (see the module docs above for the propose-∥/
/// commit-serial discipline).
///
/// The wrapper owns the engine and intercepts every mutating entry
/// point: flushes touching at least 8 zones propose on the team, and each
/// applied event is routed by zone (`z % shards`) into its shard's
/// books. All decisions are made by the serial commit path, so targets,
/// contacts, and stats are **bit-identical** to an unsharded engine fed
/// the same events — at any shard count and any `DVE_THREADS` width.
#[derive(Debug)]
pub struct ShardedServeEngine {
    engine: ServeEngine,
    shards: Vec<ShardStats>,
}

impl ShardedServeEngine {
    /// Boots a sharded engine: same contract as [`ServeEngine::new`],
    /// plus the shard count (clamped to at least 1), which is also the
    /// worker-team width. The team outlives every flush — this is the
    /// only point the wrapper creates threads.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        instance: CapInstance,
        world: &World,
        delays: WorldDelays,
        error: ErrorModel,
        policy: StuckPolicy,
        config: ServeConfig,
        rng: StdRng,
        shards: usize,
    ) -> Result<ShardedServeEngine, ServeError> {
        let shards = shards.max(1);
        let mut engine = ServeEngine::new(instance, world, delays, error, policy, config, rng)?;
        engine.set_team(Arc::new(WorkerTeam::new(shards)));
        engine.set_sample_capture(true);
        Ok(ShardedServeEngine {
            engine,
            shards: vec![ShardStats::default(); shards],
        })
    }

    /// Number of zone shards (= worker-team width).
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Which shard owns zone `z`.
    pub fn shard_of_zone(&self, z: usize) -> usize {
        z % self.shards.len()
    }

    /// Per-shard books, indexed by shard.
    pub fn shard_stats(&self) -> &[ShardStats] {
        &self.shards
    }

    /// The shard books merged back into one distribution — bucket-wise
    /// histogram addition, so the merge equals a single recorder and
    /// `merged.count()` equals the engine's applied-event count
    /// (warm-up included).
    pub fn merged_latency(&self) -> LatencyHistogram {
        let mut merged = LatencyHistogram::new();
        for shard in &self.shards {
            merged.merge(&shard.latency);
        }
        merged
    }

    /// The spread of applied events across shard books:
    /// `(max, min)` per-shard event counts. A wide gap exposes `z % S`
    /// ownership skew — shards are static by residue, so a scenario
    /// whose hot zones cluster on one residue leaves siblings idle.
    pub fn event_imbalance(&self) -> (u64, u64) {
        let max = self.shards.iter().map(|s| s.events).max().unwrap_or(0);
        let min = self.shards.iter().map(|s| s.events).min().unwrap_or(0);
        (max, min)
    }

    /// Routes the samples of any flushes since the last call into the
    /// shard books: per-event `(zone, latency)` samples by residue, and
    /// per-worker propose timings of concurrent flushes into the shard
    /// flush histograms. Called after every mutating delegation.
    fn absorb_samples(&mut self) {
        let shards = self.shards.len();
        for (zone, ns) in self.engine.take_flush_samples() {
            let shard = &mut self.shards[zone % shards];
            shard.events += 1;
            shard.latency.record_ns(ns);
        }
        for (worker, ns) in self.engine.take_shard_timings() {
            self.shards[worker].flush.record_ns(ns);
        }
    }
}

impl ServeSink for ShardedServeEngine {
    fn engine(&self) -> &ServeEngine {
        &self.engine
    }
    fn push_admitted(
        &mut self,
        event: StreamEvent,
        at: Instant,
    ) -> Result<Option<ClientId>, ServeError> {
        let out = self.engine.push_admitted(event, at);
        self.absorb_samples();
        out
    }
    fn tick(&mut self) -> Option<FlushReport> {
        let out = self.engine.tick();
        self.absorb_samples();
        out
    }
    fn flush_now(&mut self) -> Option<FlushReport> {
        let out = self.engine.flush_now();
        self.absorb_samples();
        out
    }
    fn fail_server(&mut self, server: usize) -> Result<FailoverReport, ServeError> {
        let out = self.engine.fail_server(server);
        self.absorb_samples();
        out
    }
    fn restore_server(&mut self, server: usize) -> Result<RestoreReport, ServeError> {
        let out = self.engine.restore_server(server);
        self.absorb_samples();
        out
    }
    fn begin_warmup(&mut self) {
        self.engine.begin_warmup();
        self.absorb_samples();
    }
    fn end_warmup(&mut self) {
        self.engine.end_warmup();
        self.absorb_samples();
    }
}

/// [`run_stream`](crate::run_stream) on a [`ShardedServeEngine`]: the
/// same replication, trace, RNG discipline, and replay loop, with the
/// flush tail sharded across `shards` workers. The report is
/// bit-identical to [`run_stream`](crate::run_stream)'s at any shard
/// count; the returned books show how the work spread.
pub fn run_stream_sharded(
    setup: &SimSetup,
    index: usize,
    batch: &DynamicsBatch,
    epochs: usize,
    policy: StuckPolicy,
    config: ServeConfig,
    shards: usize,
) -> Result<(StreamReport, Vec<ShardStats>), ServeError> {
    let rep = build_replication(setup, index);
    let error = ErrorModel::new(setup.error_factor);
    let engine_rng = StdRng::seed_from_u64(setup.base_seed.wrapping_add(index as u64) ^ 0x5e4e);
    let mut engine = ShardedServeEngine::new(
        rep.instance,
        &rep.world,
        rep.delays,
        error,
        policy,
        config,
        engine_rng,
        shards,
    )?;
    let report = drive_stream(
        &mut engine,
        rep.world,
        rep.rng,
        rep.topology.node_count(),
        batch,
        0,
        epochs,
    );
    Ok((report, engine.shards))
}

/// [`run_recovery_stream`](crate::run_recovery_stream) on a
/// [`ShardedServeEngine`]: the same churn+fault replay (failures and
/// recoveries cross shards through the serial commit), bit-identical
/// records at any shard count. This is the harness of the cross-shard
/// failure/evacuation property test.
#[allow(clippy::too_many_arguments)]
pub fn run_recovery_stream_sharded(
    setup: &SimSetup,
    index: usize,
    batch: &DynamicsBatch,
    schedule: &FaultSchedule,
    policy: StuckPolicy,
    config: ServeConfig,
    quality: QualityEstimator,
    recover_factor: f64,
    shards: usize,
) -> Result<(RecoveryReport, Vec<ShardStats>), ServeError> {
    let rep = build_replication(setup, index);
    let error = ErrorModel::new(setup.error_factor);
    let engine_rng = StdRng::seed_from_u64(setup.base_seed.wrapping_add(index as u64) ^ 0xf417);
    let mut engine = ShardedServeEngine::new(
        rep.instance,
        &rep.world,
        rep.delays,
        error,
        policy,
        config,
        engine_rng,
        shards,
    )?;
    let sample_seed = setup.base_seed.wrapping_add(index as u64) ^ 0xfa11;
    let report = drive_recovery(
        &mut engine,
        rep.world,
        rep.rng,
        rep.topology.node_count(),
        sample_seed,
        batch,
        schedule,
        quality,
        recover_factor,
    )?;
    Ok((report, engine.shards))
}
