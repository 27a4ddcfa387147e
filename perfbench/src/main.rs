//! The repository's end-to-end benchmark. One process runs one workload:
//!
//! ```text
//! perfbench <wire-steady|flash-crowd|million> --seed N --seconds S --trace 0|1 [--out DIR]
//! ```
//!
//! With `--trace 0` the last stdout line is a JSON object carrying every
//! end-to-end metric; with `--trace 1` it carries every per-layer metric
//! instead, and the spans are written to `DIR`. A failed correctness
//! check prints the reason on stderr and exits 1 without a result. See
//! `README.md` next to this crate for what each number means.

mod flash_crowd;
mod host;
mod million;
mod replay;
mod sched;
mod stats;
mod tier;
mod trace;
mod wire_steady;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// End-to-end metrics, in `BENCHMARK.json` order, with units. Every
/// workload reports every one.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("commit_p50_ms", "ms"),
    ("sustained_eps", "events/s"),
    ("replay_eps", "events/s"),
    ("cpu_us_per_event", "us"),
    ("pqos", "ratio"),
    ("utilization", "ratio"),
    ("peak_rss_mb", "MiB"),
    ("delivered_ratio", "ratio"),
];

/// Per-layer metrics of the traced run, in `BENCHMARK.json` order. A
/// workload that bypasses a layer reports its counts as 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("gen.sent", "count"),
    ("gen.late_p99_ms", "ms"),
    ("gen.late_max_ms", "ms"),
    ("gen.commit_p90_ms", "ms"),
    ("gen.commit_p99_ms", "ms"),
    ("gen.failed_ratio", "ratio"),
    ("gen.ramp_knee_eps", "events/s"),
    ("gen.ramps_unsaturated", "count"),
    ("host.steal_pct", "%"),
    ("host.timer_late_p99_ms", "ms"),
    ("wire.frames", "count"),
    ("wire.bytes", "bytes"),
    ("wire.reads", "count"),
    ("wire.decode_ns_per_frame", "ns"),
    ("wire.busy_frac", "ratio"),
    ("ring.pushes", "count"),
    ("ring.shed", "count"),
    ("ring.blocked_ms", "ms"),
    ("ring.depth_p99", "count"),
    ("ingest.pumps", "count"),
    ("ingest.idle_pumps", "count"),
    ("ingest.busy_frac", "ratio"),
    ("ingest.flushes", "count"),
    ("ingest.events_per_flush", "count"),
    ("ingest.coalesced", "count"),
    ("ingest.shed", "count"),
    ("ingest.dropped", "count"),
    ("ingest.refused_joins", "count"),
    ("serve.boot_s", "s"),
    ("serve.books_s", "s"),
    ("serve.push_ns", "ns"),
    ("serve.flush_ms_p50", "ms"),
    ("serve.flush_ms_p99", "ms"),
    ("serve.flush_events_mean", "count"),
    ("serve.zones_migrated", "count"),
    ("serve.full_repairs", "count"),
    ("serve.failover_ms", "ms"),
    ("serve.restore_ms", "ms"),
    ("serve.metrics_ms", "ms"),
    ("shard.flush_ms_w1", "ms"),
    ("shard.flush_ms_w2", "ms"),
    ("shard.speedup", "ratio"),
    ("shard.propose_p99_ms", "ms"),
    ("shard.propose_samples", "count"),
    ("shard.propose_share", "ratio"),
    ("shard.event_imbalance", "ratio"),
    ("assign.instance_s", "s"),
    ("assign.matrix_s", "s"),
    ("assign.grez_s", "s"),
    ("assign.grec_s", "s"),
    ("assign.evaluate_s", "s"),
    ("world.generate_s", "s"),
    ("world.delays_s", "s"),
    ("topology.generate_s", "s"),
    ("topology.delays_s", "s"),
    ("trace.engine_coverage", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// `sustained_eps` is this quantile of a run's windowed commit rates:
/// the rate the engine held through all but the slowest tenth of its
/// busy stretches. On wire-steady the windows are the pop-rate samples
/// of a saturated backlog; on the closed-loop workloads they are the
/// replays' windows, failovers and full repairs included, where
/// `replay_eps` is the rate of whole replays.
pub const SUSTAINED_Q: f64 = 0.1;

/// Prints a run's timing samples of metric `name` on stderr, so the
/// spread behind a reported median or decile can be read back.
pub fn log_samples(workload: &str, name: &str, samples: &[f64]) {
    let list: Vec<String> = samples.iter().map(|x| format!("{x:.6}")).collect();
    eprintln!("samples: {workload} {name} [{}]", list.join(", "));
}

/// Least share of the engine thread's wall time its top-level spans must
/// account for in a traced run; bookkeeping between spans is the rest.
const MIN_COVERAGE: f64 = 0.98;

/// Sets the trace's own metrics: `trace.engine_coverage`, the least
/// share of a traced phase's wall time the engine thread's spans cover
/// (the run fails below [`MIN_COVERAGE`]), and `trace.overhead_pct`,
/// the median of a cost measured traced over its untraced median.
pub fn trace_summary(
    report: &mut Report,
    coverage: f64,
    traced: &[f64],
    untraced: &[f64],
) -> Result<(), String> {
    report.set("trace.engine_coverage", coverage);
    if coverage < MIN_COVERAGE {
        return Err(format!(
            "engine-thread spans cover {:.2}% of its wall time, below {:.0}%",
            coverage * 100.0,
            MIN_COVERAGE * 100.0
        ));
    }
    let overhead = stats::median(traced) / stats::median(untraced) - 1.0;
    report.set("trace.overhead_pct", overhead * 100.0);
    Ok(())
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Events offered in the measured phases.
    pub attempted: u64,
    /// Offered events that failed (shed, dropped, refused, uncommitted).
    pub failed: u64,
    values: Vec<(&'static str, f64)>,
}

impl Report {
    /// Sets metric `name`; panics on a name `BENCHMARK.json` lacks.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER)
                .any(|&(known, _)| known == name),
            "undeclared metric {name}"
        );
        self.values.retain(|&(n, _)| n != name);
        self.values.push((name, value));
    }

    /// The value of metric `name` (0 when unset: a bypassed layer).
    pub fn get(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|&&(n, _)| n == name)
            .map_or(0.0, |&(_, v)| v)
    }

    /// The result line: every metric of `list` with its unit.
    fn json(&self, list: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = list
            .iter()
            .map(|&(name, unit)| {
                let value = self.get(name);
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with every digit of `x` (NaN and infinities,
/// which JSON cannot carry, become 0 — a metric is never either).
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".to_string()
    }
}

/// Command-line arguments of one run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Schedule seed.
    pub seed: u64,
    /// Measurement budget, seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Where the traced run writes its spans.
    pub out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let workload = it.next().ok_or("missing workload")?;
    let mut args = Args {
        workload,
        seed: 1,
        seconds: 40.0,
        trace: false,
        out: PathBuf::from("perfbench/out"),
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? == 1,
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut tracer = trace::Tracer::new(args.trace, Instant::now(), "main");
    let cpu_before = host::CpuStat::now();
    // The timer probe is one more thread waking every 2 ms on a machine
    // with few cores, so only the traced run carries it.
    let probe = args.trace.then(host::TimerProbe::start);
    let result = match args.workload.as_str() {
        "wire-steady" => wire_steady::run(&args, &mut tracer),
        "flash-crowd" => flash_crowd::run(&args, &mut tracer),
        "million" => million::run(&args, &mut tracer),
        other => Err(format!("unknown workload {other:?}")),
    };
    let timer_late_p99_ms = probe.map_or(0.0, host::TimerProbe::finish);
    let steal_pct = cpu_before.steal_pct(&host::CpuStat::now());
    let mut report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: check failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    report.set("host.steal_pct", steal_pct);
    report.set("host.timer_late_p99_ms", timer_late_p99_ms);
    report.set(
        "gen.failed_ratio",
        report.failed as f64 / report.attempted.max(1) as f64,
    );
    report.set("delivered_ratio", 1.0 - report.get("gen.failed_ratio"));
    report.set("peak_rss_mb", host::peak_rss_mb());

    // The environment next to the numbers, so a noisy run can be traced
    // to its cause.
    println!(
        "env: host.steal_pct={steal_pct:.3} host.timer_late_p99_ms={timer_late_p99_ms:.3} \
         gen.late_p99_ms={:.3} gen.late_max_ms={:.3} threads={}",
        report.get("gen.late_p99_ms"),
        report.get("gen.late_max_ms"),
        dve_par::default_threads()
    );
    if args.trace {
        let path = args
            .out
            .join(format!("{}-seed{}.spans.tsv", args.workload, args.seed));
        if let Err(e) = tracer.write_tsv(&path) {
            eprintln!("perfbench: cannot write spans to {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!(
            "spans: {} written to {}",
            tracer.spans().len(),
            path.display()
        );
        println!("e2e-under-trace: {}", report.json(END_TO_END));
        println!("{}", report.json(PER_LAYER));
    } else {
        println!("{}", report.json(END_TO_END));
    }
    ExitCode::SUCCESS
}
