//! Streaming statistics for replicated simulation runs.
//!
//! The paper reports averages over 50 runs; this module provides the
//! aggregation: mean, sample standard deviation, and a normal-theory 95%
//! confidence half-width (adequate at 50 replications) — plus the
//! [`LatencyHistogram`] the streaming serving engine records per-event
//! latencies into (log-bucketed, bounded memory, conservative quantile
//! upper bounds — what the `stream` bench gates its SLO on).

use std::time::Duration;

/// Streaming mean/variance accumulator (Welford's algorithm).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Accumulator {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Accumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Accumulator {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample variance (n-1 denominator; 0 with fewer than 2 samples).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Normal-theory 95% confidence half-width (`1.96 * s / sqrt(n)`).
    pub fn ci95_half_width(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            1.96 * self.std_dev() / (self.n as f64).sqrt()
        }
    }

    /// Freezes into a [`Summary`].
    pub fn summary(&self) -> Summary {
        Summary {
            n: self.n,
            mean: self.mean(),
            std_dev: self.std_dev(),
            ci95: self.ci95_half_width(),
            min: if self.n == 0 { 0.0 } else { self.min },
            max: if self.n == 0 { 0.0 } else { self.max },
        }
    }
}

/// Frozen summary of a replicated measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub n: u64,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub std_dev: f64,
    /// 95% confidence half-width.
    pub ci95: f64,
    /// Minimum observation.
    pub min: f64,
    /// Maximum observation.
    pub max: f64,
}

impl Summary {
    /// Summarises a slice in one call.
    pub fn of(values: &[f64]) -> Summary {
        let mut acc = Accumulator::new();
        for &v in values {
            acc.push(v);
        }
        acc.summary()
    }
}

/// Values below this are binned exactly (one bucket per nanosecond).
const EXACT_NS: u64 = 64;
/// Sub-buckets per octave above [`EXACT_NS`] (12.5% worst-case
/// resolution).
const SUB_BITS: u32 = 3;
/// Smallest exponent using sub-bucketed octaves (`EXACT_NS = 2^6`).
const FIRST_EXP: u32 = 6;
/// 64 exact buckets + 8 sub-buckets for each of the 58 octaves of a u64.
const BUCKETS: usize = EXACT_NS as usize + ((64 - FIRST_EXP as usize) << SUB_BITS as usize);

/// Fixed-memory histogram of event latencies with ~12.5% worst-case
/// bucket resolution.
///
/// Latencies are recorded in nanoseconds into log-spaced buckets (exact
/// below 64 ns, eight sub-buckets per power of two above), so a
/// serving-loop histogram costs a few KiB regardless of event volume.
/// [`LatencyHistogram::quantile_upper_ns`] reports the *upper bound* of
/// the quantile's bucket — conservative in the direction a latency gate
/// cares about: if the reported p99 passes the SLO, the true p99 does
/// too.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
    sum_ns: u128,
    min_ns: u64,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

/// Bucket index of a nanosecond value.
fn bucket_of(ns: u64) -> usize {
    if ns < EXACT_NS {
        return ns as usize;
    }
    let exp = 63 - ns.leading_zeros();
    let sub = ((ns >> (exp - SUB_BITS)) & ((1 << SUB_BITS) - 1)) as usize;
    EXACT_NS as usize + (((exp - FIRST_EXP) as usize) << SUB_BITS as usize) + sub
}

/// Inclusive upper bound of a bucket, in nanoseconds.
fn bucket_upper(idx: usize) -> u64 {
    if idx < EXACT_NS as usize {
        return idx as u64;
    }
    let rel = idx - EXACT_NS as usize;
    let exp = FIRST_EXP + (rel >> SUB_BITS as usize) as u32;
    let sub = (rel & ((1 << SUB_BITS) - 1)) as u64;
    // Values in the bucket satisfy ns < (8 + sub + 1) << (exp - 3).
    ((1 << SUB_BITS as u64) + sub + 1)
        .saturating_mul(1 << (exp - SUB_BITS))
        .saturating_sub(1)
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: vec![0; BUCKETS],
            total: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }

    /// Records one latency.
    pub fn record(&mut self, latency: Duration) {
        self.record_ns(latency.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    /// Records one latency in nanoseconds.
    pub fn record_ns(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.total += 1;
        self.sum_ns += u128::from(ns);
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Number of recorded events.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Exact mean latency in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.total as f64
        }
    }

    /// Exact maximum recorded latency in nanoseconds.
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Exact minimum recorded latency in nanoseconds (0 when empty).
    pub fn min_ns(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min_ns
        }
    }

    /// Conservative quantile: the upper bound of the bucket containing
    /// the `q`-quantile observation (`q` in [0, 1]; 0 when empty). The
    /// true quantile is at most this value and at least 1/1.125 of it.
    pub fn quantile_upper_ns(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                // Never report past the exact maximum.
                return bucket_upper(idx).min(self.max_ns);
            }
        }
        self.max_ns
    }

    /// Folds another histogram into this one — element-wise bucket
    /// addition plus exact total/sum/min/max combination, so merging is
    /// commutative and associative: per-shard histograms merged in any
    /// order equal one histogram that recorded every event. This is what
    /// lets the sharded serving engine keep latency books per shard and
    /// still report one global distribution.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        debug_assert_eq!(self.counts.len(), other.counts.len());
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum_ns += other.sum_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// One-line rendering of the distribution (microseconds).
    pub fn render_us(&self) -> String {
        format!(
            "n={} mean={:.1}us p50<={:.1}us p99<={:.1}us max={:.1}us",
            self.total,
            self.mean_ns() / 1e3,
            self.quantile_upper_ns(0.50) as f64 / 1e3,
            self.quantile_upper_ns(0.99) as f64 / 1e3,
            self.max_ns as f64 / 1e3,
        )
    }
}

/// Peak resident set size of this process in bytes (Linux `VmHWM`),
/// `None` where the kernel interface is unavailable. This is the number
/// the scale gates and the bench JSON record: it bounds what the whole
/// pipeline — substrate, world, instance, matrix, serving books — ever
/// held at once, which is the claim the blocked delay pipeline makes.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_reports_on_linux() {
        if cfg!(target_os = "linux") {
            let rss = peak_rss_bytes().expect("Linux exposes VmHWM");
            // A running test binary holds at least a megabyte and less
            // than a terabyte.
            assert!(rss > 1 << 20, "peak RSS {rss} implausibly small");
            assert!(rss < 1 << 40, "peak RSS {rss} implausibly large");
        }
    }

    #[test]
    fn welford_matches_naive() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let s = Summary::of(&xs);
        assert_eq!(s.n, 8);
        assert!((s.mean - 5.0).abs() < 1e-12);
        // naive sample variance = sum((x-5)^2)/7 = 32/7
        assert!((s.std_dev - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
    }

    #[test]
    fn empty_and_single() {
        let s = Summary::of(&[]);
        assert_eq!(s.n, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.std_dev, 0.0);
        let s = Summary::of(&[3.5]);
        assert_eq!(s.mean, 3.5);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.ci95, 0.0);
    }

    #[test]
    fn ci_shrinks_with_n() {
        let few = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        let many: Vec<f64> = (0..100).map(|i| 1.0 + (i % 4) as f64).collect();
        let many = Summary::of(&many);
        assert!(many.ci95 < few.ci95);
    }

    #[test]
    fn accumulator_count_and_extremes() {
        let mut a = Accumulator::new();
        for x in [10.0, -5.0, 3.0] {
            a.push(x);
        }
        assert_eq!(a.count(), 3);
        let s = a.summary();
        assert_eq!(s.min, -5.0);
        assert_eq!(s.max, 10.0);
    }

    #[test]
    fn histogram_buckets_are_monotone_and_tight() {
        // Every value maps to a bucket whose upper bound is >= the value
        // and within 12.5% of it (or exact below 64 ns).
        let mut prev = 0usize;
        for ns in [
            0u64,
            1,
            5,
            63,
            64,
            65,
            100,
            1_000,
            12_345,
            1_000_000,
            250_000_000,
            u64::MAX / 2,
        ] {
            let idx = bucket_of(ns);
            assert!(idx >= prev, "buckets must be monotone in value");
            prev = idx;
            let upper = bucket_upper(idx);
            assert!(upper >= ns, "upper {upper} < value {ns}");
            if ns >= 64 {
                assert!(
                    upper as f64 <= ns as f64 * 1.125,
                    "upper {upper} too loose for {ns}"
                );
            }
        }
    }

    #[test]
    fn histogram_exact_stats() {
        let mut h = LatencyHistogram::new();
        for ns in [100u64, 200, 300, 400] {
            h.record_ns(ns);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.mean_ns(), 250.0);
        assert_eq!(h.min_ns(), 100);
        assert_eq!(h.max_ns(), 400);
        assert_eq!(h.quantile_upper_ns(1.0), 400);
        // p50 falls in 200's bucket; the bound covers 200.
        assert!(h.quantile_upper_ns(0.5) >= 200);
        assert!(h.quantile_upper_ns(0.5) <= 225);
    }

    #[test]
    fn histogram_quantiles_bound_exact_percentiles() {
        let mut h = LatencyHistogram::new();
        let values: Vec<u64> = (1..=1000u64).map(|i| i * 977).collect();
        for &v in &values {
            h.record_ns(v);
        }
        for &(q, rank) in &[(0.5f64, 500usize), (0.9, 900), (0.99, 990)] {
            let exact = values[rank - 1];
            let bound = h.quantile_upper_ns(q);
            assert!(bound >= exact, "q={q}: bound {bound} < exact {exact}");
            assert!(
                bound as f64 <= exact as f64 * 1.125,
                "q={q}: bound {bound} too loose for {exact}"
            );
        }
    }

    #[test]
    fn histogram_merge_equals_single_recorder() {
        let values: Vec<u64> = (0..500u64).map(|i| i * i * 37 + 3).collect();
        let mut whole = LatencyHistogram::new();
        for &v in &values {
            whole.record_ns(v);
        }
        // Shard by residue, merge in an arbitrary order.
        let mut shards = vec![LatencyHistogram::new(); 3];
        for (i, &v) in values.iter().enumerate() {
            shards[i % 3].record_ns(v);
        }
        let mut merged = LatencyHistogram::new();
        for shard in [&shards[2], &shards[0], &shards[1]] {
            merged.merge(shard);
        }
        assert_eq!(merged, whole);
        // Merging an empty histogram is the identity.
        merged.merge(&LatencyHistogram::new());
        assert_eq!(merged, whole);
    }

    #[test]
    fn histogram_empty_and_duration_entry() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean_ns(), 0.0);
        assert_eq!(h.quantile_upper_ns(0.99), 0);
        h.record(Duration::from_micros(3));
        assert_eq!(h.count(), 1);
        assert_eq!(h.min_ns(), 3_000);
        assert!(h.render_us().contains("n=1"));
    }
}
