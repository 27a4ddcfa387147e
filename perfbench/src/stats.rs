//! Exact order statistics over the benchmark's own samples, the
//! due-time→commit accounting of the socket workload, and the ramp-knee
//! detector. Everything here is pure so the unit tests can pin it down.

/// Exact nearest-rank quantile: the smallest sample `x` such that at
/// least `q·n` samples are `<= x`. `q` is clamped to `[0, 1]`; `q = 0`
/// gives the minimum. Returns `None` for an empty slice.
///
/// Unlike the engine's log-bucketed `LatencyHistogram` (buckets about
/// 11% apart) this reads the sample itself, so two runs that differ by
/// 1% report values 1% apart.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(quantile_sorted(&sorted, q))
}

/// [`quantile`] on an already ascending, non-empty slice.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let n = sorted.len();
    let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Exact quantile `q` of each full window of `window` consecutive
/// samples (a trailing partial window is dropped). A host stall then
/// spoils the windows it lands in, and the median over windows stays
/// put where a pooled tail would not.
pub fn window_quantiles(samples: &[f64], window: usize, q: f64) -> Vec<f64> {
    samples
        .chunks_exact(window.max(1))
        .map(|w| quantile(w, q).expect("windows are non-empty"))
        .collect()
}

/// Commit rate of each run of consecutive chunks holding at least
/// `window` events: the run's events over the time from the previous
/// run's last commit (the replay's start, for the first run) to its own.
/// `done_s[i]` is when chunk `i` committed, seconds since the start. A
/// trailing run short of `window` events is dropped.
pub fn window_rates(chunk_events: &[usize], done_s: &[f64], window: usize) -> Vec<f64> {
    assert_eq!(
        chunk_events.len(),
        done_s.len(),
        "one commit time per chunk"
    );
    let mut out = Vec::new();
    let (mut events, mut since) = (0usize, 0.0);
    for (&n, &done) in chunk_events.iter().zip(done_s) {
        events += n;
        if events >= window.max(1) {
            out.push(events as f64 / (done - since));
            events = 0;
            since = done;
        }
    }
    out
}

/// Median of the repetitions of one measurement (the middle sample, or
/// the mean of the two middle samples for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no repetitions");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Commit latency of every offered event of an open-loop socket phase,
/// measured from the event's due time.
///
/// * `due_ns[i]` — when event `i` was due to be sent;
/// * `accepted[i]` — whether the socket reader got event `i` onto the
///   ring (`false`: shed on a full ring, or never sent);
/// * `commits` — `(arrivals, at_ns)` read after each pump: every ring
///   arrival with index below `arrivals` was committed by `at_ns`.
///   Arrivals count ring pops, so shed events occupy no arrival index.
///
/// Returns `Some(latency_ns)` per committed event and `None` per failed
/// one (shed, never sent, or still uncommitted at the end).
pub fn commit_latencies(
    due_ns: &[u64],
    accepted: &[bool],
    commits: &[(u64, u64)],
) -> Vec<Option<u64>> {
    assert_eq!(due_ns.len(), accepted.len(), "one flag per offered event");
    let mut out = Vec::with_capacity(due_ns.len());
    let mut arrival = 0u64;
    let mut next = 0usize;
    for (&due, &ok) in due_ns.iter().zip(accepted) {
        if !ok {
            out.push(None);
            continue;
        }
        while next < commits.len() && commits[next].0 <= arrival {
            next += 1;
        }
        out.push(commits.get(next).map(|&(_, at)| at.saturating_sub(due)));
        arrival += 1;
    }
    out
}

/// One window of an offered-rate ramp.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RampWindow {
    /// Offered rate over the window, events per second.
    pub rate: f64,
    /// Exact p99 commit latency of the events due in the window, ms;
    /// failed events count as infinitely late.
    pub p99_ms: f64,
}

/// The highest offered rate a ramp sustained: the rate of the last
/// window that met `limit_ms` before the first run of at least
/// `persist` consecutive failing windows. A shorter run of failures —
/// one host stall — does not end the ramp. Windows after the knee are
/// ignored. Returns `None` when even the first window failed
/// persistently; when no failing run is found, the last passing
/// window's rate (the ramp never reached the knee).
pub fn ramp_knee(windows: &[RampWindow], limit_ms: f64, persist: usize) -> Option<f64> {
    let persist = persist.max(1);
    let mut last_pass: Option<f64> = None;
    let mut failing = 0usize;
    for w in windows {
        if w.p99_ms <= limit_ms {
            last_pass = Some(w.rate);
            failing = 0;
        } else {
            failing += 1;
            if failing >= persist {
                return last_pass;
            }
        }
    }
    last_pass
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_matches_the_nearest_rank_definition() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(quantile(&samples, 0.5), Some(50.0));
        assert_eq!(quantile(&samples, 0.99), Some(99.0));
        assert_eq!(quantile(&samples, 1.0), Some(100.0));
        assert_eq!(quantile(&samples, 0.0), Some(1.0));
        assert_eq!(quantile(&samples, 0.001), Some(1.0));
        assert_eq!(quantile(&[7.5], 0.99), Some(7.5));
        assert_eq!(quantile(&[], 0.5), None);
        // Against a brute-force count on an irregular sample.
        let odd = [3.2, 0.4, 9.9, 9.9, 1.0, 5.5, 0.4, 7.0, 2.2];
        for k in 0..=20 {
            let q = f64::from(k) / 20.0;
            let x = quantile(&odd, q).unwrap();
            let at_most = odd.iter().filter(|&&v| v <= x).count() as f64;
            let below = odd.iter().filter(|&&v| v < x).count() as f64;
            assert!(at_most >= q * odd.len() as f64, "q {q}: too small");
            assert!(below < (q * odd.len() as f64).max(1.0), "q {q}: too large");
        }
    }

    #[test]
    fn quantile_resolves_what_log_buckets_cannot() {
        // A 1% slower run reads exactly 1% slower, where the engine's
        // log buckets would report the same bucket bound or one ~11%
        // higher.
        let a: Vec<f64> = (0..1000).map(|i| 18.874 + f64::from(i) * 1e-6).collect();
        let b: Vec<f64> = a.iter().map(|x| x * 1.01).collect();
        let ratio = quantile(&b, 0.99).unwrap() / quantile(&a, 0.99).unwrap();
        assert!((ratio - 1.01).abs() < 1e-12);
    }

    #[test]
    fn window_quantiles_isolate_a_stall() {
        let mut samples = vec![1.0; 400];
        samples[150] = 50.0; // one stalled event in the second window
        assert_eq!(
            window_quantiles(&samples, 100, 1.0),
            vec![1.0, 50.0, 1.0, 1.0]
        );
        assert_eq!(median(&window_quantiles(&samples, 100, 1.0)), 1.0);
        assert_eq!(window_quantiles(&samples[..250], 100, 0.5).len(), 2);
    }

    #[test]
    fn window_rates_span_from_the_previous_commit() {
        // Chunks of 2 events committing once a second: windows of 4
        // events take two seconds each; the trailing chunk is dropped.
        let rates = window_rates(&[2, 2, 2, 2, 1], &[1.0, 2.0, 3.0, 4.0, 5.0], 4);
        assert_eq!(rates, vec![2.0, 2.0]);
        // A slow chunk slows only its own window, and a window may
        // overshoot its event count.
        let rates = window_rates(&[3, 3, 3, 3], &[1.0, 2.0, 6.0, 7.0], 5);
        assert_eq!(rates, vec![3.0, 1.2]);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn commit_accounting_without_sheds() {
        let due = [0, 10, 20, 30];
        let accepted = [true; 4];
        // Pump 1 committed arrivals 0..2 at t=25, pump 2 the rest at 40.
        let commits = [(2, 25), (4, 40)];
        assert_eq!(
            commit_latencies(&due, &accepted, &commits),
            vec![Some(25), Some(15), Some(20), Some(10)]
        );
    }

    #[test]
    fn commit_accounting_stays_aligned_when_the_ring_sheds() {
        // Events 1 and 3 were shed: they take no arrival index, so the
        // ring's arrival counter runs 0, 1, 2 over events 0, 2, 4.
        let due = [0, 10, 20, 30, 40];
        let accepted = [true, false, true, false, true];
        let commits = [(1, 5), (2, 50), (3, 60)];
        assert_eq!(
            commit_latencies(&due, &accepted, &commits),
            vec![Some(5), None, Some(30), None, Some(20)]
        );
    }

    #[test]
    fn commit_accounting_marks_uncommitted_tails_failed() {
        let due = [0, 10, 20];
        let accepted = [true, true, true];
        // Idle pumps repeat the count; the third event never committed.
        let commits = [(0, 1), (1, 4), (1, 9), (2, 30)];
        assert_eq!(
            commit_latencies(&due, &accepted, &commits),
            vec![Some(4), Some(20), None]
        );
    }

    fn series(rates_and_p99: &[(f64, f64)]) -> Vec<RampWindow> {
        rates_and_p99
            .iter()
            .map(|&(rate, p99_ms)| RampWindow { rate, p99_ms })
            .collect()
    }

    #[test]
    fn knee_is_the_last_window_before_a_persistent_failure() {
        let w = series(&[
            (4e3, 1.0),
            (6e3, 1.2),
            (8e3, 1.5),
            (10e3, 3.0),
            (12e3, 40.0),
            (14e3, 90.0),
            (16e3, 200.0),
        ]);
        assert_eq!(ramp_knee(&w, 25.0, 2), Some(10e3));
    }

    #[test]
    fn a_single_stalled_window_does_not_end_the_ramp() {
        let w = series(&[
            (4e3, 1.0),
            (6e3, 60.0), // one host stall
            (8e3, 1.4),
            (10e3, 2.0),
            (12e3, 50.0),
            (14e3, 120.0),
        ]);
        assert_eq!(ramp_knee(&w, 25.0, 2), Some(10e3));
        // With persist = 1 the stall would have ended it.
        assert_eq!(ramp_knee(&w, 25.0, 1), Some(4e3));
    }

    #[test]
    fn knee_edge_cases() {
        // Never failed: the ramp ran out below the knee.
        let w = series(&[(4e3, 1.0), (6e3, 1.0)]);
        assert_eq!(ramp_knee(&w, 25.0, 2), Some(6e3));
        // Failed from the start.
        let w = series(&[(4e3, 30.0), (6e3, 40.0)]);
        assert_eq!(ramp_knee(&w, 25.0, 2), None);
        // A trailing single failure at the schedule's end is not a knee.
        let w = series(&[(4e3, 1.0), (6e3, 1.0), (8e3, 99.0)]);
        assert_eq!(ramp_knee(&w, 25.0, 2), Some(6e3));
        assert_eq!(ramp_knee(&[], 25.0, 2), None);
    }
}
