//! Readouts of the process and of the host it shares: process CPU time
//! and peak memory (end-to-end metrics), and steal time and timer
//! lateness, which explain noise and no optimisation should move.

use crate::stats::quantile;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Aggregate CPU counters from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuStat {
    total: u64,
    steal: u64,
}

impl CpuStat {
    /// Reads `/proc/stat`; all zeros where it is unavailable.
    pub fn now() -> CpuStat {
        let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let Some(line) = text.lines().next() else {
            return CpuStat::default();
        };
        // cpu user nice system idle iowait irq softirq steal guest guest_nice;
        // guest time is already inside user, so it is not added again.
        let fields: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .take(8)
            .filter_map(|f| f.parse().ok())
            .collect();
        CpuStat {
            total: fields.iter().sum(),
            steal: fields.get(7).copied().unwrap_or(0),
        }
    }

    /// Steal time between `self` and `later`, percent of all CPU time.
    pub fn steal_pct(&self, later: &CpuStat) -> f64 {
        let total = later.total.saturating_sub(self.total);
        if total == 0 {
            return 0.0;
        }
        100.0 * later.steal.saturating_sub(self.steal) as f64 / total as f64
    }
}

/// `struct timespec` of the C library on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, out: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const PROCESS_CPUTIME: i32 = 2;

/// User plus system CPU time of this process (all threads, live and
/// exited), in seconds, at nanosecond resolution — `/proc`'s 10 ms
/// ticks would quantise a per-event cost.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` with the C layout, and
    // clock_gettime writes only through the pointer it is given.
    let rc = unsafe { clock_gettime(PROCESS_CPUTIME, &mut ts) };
    assert_eq!(
        rc, 0,
        "CLOCK_PROCESS_CPUTIME_ID is always available on Linux"
    );
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident memory of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    dve_sim::peak_rss_bytes().unwrap_or(0) as f64 / (1024.0 * 1024.0)
}

/// A background thread that sleeps [`TimerProbe::PERIOD`] at a time and
/// records how late each wake-up is — the scheduler delay any timed
/// thread of the run would see.
pub struct TimerProbe {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Vec<f64>>,
}

impl TimerProbe {
    /// Requested sleep per wake-up.
    pub const PERIOD: Duration = Duration::from_millis(2);

    /// Starts the probe thread.
    pub fn start() -> TimerProbe {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut late_ms = Vec::new();
            while !flag.load(Ordering::Relaxed) {
                let t = Instant::now();
                std::thread::sleep(Self::PERIOD);
                let slept = t.elapsed();
                late_ms.push(slept.saturating_sub(Self::PERIOD).as_secs_f64() * 1e3);
            }
            late_ms
        });
        TimerProbe { stop, handle }
    }

    /// Stops the probe and returns the p99 wake-up lateness, ms.
    pub fn finish(self) -> f64 {
        self.stop.store(true, Ordering::Relaxed);
        let late = self.handle.join().expect("timer probe thread panicked");
        quantile(&late, 0.99).unwrap_or(0.0)
    }
}
