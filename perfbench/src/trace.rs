//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions. Each thread owns a [`Tracer`]; the run
//! merges them at the end and writes one tab-separated file.
//!
//! Span names are the per-layer metric prefixes (`ingest.pump`,
//! `serve.flush`, `assign.grez`, ...). Spans of one burst or flush share
//! an `id`; `parent` is the index of the enclosing span in the same
//! tracer.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Index returned for spans opened while tracing is off.
const NO_SPAN: usize = usize::MAX;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `serve.flush`.
    pub name: &'static str,
    /// Recording thread, e.g. `engine`, `reader`, `main`.
    pub thread: &'static str,
    /// Burst, flush or repetition the span belongs to.
    pub id: u64,
    /// Index of the enclosing span in the merged list.
    pub parent: Option<usize>,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span recorder; a no-op when constructed off.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    thread: &'static str,
    /// When set, [`Tracer::record`] keeps only spans starting in odd
    /// periods after the origin, so one phase yields traced and
    /// untraced windows to compare (the tracing overhead).
    alternate: Option<(Instant, Duration)>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder for `thread` whose timestamps count from `epoch`.
    pub fn new(on: bool, epoch: Instant, thread: &'static str) -> Tracer {
        Tracer {
            on,
            epoch,
            thread,
            alternate: None,
            spans: Vec::new(),
        }
    }

    /// The instant timestamps count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Records only in odd `period`s after `origin` (see
    /// [`Tracer::traced_at`]); `None` records always.
    pub fn set_alternate(&mut self, alternate: Option<(Instant, Duration)>) {
        self.alternate = alternate;
    }

    /// Whether a span starting at `at` is recorded.
    pub fn traced_at(&self, at: Instant) -> bool {
        self.on
            && self.alternate.is_none_or(|(origin, period)| {
                at.checked_duration_since(origin)
                    .is_some_and(|d| (d.as_nanos() / period.as_nanos().max(1)) % 2 == 1)
            })
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// A fresh recorder for another thread, sharing this one's epoch
    /// and on/off state.
    pub fn fork(&self, thread: &'static str) -> Tracer {
        let mut t = Tracer::new(self.on, self.epoch, thread);
        t.alternate = self.alternate;
        t
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span now; close it with [`Tracer::close`]. Children pass
    /// the returned index as their parent.
    pub fn open(&mut self, name: &'static str, id: u64, parent: Option<usize>) -> usize {
        if !self.on {
            return NO_SPAN;
        }
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            thread: self.thread,
            id,
            parent: parent.filter(|&p| p != NO_SPAN),
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&mut self, span: usize) {
        if span != NO_SPAN {
            let end_ns = self.ns(Instant::now());
            self.spans[span].end_ns = end_ns;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.open(name, id, parent);
        let out = f();
        self.close(span);
        out
    }

    /// Records a span from instants the caller already took.
    pub fn record(&mut self, name: &'static str, id: u64, start: Instant, end: Instant) {
        if self.traced_at(start) {
            let span = Span {
                name,
                thread: self.thread,
                id,
                parent: None,
                start_ns: self.ns(start),
                end_ns: self.ns(end),
            };
            self.spans.push(span);
        }
    }

    /// Extends the last span to `end` when it has `name` (coalescing a
    /// run of idle pumps into one span); otherwise records a new one.
    pub fn extend_or_record(&mut self, name: &'static str, id: u64, start: Instant, end: Instant) {
        let end_ns = self.ns(end);
        let traced = self.traced_at(start);
        match self.spans.last_mut() {
            Some(last) if traced && last.name == name => last.end_ns = end_ns,
            _ => self.record(name, id, start, end),
        }
    }

    /// Moves `other`'s spans into this tracer, keeping parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span called `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 / 1e6)
            .collect()
    }

    /// Share of `[from, to]` covered by `thread`'s top-level spans that
    /// lie inside it. Top-level spans of one thread do not overlap, so
    /// this is 1.0 exactly when the thread's time is fully accounted.
    pub fn coverage(&self, thread: &str, from: Instant, to: Instant) -> f64 {
        let (lo, hi) = (self.ns(from), self.ns(to));
        let covered: u64 = self
            .spans
            .iter()
            .filter(|s| s.thread == thread && s.parent.is_none())
            .filter(|s| s.start_ns >= lo && s.end_ns <= hi)
            .map(Span::ns)
            .sum();
        covered as f64 / (hi - lo).max(1) as f64
    }

    /// Writes every span as a tab-separated line:
    /// `thread name id parent start_ns end_ns`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "thread\tname\tid\tparent\tstart_ns\tend_ns")?;
        for s in &self.spans {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{}\t{}\t{parent}\t{}\t{}",
                s.thread, s.name, s.id, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now(), "main");
        let s = t.open("a", 0, None);
        t.close(s);
        t.record("b", 0, Instant::now(), Instant::now());
        assert_eq!(t.span("c", 0, None, || 7), 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nesting_merging_and_coverage() {
        let epoch = Instant::now();
        let mut main = Tracer::new(true, epoch, "main");
        let outer = main.open("outer", 1, None);
        main.span("inner", 1, Some(outer), || {
            std::thread::sleep(Duration::from_millis(2))
        });
        main.close(outer);
        let mut other = main.fork("reader");
        let a = other.open("x", 2, None);
        other.span("y", 2, Some(a), || ());
        other.close(a);
        main.absorb(other);
        let spans = main.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2), "parent index shifted on merge");
        assert!(spans[0].ns() >= spans[1].ns());
        assert!(main.durations_ms("inner")[0] >= 2.0);

        // Back-to-back spans cover their interval exactly.
        let mut t = Tracer::new(true, epoch, "engine");
        let t0 = epoch + Duration::from_millis(10);
        let t1 = t0 + Duration::from_millis(5);
        let t2 = t1 + Duration::from_millis(5);
        t.record("ingest.pump", 0, t0, t1);
        t.extend_or_record("ingest.idle", 0, t1, t1 + Duration::from_millis(1));
        t.extend_or_record("ingest.idle", 0, t1, t2);
        assert_eq!(t.spans().len(), 2, "idle run coalesced");
        assert!((t.coverage("engine", t0, t2) - 1.0).abs() < 1e-9);
        assert!((t.coverage("engine", t0, t2 + Duration::from_millis(10)) - 0.5).abs() < 1e-9);
    }
}
