//! One self-describing bench record, and the one comparator that gates it.
//!
//! Every bench writes the same [`Record`]: a header (bench, worker width,
//! tier when there is one, peak RSS) and a flat list of metrics, each
//! carrying its own gate or none when it is only reported. [`compare`]
//! applies the gates:
//!
//! * `better` + `rel`, read from the **baseline** so a fresh run cannot
//!   loosen its own gate: lower-is-better fails above `base * (1 + rel)`,
//!   higher-is-better below `base / (1 + rel)`;
//! * `floor`: a fresh value inside it never fails its `rel` gate (epoch
//!   quantization, scheduler jitter, allocator bookkeeping);
//! * `abs_max`: a ceiling on every fresh value that carries one or
//!   whose baseline does, new scenarios included.
//!
//! A baseline metric the fresh record lacks fails; a new one is listed.
//! Records of different widths are refused; a `bench` or `tier` mismatch
//! fails. [`parse`] reads the JSON subset the records use (objects,
//! arrays, strings escaping only `\"\\/nt`, f64 numbers, booleans, null).

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (f64 precision, like the emitter).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, insertion-ordered.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error<T>(&self, message: &str) -> Result<T, String> {
        Err(format!("JSON error at byte {}: {message}", self.pos))
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.eat(b) {
            Ok(())
        } else {
            self.error(&format!("expected '{}'", b as char))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b) if b.is_ascii_digit() || *b == b'-' => self.number(),
            _ => self.error("expected a value"),
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            self.error(&format!("expected '{text}'"))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits are utf8");
        match text.parse::<f64>() {
            Ok(x) => Ok(Json::Num(x)),
            Err(_) => {
                self.pos = start;
                self.error("malformed number")
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out: Vec<u8> = Vec::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return self.error("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    // Collected as raw bytes so multi-byte UTF-8
                    // sequences survive intact; validate once at the end.
                    return match String::from_utf8(out) {
                        Ok(s) => Ok(s),
                        Err(_) => self.error("invalid UTF-8 in string"),
                    };
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escaped = match self.bytes.get(self.pos) {
                        Some(b'"') => b'"',
                        Some(b'\\') => b'\\',
                        Some(b'/') => b'/',
                        Some(b'n') => b'\n',
                        Some(b't') => b'\t',
                        _ => return self.error("unsupported escape"),
                    };
                    out.push(escaped);
                    self.pos += 1;
                }
                Some(&b) => {
                    out.push(b);
                    self.pos += 1;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            if self.eat(b']') {
                return Ok(Json::Arr(items));
            }
            self.expect(b',')?;
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            if self.eat(b'}') {
                return Ok(Json::Obj(members));
            }
            self.expect(b',')?;
        }
    }
}

/// Parses a JSON document (the subset the records use).
pub fn parse(text: &str) -> Result<Json, String> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return parser.error("trailing content");
    }
    Ok(value)
}

/// Which direction of a gated metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Times, latencies, counts of bad events.
    Lower,
    /// Throughputs.
    Higher,
}

/// One measured value and the gate that defends it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Unique within its record, e.g. `single/events_to_recover`.
    pub name: String,
    /// The measurement.
    pub value: f64,
    /// Direction of the `rel` gate.
    pub better: Better,
    /// Relative bound against the baseline (`None`: no relative gate).
    pub rel: Option<f64>,
    /// Fresh values inside this bound pass the `rel` gate.
    pub floor: Option<f64>,
    /// Absolute ceiling on the fresh value.
    pub abs_max: Option<f64>,
}

impl Metric {
    /// A metric that is only reported. Panics on a non-finite value,
    /// which JSON cannot carry.
    pub fn new(name: impl Into<String>, value: f64) -> Metric {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is {value}");
        Metric {
            name,
            value,
            better: Better::Lower,
            rel: None,
            floor: None,
            abs_max: None,
        }
    }

    /// Gates the metric at `rel` above its baseline (lower is better).
    pub fn lower(mut self, rel: f64) -> Metric {
        self.rel = Some(rel);
        self
    }

    /// Gates the metric at `rel` below its baseline (higher is better).
    pub fn higher(mut self, rel: f64) -> Metric {
        self.better = Better::Higher;
        self.rel = Some(rel);
        self
    }

    /// Lets fresh values inside `floor` pass the `rel` gate.
    pub fn floor(mut self, floor: f64) -> Metric {
        self.floor = Some(floor);
        self
    }

    /// Fails any fresh value above `max`, whatever the baseline says.
    pub fn abs_max(mut self, max: f64) -> Metric {
        self.abs_max = Some(max);
        self
    }

    /// The gate in words, e.g. `lower +25% floor 600`; empty when the
    /// metric is only reported.
    pub fn gate_text(&self) -> String {
        let mut words = Vec::new();
        if let Some(rel) = self.rel {
            words.push(match self.better {
                Better::Lower => format!("lower +{:.0}%", rel * 100.0),
                Better::Higher => format!("higher -{:.0}%", rel * 100.0),
            });
        }
        words.extend(self.floor.map(|f| format!("floor {f}")));
        words.extend(self.abs_max.map(|m| format!("max {m}")));
        words.join(" ")
    }
}

/// A bench record: the header and the metric list.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// The bench that wrote it; its file is `BENCH_<bench>.json`.
    pub bench: String,
    /// Worker width the record was measured at.
    pub threads: u64,
    /// Scenario notation, for benches that run one tier.
    pub tier: Option<String>,
    /// Peak resident set of the measuring process.
    pub peak_rss_bytes: u64,
    /// The measurements, in the order the bench took them.
    pub metrics: Vec<Metric>,
}

impl Record {
    /// An empty record. `dve_bench::write_bench_record` stamps
    /// `threads` and `peak_rss_bytes` when it writes the file.
    pub fn new(bench: &str) -> Record {
        Record {
            bench: bench.to_string(),
            threads: 0,
            tier: None,
            peak_rss_bytes: 0,
            metrics: Vec::new(),
        }
    }

    /// Sets the scenario tier.
    pub fn with_tier(mut self, tier: &str) -> Record {
        self.tier = Some(tier.to_string());
        self
    }

    /// Appends a metric that is only reported.
    pub fn report(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.push(Metric::new(name, value));
    }

    /// The value of metric `name`.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metric(name).map(|m| m.value)
    }

    fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The record as JSON, one metric per line.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\n  \"bench\": \"{}\",\n  \"threads\": {},\n",
            self.bench, self.threads
        );
        if let Some(tier) = &self.tier {
            out.push_str(&format!("  \"tier\": \"{tier}\",\n"));
        }
        out.push_str(&format!(
            "  \"peak_rss_bytes\": {},\n  \"metrics\": [",
            self.peak_rss_bytes
        ));
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            out.push_str(&format!(
                "{sep}\n    {{\"name\": \"{}\", \"value\": {}",
                m.name, m.value
            ));
            if let Some(rel) = m.rel {
                let better = if m.better == Better::Lower {
                    "lower"
                } else {
                    "higher"
                };
                out.push_str(&format!(", \"better\": \"{better}\", \"rel\": {rel}"));
            }
            if let Some(floor) = m.floor {
                out.push_str(&format!(", \"floor\": {floor}"));
            }
            if let Some(max) = m.abs_max {
                out.push_str(&format!(", \"abs_max\": {max}"));
            }
            out.push('}');
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Reads a record out of a parsed document.
    pub fn from_json(doc: &Json) -> Result<Record, String> {
        let num = |key: &str| {
            doc.get(key)
                .and_then(Json::as_num)
                .ok_or(format!("no '{key}'"))
        };
        let mut metrics = Vec::new();
        for m in doc
            .get("metrics")
            .and_then(Json::as_arr)
            .ok_or("no 'metrics' array")?
        {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a 'name'")?;
            let field = |key: &str| match m.get(key) {
                None => Ok(None),
                Some(v) => v
                    .as_num()
                    .map(Some)
                    .ok_or(format!("{name}: '{key}' is not a number")),
            };
            let better = match m.get("better").and_then(Json::as_str) {
                None | Some("lower") => Better::Lower,
                Some("higher") => Better::Higher,
                Some(other) => return Err(format!("{name}: better is '{other}'")),
            };
            metrics.push(Metric {
                name: name.to_string(),
                value: field("value")?.ok_or(format!("{name}: no 'value'"))?,
                better,
                rel: field("rel")?,
                floor: field("floor")?,
                abs_max: field("abs_max")?,
            });
        }
        Ok(Record {
            bench: doc
                .get("bench")
                .and_then(Json::as_str)
                .ok_or("no 'bench'")?
                .to_string(),
            threads: num("threads")? as u64,
            tier: doc.get("tier").and_then(Json::as_str).map(str::to_string),
            peak_rss_bytes: num("peak_rss_bytes")? as u64,
            metrics,
        })
    }

    /// Reads and parses the record at `path`.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Record, String> {
        let path = path.as_ref();
        std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| parse(&text))
            .and_then(|doc| Record::from_json(&doc))
            .map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// How one metric fared against its gate.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Gated and inside the gate.
    Within,
    /// No gate: reported only.
    Reported,
    /// Absent from the baseline: listed; fails only over an `abs_max`.
    New,
    /// In the baseline but absent from the fresh record: fails.
    Missing,
    /// Outside the gate; the text names the bound.
    Failed(String),
}

/// One line of a [`Diff`].
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Metric name.
    pub name: String,
    /// Baseline value, when the baseline has the metric.
    pub base: Option<f64>,
    /// Fresh value, when the fresh record has the metric.
    pub fresh: Option<f64>,
    /// The gate in words (the baseline's, else the fresh metric's).
    pub gate: String,
    /// The outcome.
    pub verdict: Verdict,
}

impl Row {
    /// Whether this row fails the diff.
    pub fn failed(&self) -> bool {
        matches!(self.verdict, Verdict::Missing | Verdict::Failed(_))
    }
}

/// The outcome of comparing a fresh record against its baseline.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Diff {
    /// Header mismatches (`bench`, `tier`); each fails the diff.
    pub mismatches: Vec<String>,
    /// Baseline metrics in order, then the fresh record's new ones.
    pub rows: Vec<Row>,
}

impl Diff {
    /// Whether the gate passes.
    pub fn passed(&self) -> bool {
        self.mismatches.is_empty() && !self.rows.iter().any(Row::failed)
    }
}

/// Compares `fresh` against the committed `base` (see the module docs
/// for the rules). Returns `Err` — a refusal, not a failure — when the
/// two were measured at different worker widths: such timings are not
/// like for like, and a wider baseline would hide a regression.
pub fn compare(fresh: &Record, base: &Record) -> Result<Diff, String> {
    if fresh.threads != base.threads {
        let (f, b) = (fresh.threads, base.threads);
        return Err(format!("measured at width {f}, baseline at {b}"));
    }
    let mut diff = Diff::default();
    if fresh.bench != base.bench {
        diff.mismatches
            .push(format!("bench '{}' vs '{}'", fresh.bench, base.bench));
    }
    if fresh.tier != base.tier {
        diff.mismatches
            .push(format!("tier {:?} vs {:?}", fresh.tier, base.tier));
    }
    let row = |f: Option<&Metric>, b: Option<&Metric>| Row {
        name: f.or(b).map(|m| m.name.clone()).unwrap_or_default(),
        base: b.map(|b| b.value),
        fresh: f.map(|f| f.value),
        gate: b.or(f).map(Metric::gate_text).unwrap_or_default(),
        verdict: f.map_or(Verdict::Missing, |f| check(f, b)),
    };
    for b in &base.metrics {
        diff.rows.push(row(fresh.metric(&b.name), Some(b)));
    }
    for f in fresh
        .metrics
        .iter()
        .filter(|f| base.metric(&f.name).is_none())
    {
        diff.rows.push(row(Some(f), None));
    }
    Ok(diff)
}

fn check(fresh: &Metric, base: Option<&Metric>) -> Verdict {
    let abs_max = [fresh.abs_max, base.and_then(|b| b.abs_max)]
        .into_iter()
        .flatten()
        .reduce(f64::min);
    if let Some(max) = abs_max.filter(|&max| fresh.value > max) {
        return Verdict::Failed(format!("over the absolute max {max}"));
    }
    let Some(base) = base else {
        return Verdict::New;
    };
    let Some(rel) = base.rel else {
        return if abs_max.is_some() {
            Verdict::Within
        } else {
            Verdict::Reported
        };
    };
    let (v, floor) = (fresh.value, base.floor);
    let (inside, limit) = match base.better {
        Better::Lower => {
            let limit = base.value * (1.0 + rel);
            (v <= limit || floor.is_some_and(|f| v <= f), limit)
        }
        Better::Higher => {
            let limit = base.value / (1.0 + rel);
            (v >= limit || floor.is_some_and(|f| v >= f), limit)
        }
    };
    if inside {
        Verdict::Within
    } else {
        Verdict::Failed(format!("past the limit {limit}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(metrics: Vec<Metric>) -> Record {
        Record {
            threads: 1,
            metrics,
            ..Record::new("b")
        }
    }

    /// One gate probe: the baseline metric, the fresh one (`None`:
    /// absent) and whether the diff passes. `tag` names the gate.
    type Case = (&'static str, Option<Metric>, Option<Metric>, bool);

    /// A fresh value against a gated baseline of the same name.
    fn probe(tag: &'static str, base: Metric, fresh: f64, passes: bool) -> Case {
        let fresh = Metric {
            value: fresh,
            ..base.clone()
        };
        (tag, Some(base), Some(fresh), passes)
    }

    /// A fresh metric with no baseline.
    fn added(tag: &'static str, fresh: Metric, passes: bool) -> Case {
        (tag, None, Some(fresh), passes)
    }

    /// Every gate carried over from the per-bench comparators, each with
    /// a value just inside and just outside it.
    fn cases() -> Vec<Case> {
        let exec = |v| Metric::new("c/A/exec_ms", v).lower(0.25);
        let single = |v| Metric::new("c/lp/exec_ms", v).lower(0.5);
        let events = |v| Metric::new("s/events", v).lower(0.25).floor(600.0);
        let zero = |name: &str, v| Metric::new(name, v).abs_max(0.0);
        let p999 = |v| Metric::new("s/p999_ms", v).lower(0.25).floor(2.0);
        let eps = |name: &str, v| Metric::new(name, v).higher(0.25);
        let allocs = |v| Metric::new("allocs_per_event", v).abs_max(2.0);
        let bytes = |v| Metric::new("bytes_per_event", v).lower(0.25).floor(8.0);
        vec![
            probe("rel", exec(10.0), 12.5, true),
            probe("rel", exec(10.0), 12.51, false),
            probe("single", single(100.0), 150.0, true),
            probe("single", single(100.0), 150.1, false),
            // table1 writes no gate under 0.05 ms: any fresh value passes.
            probe("subfloor", Metric::new("c/A/exec_ms", 0.003), 10.0, true),
            probe("recover", events(1200.0), 1500.0, true),
            probe("recover", events(1200.0), 1501.0, false),
            probe("recover", zero("s/full_repairs", 0.0), 0.0, true),
            probe("recover", zero("s/full_repairs", 0.0), 1.0, false),
            probe("recover_floor", events(396.0), 600.0, true),
            probe("recover_floor", events(396.0), 601.0, false),
            added("recover_floor", zero("new/full_repairs", 0.0), true),
            added("recover_floor", zero("new/full_repairs", 1.0), false),
            probe("burst", p999(4.0), 5.0, true),
            probe("burst", p999(4.0), 5.001, false),
            probe("burst", zero("s/shed_leaves", 0.0), 1.0, false),
            probe("burst_floor", p999(1.0), 2.0, true),
            probe("burst_floor", p999(1.0), 2.001, false),
            added("burst_floor", zero("new/shed_leaves", 1.0), false),
            probe("serve_mc", eps("events_per_s", 100_000.0), 80_000.0, true),
            probe("serve_mc", eps("events_per_s", 100_000.0), 79_999.0, false),
            probe("curve", eps("events_per_s@2", 140_000.0), 112_000.0, true),
            probe("curve", eps("events_per_s@2", 140_000.0), 111_999.0, false),
            ("curve", Some(eps("events_per_s@4", 1.0)), None, false),
            ("curve", None, Some(eps("events_per_s@8", 1.0)), true),
            probe("alloc", allocs(0.25), 2.0, true),
            probe("alloc", allocs(0.25), 2.001, false),
            // A crept-up baseline cannot launder more creep.
            probe("alloc", allocs(3.0), 2.5, false),
            probe("alloc", bytes(2.0), 8.0, true),
            probe("alloc", bytes(2.0), 8.01, false),
            probe("alloc", bytes(24.0), 30.0, true),
            probe("alloc", bytes(24.0), 30.01, false),
            (
                "missing",
                Some(Metric::new("t/A/exec_ms", 10.0)),
                None,
                false,
            ),
            added("new", Metric::new("t/Z/exec_ms", 1.0).lower(0.25), true),
        ]
    }

    /// Runs the cases tagged `tag` (all of them for `""`).
    fn run(tag: &str) {
        let picked: Vec<Case> = cases()
            .into_iter()
            .filter(|c| tag.is_empty() || c.0 == tag)
            .collect();
        assert!(!picked.is_empty(), "no cases tagged {tag}");
        for (tag, base, fresh, passes) in picked {
            let what = format!("{tag}: {base:?} -> {fresh:?}");
            let diff = compare(
                &rec(fresh.into_iter().collect()),
                &rec(base.into_iter().collect()),
            );
            assert_eq!(diff.unwrap().passed(), passes, "{what}");
        }
    }

    #[test]
    fn carried_gates_pass_just_inside_and_fail_just_outside() {
        run("");
        let base = rec(vec![Metric::new("x", 1.0)]);
        let passed = |fresh: &Record| compare(fresh, &base).map(|d| d.passed());
        let (mut wide, mut renamed) = (base.clone(), base.clone());
        (wide.threads, renamed.bench) = (8, "c".to_string());
        // A width mismatch is a refusal (bench_diff exits 2)...
        assert!(passed(&wide).is_err());
        // ...while a tier or bench mismatch fails (exit 1).
        assert_eq!(passed(&base.clone().with_tier("t")), Ok(false));
        assert_eq!(passed(&renamed), Ok(false));
        assert_eq!(passed(&base), Ok(true));
    }

    #[test]
    fn thread_mismatch_refusal_logic() {
        let (one, mut eight) = (rec(vec![]), rec(vec![]));
        eight.threads = 8;
        assert!(compare(&eight, &one).unwrap_err().contains("width 8"));
        assert!(compare(&one, &eight).is_err());
    }

    /// One test per carried gate, each running that gate's slice of
    /// [`cases`].
    macro_rules! gate_tests {
        ($($name:ident: $tag:literal,)*) => {$(
            #[test]
            fn $name() {
                run($tag);
            }
        )*};
    }

    gate_tests! {
        flags_regressions_over_threshold_only: "rel",
        single_sample_pairs_get_doubled_threshold: "single",
        noise_floor_suppresses_micro_timings: "subfloor",
        recover_gate_bounds_events_and_forbids_full_repairs: "recover",
        recover_gate_floors_epoch_quantization_and_tracks_row_churn: "recover_floor",
        burst_gate_bounds_p999_and_forbids_shed_leaves: "burst",
        burst_gate_floors_jitter_and_tracks_row_churn: "burst_floor",
        serve_mc_gate_bounds_throughput_loss: "serve_mc",
        serve_mc_gate_holds_every_curve_width: "curve",
        alloc_gate_is_absolute_on_allocs_and_relative_on_bytes: "alloc",
    }

    #[test]
    fn missing_pairs_fail_the_gate() {
        run("missing");
        let diff = compare(&rec(vec![]), &rec(vec![Metric::new("a", 1.0)])).unwrap();
        assert_eq!(diff.rows[0].verdict, Verdict::Missing);
    }

    /// Dropping a measurement hides a regression; adding one cannot.
    #[test]
    fn new_pairs_are_reported_as_additions_not_failures() {
        run("new");
        let diff = compare(&rec(vec![Metric::new("a", 1.0)]), &rec(vec![])).unwrap();
        assert_eq!(diff.rows[0].verdict, Verdict::New);
    }

    #[test]
    fn parses_scalars_and_structures() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("-12.5e2").unwrap(), Json::Num(-1250.0));
        assert_eq!(parse("\"a\\\"b\"").unwrap(), Json::Str("a\"b".to_string()));
        let doc = parse(r#"{"a": [1, 2, {"b": false}], "c": "x"}"#).unwrap();
        assert_eq!(doc.get("c").and_then(Json::as_str), Some("x"));
        let arr = doc.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2].get("b"), Some(&Json::Bool(false)));
    }

    #[test]
    fn multibyte_utf8_strings_survive_parsing() {
        assert_eq!(
            parse("\"naïve — ünïcodé\"").unwrap(),
            Json::Str("naïve — ünïcodé".to_string())
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "12 34", "\"open"] {
            assert!(parse(bad).is_err(), "{bad}");
        }
        assert!(Record::from_json(&parse(r#"{"metrics": []}"#).unwrap()).is_err());
    }

    /// Each metric's gate in words, from a `bench` record holding
    /// `metrics`.
    fn gates(bench: &str, metrics: &str) -> Result<Vec<String>, String> {
        let head = format!(r#""bench": "{bench}", "threads": 1, "peak_rss_bytes": 0"#);
        let record = Record::from_json(&parse(&format!("{{{head}, \"metrics\": [{metrics}]}}"))?)?;
        assert_eq!(record.bench, bench);
        Ok(record.metrics.iter().map(Metric::gate_text).collect())
    }

    #[test]
    fn recover_documents_are_recognised_and_parsed() {
        let m = r#"{"name": "e", "value": 600, "better": "lower", "rel": 0.25, "floor": 600},
                   {"name": "full_repairs", "value": 0, "abs_max": 0}, {"name": "t", "value": 1}"#;
        assert_eq!(
            gates("recover", m).unwrap(),
            ["lower +25% floor 600", "max 0", ""]
        );
    }

    #[test]
    fn burst_documents_are_recognised_and_parsed() {
        let m = r#"{"name": "p999_ms", "value": 4.5, "better": "lower", "rel": 0.25, "floor": 2}"#;
        assert_eq!(gates("burst", m).unwrap(), ["lower +25% floor 2"]);
        assert!(
            gates("burst", r#"{"name": "p999_ms"}"#).is_err(),
            "no value"
        );
    }

    #[test]
    fn serve_mc_documents_are_recognised_and_parsed() {
        let m = r#"{"name": "events_per_s@2", "value": 1, "better": "higher", "rel": 0.25}"#;
        assert_eq!(gates("serve_mc", m).unwrap(), ["higher -25%"]);
        assert!(gates("serve_mc", r#"{"name": "x", "value": 1, "better": "up"}"#).is_err());
    }

    #[test]
    fn alloc_documents_are_recognised_and_parsed() {
        let m = r#"{"name": "allocs_per_event", "value": 0.2407, "abs_max": 2}"#;
        assert_eq!(gates("alloc", m).unwrap(), ["max 2"]);
        assert!(
            gates("alloc", r#"{"name": "x", "value": "1"}"#).is_err(),
            "not a number"
        );
    }

    /// Loads a committed record, checks that it is exactly what the
    /// writer would write and that it passes against itself, and
    /// returns it.
    fn committed(name: &str) -> Record {
        let path = format!("{}/../../BENCH_{name}.json", env!("CARGO_MANIFEST_DIR"));
        let record = Record::load(&path).unwrap();
        assert_eq!((record.bench.as_str(), record.threads), (name, 1));
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(record.to_json(), text, "{name}: writer round trip");
        assert!(compare(&record, &record).unwrap().passed(), "{name}");
        record
    }

    /// The metrics of `r` whose names end in `suffix`.
    fn named<'a>(r: &'a Record, suffix: &'a str) -> impl Iterator<Item = &'a Metric> + 'a {
        r.metrics.iter().filter(move |m| m.name.ends_with(suffix))
    }

    #[test]
    fn every_committed_record_passes_against_itself() {
        for name in ["churn", "mc", "million", "scale", "stream"] {
            committed(name);
        }
    }

    #[test]
    fn parses_the_committed_baseline() {
        let r = committed("table1");
        assert!(
            named(&r, "/exec_ms").count() >= 17,
            "4 tiers x 4 heuristics + GreZ-LS-GreC"
        );
        assert!(r
            .value("100s-1000z-50000c-65000cp/GreZ-LS-GreC/exec_ms")
            .is_some());
        for m in named(&r, "/exec_ms") {
            let single = m.name.contains("lp_solve");
            match m.rel {
                None => assert!(m.value < 0.05, "{}: ungated above the floor", m.name),
                Some(rel) => assert_eq!(rel, if single { 0.5 } else { 0.25 }, "{}", m.name),
            }
        }
    }

    #[test]
    fn parses_the_committed_recovery_baseline() {
        let r = committed("recover");
        assert_eq!(
            named(&r, "/full_repairs")
                .filter(|m| m.abs_max == Some(0.0))
                .count(),
            3
        );
        for m in named(&r, "/events_to_recover") {
            assert_eq!((m.rel, m.floor), (Some(0.25), Some(600.0)), "{}", m.name);
        }
    }

    #[test]
    fn parses_the_committed_burst_baseline() {
        let r = committed("burst");
        assert_eq!(
            named(&r, "/shed_leaves")
                .filter(|m| m.abs_max == Some(0.0))
                .count(),
            2
        );
        for m in named(&r, "/p999_ms") {
            assert_eq!((m.rel, m.floor), (Some(0.25), Some(2.0)), "{}", m.name);
            assert!(m.value <= 5.0, "{}: inside the bench budget", m.name);
        }
    }

    #[test]
    fn parses_the_committed_serve_mc_baseline() {
        let r = committed("serve_mc");
        for name in ["events_per_s", "events_per_s@1"] {
            let m = r.metric(name).unwrap();
            assert_eq!((m.better, m.rel), (Better::Higher, Some(0.25)), "{name}");
        }
    }

    #[test]
    fn parses_the_committed_alloc_baseline() {
        let r = committed("alloc");
        let allocs = r.metric("allocs_per_event").unwrap();
        assert_eq!(allocs.abs_max, Some(2.0));
        assert!(allocs.value <= 2.0, "the baseline itself clears the budget");
        let bytes = r.metric("bytes_per_event").unwrap();
        assert_eq!((bytes.rel, bytes.floor), (Some(0.25), Some(8.0)));
    }
}
