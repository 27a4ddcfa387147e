//! Compares a fresh bench record against its committed baseline:
//! `bench_diff target/bench-records/BENCH_<name>.json BENCH_<name>.json`.
//! Each metric carries its own gate (see `dve_bench::diff`), so the tool
//! takes no thresholds. Exits 0 when every gate holds; 1 on a failed
//! gate, a missing metric or a `bench`/`tier` mismatch; 2 on usage or
//! parse errors, and when the records were measured at different worker
//! widths (a refusal, not a verdict).

use dve_bench::diff::{compare, Record, Verdict};
use std::process::exit;

fn main() {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.len() != 2 || paths.iter().any(|p| p.starts_with("--")) {
        eprintln!("usage: bench_diff <fresh.json> <baseline.json>");
        exit(2);
    }
    let [fresh, base] = [&paths[0], &paths[1]].map(|path| {
        Record::load(path).unwrap_or_else(|e| {
            eprintln!("bench_diff: {e}");
            exit(2)
        })
    });
    let diff = compare(&fresh, &base).unwrap_or_else(|why| {
        eprintln!(
            "bench_diff: refusing to compare {} with {}: {why}; re-measure at the same width, \
             or commit a baseline for this one",
            paths[0], paths[1]
        );
        exit(2)
    });
    let tier = base.tier.as_deref().unwrap_or("-");
    let (bench, threads) = (&base.bench, base.threads);
    println!("bench_diff: {paths:?}: {bench}, {threads} thread(s), tier {tier}");
    diff.mismatches
        .iter()
        .for_each(|m| println!("  MISMATCH {m}"));
    let show = |v: Option<f64>| v.map_or("-".to_string(), |v| v.to_string());
    for row in &diff.rows {
        let verdict = match &row.verdict {
            Verdict::Within => "ok".to_string(),
            Verdict::Reported => String::new(),
            Verdict::New => "NEW (no baseline yet)".to_string(),
            Verdict::Missing => "MISSING in fresh results".to_string(),
            Verdict::Failed(why) => format!("REGRESSION: {why}"),
        };
        let (name, base, fresh) = (&row.name, show(row.base), show(row.fresh));
        println!(
            "  {name:<48} {base:>14} -> {fresh:<14} {:<24} {verdict}",
            row.gate
        );
    }
    let failures = diff.mismatches.len() + diff.rows.iter().filter(|r| r.failed()).count();
    if failures > 0 {
        println!("bench_diff: FAIL ({failures} failure(s))");
        exit(1);
    }
    println!("bench_diff: PASS");
}
