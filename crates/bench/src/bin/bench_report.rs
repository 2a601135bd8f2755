//! Measurement-mode benchmark driver: runs the criterion suites with a
//! bounded time budget, collects their machine-readable results, and
//! maintains the `BENCH_<suite>.json` perf-trajectory files at the repo
//! root.
//!
//! ```text
//! cargo run --release -p paradrive-bench --bin bench_report            # refresh baselines
//! cargo run --release -p paradrive-bench --bin bench_report -- --check # regression gate
//! cargo run --release -p paradrive-bench --bin bench_report -- kernels # one suite
//! ```
//!
//! Each tracked suite is run via `cargo bench -p paradrive-bench --bench
//! <suite>` with the vendored criterion shim's `CRITERION_*` environment
//! bounds, so a full sweep stays CI-sized (the shim's env overrides win
//! over any per-suite builder configuration). Results are normalized by a
//! fixed in-process calibration workload (`host_calib_ns`), making the
//! committed numbers comparable across hosts of different speeds:
//! `--check` compares *calibration-relative* minima (see [`compare`] for
//! why minima, not medians) and fails loudly when any benchmark regresses
//! by more than [`TOLERANCE`].
//!
//! The JSON files are line-oriented on purpose — one entry per line — so
//! this binary can read them back with no JSON dependency, and diffs stay
//! reviewable. They hold timings only; per-workload work counters (cache
//! hits, kernel mix, verify samples) come from the end-to-end benchmark's
//! traced runs (`perfbench/`).

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

/// The tracked suites, in run order.
const SUITES: [&str; 8] = [
    "kernels",
    "pipeline",
    "engine",
    "verify",
    "mps",
    "topologies",
    "sweep",
    "fleet",
];

/// Allowed relative regression of a calibration-normalized median before
/// `--check` fails (0.2 = 20%).
const TOLERANCE: f64 = 0.2;

/// Default `CRITERION_*` bounds applied when the caller has not set their
/// own: enough samples for a stable median, small enough that the whole
/// sweep finishes in CI minutes.
const DEFAULT_BOUNDS: [(&str, &str); 3] = [
    ("CRITERION_SAMPLE_SIZE", "12"),
    ("CRITERION_MEASUREMENT_MS", "1500"),
    ("CRITERION_WARMUP_MS", "100"),
];

#[derive(Debug, Clone, PartialEq)]
struct Entry {
    id: String,
    min_ns: f64,
    median_ns: f64,
    mean_ns: f64,
    samples: usize,
}

struct Report {
    suite: String,
    host_calib_ns: f64,
    entries: Vec<Entry>,
}

fn main() -> ExitCode {
    let mut check = false;
    let mut suites: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--check" => check = true,
            "--help" | "-h" => {
                eprintln!("usage: bench_report [--check] [suite ...]");
                eprintln!("suites: {}", SUITES.join(", "));
                return ExitCode::SUCCESS;
            }
            other if !other.starts_with('-') => suites.push(other.to_string()),
            other => {
                eprintln!("bench_report: unknown flag {other}");
                return ExitCode::FAILURE;
            }
        }
    }
    if suites.is_empty() {
        suites = SUITES.iter().map(|s| s.to_string()).collect();
    }
    for s in &suites {
        if !SUITES.contains(&s.as_str()) {
            eprintln!(
                "bench_report: unknown suite `{s}` (tracked: {})",
                SUITES.join(", ")
            );
            return ExitCode::FAILURE;
        }
    }

    let root = repo_root();
    println!("bench_report: calibrating host...");
    let calib = host_calib_ns();
    println!("bench_report: host_calib_ns = {calib:.0}");

    let mut failures: Vec<String> = Vec::new();
    for suite in &suites {
        let report = match run_suite(&root, suite, calib) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("bench_report: suite `{suite}` failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        print_speedups(&report);
        let path = root.join(format!("BENCH_{suite}.json"));
        if check {
            match load_report(&path) {
                Ok(baseline) => {
                    let mut fails = compare(&baseline, &report);
                    if !fails.is_empty() {
                        // One re-measurement before declaring failure: a
                        // regression caused by transient host contention
                        // will not reproduce, a real one will. The
                        // comparison then uses the better of both runs.
                        println!(
                            "bench_report: {suite}: {} candidate regression(s) — re-measuring once to rule out host noise",
                            fails.len()
                        );
                        match run_suite(&root, suite, calib) {
                            Ok(retry) => {
                                fails = compare(&baseline, &merge_min(&report, &retry));
                            }
                            Err(e) => {
                                eprintln!("bench_report: re-measurement of `{suite}` failed: {e}");
                            }
                        }
                    }
                    failures.extend(fails);
                }
                Err(e) => failures.push(format!(
                    "{suite}: no usable baseline at {} ({e}) — run bench_report without --check and commit the result",
                    path.display()
                )),
            }
        } else {
            if let Err(e) = std::fs::write(&path, render(&report)) {
                eprintln!("bench_report: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            println!("bench_report: wrote {}", path.display());
        }
    }

    if failures.is_empty() {
        if check {
            println!(
                "bench_report: all suites within {:.0}% of baseline",
                TOLERANCE * 100.0
            );
        }
        ExitCode::SUCCESS
    } else {
        eprintln!();
        eprintln!("bench_report: PERFORMANCE REGRESSION DETECTED");
        for f in &failures {
            eprintln!("  - {f}");
        }
        ExitCode::FAILURE
    }
}

/// The workspace root, resolved from this crate's manifest directory so
/// the binary works from any working directory.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .canonicalize()
        .expect("workspace root exists")
}

/// A fixed floating-point workload timed on this host: the unit that
/// makes committed medians comparable across machines. Minimum of five
/// runs, so transient noise pushes the number up, never down.
fn host_calib_ns() -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t = Instant::now();
        let mut x = 0.5f64;
        for i in 0..4_000_000u64 {
            x = x * 1.000_000_119 + (i & 7) as f64 * 1e-9;
        }
        std::hint::black_box(x);
        best = best.min(t.elapsed().as_nanos() as f64);
    }
    best
}

/// Runs one suite under the bounded measurement environment and parses
/// the shim's JSONL output.
fn run_suite(root: &Path, suite: &str, calib: f64) -> Result<Report, String> {
    let jsonl = root.join("target").join(format!("criterion-{suite}.jsonl"));
    let _ = std::fs::remove_file(&jsonl);
    std::fs::create_dir_all(jsonl.parent().unwrap()).map_err(|e| e.to_string())?;

    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let mut cmd = Command::new(cargo);
    cmd.current_dir(root)
        .args(["bench", "-p", "paradrive-bench", "--bench", suite])
        .env("CRITERION_JSON", &jsonl);
    for (key, value) in DEFAULT_BOUNDS {
        if std::env::var_os(key).is_none() {
            cmd.env(key, value);
        }
    }
    println!("bench_report: running suite `{suite}`...");
    let status = cmd
        .status()
        .map_err(|e| format!("cannot spawn cargo: {e}"))?;
    if !status.success() {
        return Err(format!("cargo bench exited with {status}"));
    }

    let raw = std::fs::read_to_string(&jsonl)
        .map_err(|e| format!("no results at {} ({e})", jsonl.display()))?;
    let mut entries: Vec<Entry> = raw.lines().filter_map(parse_entry).collect();
    if entries.is_empty() {
        return Err("suite produced no benchmark entries".to_string());
    }
    entries.sort_by(|a, b| a.id.cmp(&b.id));
    Ok(Report {
        suite: suite.to_string(),
        host_calib_ns: calib,
        entries,
    })
}

/// Prints the lanes-vs-scalar speedup for any id pair that differs only
/// in a `/scalar` / `/lanes` suffix — the tentpole's headline number.
fn print_speedups(report: &Report) {
    for e in &report.entries {
        if let Some(base) = e.id.strip_suffix("/scalar") {
            let lanes_id = format!("{base}/lanes");
            if let Some(l) = report.entries.iter().find(|x| x.id == lanes_id) {
                println!(
                    "bench_report: {base}: lanes speedup {:.2}x (scalar {:.1} ms, lanes {:.1} ms)",
                    e.median_ns / l.median_ns,
                    e.median_ns / 1e6,
                    l.median_ns / 1e6,
                );
            }
        }
    }
}

/// Compares a fresh report against the committed baseline on
/// calibration-normalized *minima*.
///
/// Minima, not medians: wall-clock noise on shared hosts is one-sided
/// (contention only ever adds time), so the per-benchmark minimum is the
/// stable location statistic while medians can swing 30%+ between
/// identical runs. The report files keep median and mean for human
/// reading; the gate reads `min_ns`.
fn compare(baseline: &Report, fresh: &Report) -> Vec<String> {
    let mut failures = Vec::new();
    for old in &baseline.entries {
        let Some(new) = fresh.entries.iter().find(|e| e.id == old.id) else {
            failures.push(format!(
                "{}: benchmark `{}` present in baseline but missing from this run",
                fresh.suite, old.id
            ));
            continue;
        };
        let old_norm = old.min_ns / baseline.host_calib_ns;
        let new_norm = new.min_ns / fresh.host_calib_ns;
        let ratio = new_norm / old_norm;
        if ratio > 1.0 + TOLERANCE {
            failures.push(format!(
                "{}: `{}` regressed {:.0}% (normalized min {:.4} → {:.4})",
                fresh.suite,
                old.id,
                (ratio - 1.0) * 100.0,
                old_norm,
                new_norm,
            ));
        }
    }
    failures
}

/// Merges two runs of the same suite, keeping each benchmark's best
/// (minimum) statistics — the noise-robust view the gate compares.
fn merge_min(a: &Report, b: &Report) -> Report {
    let entries = a
        .entries
        .iter()
        .map(|ea| match b.entries.iter().find(|eb| eb.id == ea.id) {
            Some(eb) => Entry {
                id: ea.id.clone(),
                min_ns: ea.min_ns.min(eb.min_ns),
                median_ns: ea.median_ns.min(eb.median_ns),
                mean_ns: ea.mean_ns.min(eb.mean_ns),
                samples: ea.samples + eb.samples,
            },
            None => ea.clone(),
        })
        .collect();
    Report {
        suite: a.suite.clone(),
        host_calib_ns: a.host_calib_ns,
        entries,
    }
}

/// Renders a report in the line-oriented JSON format.
fn render(report: &Report) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"suite\": \"{}\",\n", report.suite));
    out.push_str(&format!(
        "  \"host_calib_ns\": {:.1},\n",
        report.host_calib_ns
    ));
    out.push_str("  \"entries\": [\n");
    for (i, e) in report.entries.iter().enumerate() {
        let comma = if i + 1 < report.entries.len() {
            ","
        } else {
            ""
        };
        out.push_str(&format!(
            "    {{\"id\":\"{}\",\"min_ns\":{:.1},\"median_ns\":{:.1},\"mean_ns\":{:.1},\"samples\":{}}}{comma}\n",
            e.id, e.min_ns, e.median_ns, e.mean_ns, e.samples
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Loads a committed `BENCH_<suite>.json` (the same line-oriented format
/// [`render`] writes).
fn load_report(path: &Path) -> Result<Report, String> {
    let raw = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let mut suite = None;
    let mut calib = None;
    let mut entries = Vec::new();
    for line in raw.lines() {
        if let Some(s) = field_str(line, "suite") {
            suite = Some(s);
        }
        if let Some(v) = field_f64(line, "host_calib_ns") {
            calib = Some(v);
        }
        if let Some(e) = parse_entry(line) {
            entries.push(e);
        }
    }
    match (suite, calib) {
        (Some(suite), Some(host_calib_ns)) if !entries.is_empty() => Ok(Report {
            suite,
            host_calib_ns,
            entries,
        }),
        _ => Err("malformed report file".to_string()),
    }
}

/// Parses one `{"id":…,"min_ns":…,…}` line; `None` for anything else.
fn parse_entry(line: &str) -> Option<Entry> {
    Some(Entry {
        id: field_str(line, "id")?,
        min_ns: field_f64(line, "min_ns")?,
        median_ns: field_f64(line, "median_ns")?,
        mean_ns: field_f64(line, "mean_ns")?,
        samples: field_f64(line, "samples")? as usize,
    })
}

/// Extracts a string field from a single-line JSON object, undoing the
/// shim's minimal escaping.
fn field_str(line: &str, key: &str) -> Option<String> {
    let rest = field_raw(line, key)?;
    let rest = rest.strip_prefix('"')?;
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(ch) = chars.next() {
        match ch {
            '\\' => out.push(chars.next()?),
            '"' => return Some(out),
            _ => out.push(ch),
        }
    }
    None
}

/// Extracts a numeric field from a single-line JSON object.
fn field_f64(line: &str, key: &str) -> Option<f64> {
    let rest = field_raw(line, key)?;
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The text immediately after `"key":`, whitespace-tolerant.
fn field_raw<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\"");
    let at = line.find(&needle)?;
    let rest = line[at + needle.len()..].trim_start();
    rest.strip_prefix(':').map(str::trim_start)
}
