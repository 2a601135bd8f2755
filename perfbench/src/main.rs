//! `perfbench`: the end-to-end benchmark binary behind `perfbench/run.py`.
//!
//! One client thread drives one workload in a closed loop: the next
//! request is sent only after the previous one returns, and the engine
//! underneath runs on [`workload::THREADS`] worker threads.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S [--mode setup|run|trace] [--trace-out FILE]
//! ```
//!
//! - `setup` runs the first, cold request and exits;
//! - `run` (the default) then loops steady-state requests for `S` seconds
//!   with tracing off;
//! - `trace` replays each request stage by stage with spans recorded here,
//!   outside the library, and cross-checks the replay against the
//!   library's own run (see [`replay`]).
//!
//! Protocol on stdout: a `setup-done` line the moment the cold request
//! returns (`run.py` times the fresh process up to that line), then one
//! JSON object with the run's results.

mod replay;
mod workload;

use std::io::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{fnv1a, Checked, Inputs, Seeds, Workload};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Setup,
    Run,
    Trace,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    mode: Mode,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut mode = Mode::Run;
    let mut trace_out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} expects a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds must be a non-negative number, got {s}"));
                }
                seconds = Some(s);
            }
            "--mode" => {
                mode = match value()?.as_str() {
                    "setup" => Mode::Setup,
                    "run" => Mode::Run,
                    "trace" => Mode::Trace,
                    other => return Err(format!("unknown mode `{other}`")),
                }
            }
            "--trace-out" => trace_out = Some(value()?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        mode,
        trace_out,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let seeds = Seeds::new(args.seed);
    let result = match args.mode {
        Mode::Trace => {
            let Some(path) = args.trace_out.as_deref() else {
                eprintln!("perfbench: --mode trace needs --trace-out FILE");
                return ExitCode::FAILURE;
            };
            match replay::trace_run(args.workload, seeds, args.seconds, path) {
                Ok(json) => json,
                Err(msg) => {
                    eprintln!("perfbench: {msg}");
                    return ExitCode::FAILURE;
                }
            }
        }
        mode => closed_loop(
            &Inputs::new(args.workload, seeds),
            if mode == Mode::Setup {
                None
            } else {
                Some(args.seconds)
            },
        ),
    };
    println!("{result}");
    ExitCode::SUCCESS
}

/// The fewest steady-state latency samples a run reports on: enough for
/// ten beyond the p90.
const MIN_REQUESTS: usize = 100;

/// Tells `run.py` the cold request has returned.
pub fn signal_setup_done() {
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "setup-done");
    let _ = out.flush();
}

/// Failure bookkeeping shared by the closed loop and the traced run: a
/// request fails on an engine error, a failed verdict, or an output that
/// differs from the cold request's.
pub struct Tally {
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed.
    pub failed: u64,
    /// The first few failure reasons.
    pub reasons: Vec<String>,
    /// The cold request's projection; every later one must match it.
    pub projection: String,
}

impl Tally {
    /// An empty tally; every recorded request must project to
    /// `projection`, the cold request's.
    pub fn new(projection: &str) -> Self {
        Tally {
            attempted: 0,
            failed: 0,
            reasons: Vec::new(),
            projection: projection.to_string(),
        }
    }

    /// Records one request with any extra failures found by the caller.
    pub fn record(&mut self, checked: &Checked, mut extra: Vec<String>) {
        self.attempted += 1;
        extra.extend(checked.failures.iter().cloned());
        if checked.projection != self.projection {
            extra.push("output differs from the cold request's".to_string());
        }
        if !extra.is_empty() {
            self.failed += 1;
            for reason in extra {
                if self.reasons.len() < 8 {
                    self.reasons.push(reason);
                }
            }
        }
    }

    /// The JSON fields every mode reports.
    pub fn json_fields(&self) -> String {
        format!(
            "\"digest\":\"{:016x}\",\"attempted\":{},\"failed\":{},\"failures\":[{}],\
             \"peak_rss_kb\":{}",
            fnv1a(self.projection.as_bytes()),
            self.attempted,
            self.failed,
            self.reasons
                .iter()
                .map(|r| json_string(r))
                .collect::<Vec<_>>()
                .join(","),
            peak_rss_kb(),
        )
    }
}

/// The untraced closed loop: one cold request, then (unless `seconds` is
/// `None`) steady-state requests until `seconds` have passed.
///
/// A request during which the hypervisor stole CPU time from this machine
/// is sent and checked like any other, but its latency is left out of the
/// samples: on a shared host, steal episodes last minutes and would
/// measure the neighbours rather than the program.
fn closed_loop(inputs: &Inputs, seconds: Option<f64>) -> String {
    let cold = inputs.request();
    signal_setup_done();
    let cold_checked = cold.check();
    let mut tally = Tally::new(&cold_checked.projection);
    tally.record(&cold_checked, Vec::new());
    let mut latencies_ms: Vec<f64> = Vec::new();
    let mut jobs = 0usize;
    let mut stolen = 0usize;
    let started = Instant::now();
    if let Some(seconds) = seconds {
        let budget = Duration::from_secs_f64(seconds);
        // Past the budget only while too few requests have been sampled
        // for a p90 with ten samples beyond it, and never past four
        // budgets.
        let more = |sampled: usize| {
            let elapsed = started.elapsed();
            elapsed < budget || (sampled < MIN_REQUESTS && elapsed < 4 * budget)
        };
        while more(latencies_ms.len()) {
            let steal = steal_ticks();
            let response = inputs.request();
            let hit = steal_ticks() != steal;
            let checked = response.check();
            tally.record(&checked, Vec::new());
            if hit {
                stolen += 1;
            } else {
                latencies_ms.push(response.latency.as_secs_f64() * 1e3);
                jobs += checked.jobs;
            }
        }
    }
    format!(
        "{{{},\"cold_ms\":{},\"stolen\":{},\"sampled_jobs\":{},\"latencies_ms\":[{}]}}",
        tally.json_fields(),
        json_f64(cold.latency.as_secs_f64() * 1e3),
        stolen,
        jobs,
        latencies_ms
            .iter()
            .map(|&v| json_f64(v))
            .collect::<Vec<_>>()
            .join(","),
    )
}

/// CPU time the hypervisor has stolen from this machine so far, in clock
/// ticks: the `steal` column of `/proc/stat`. Always 0 where it is
/// unavailable, which disables the steal filter.
fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            stat.lines()
                .next()
                .and_then(|cpu| cpu.split_whitespace().nth(8))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// The process's peak resident set (`VmHWM`), in kB; 0 where `/proc` is
/// unavailable.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// A JSON number (`null` for NaN and infinities, which JSON lacks).
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
