//! `sweep` CLI: run the topology × benchmark × costing × calibration ×
//! seed cross-product through the batched multi-threaded engine and print
//! a per-cell report with per-topology and per-calibration rollups.
//!
//! ```text
//! cargo run --release -p paradrive-repro --bin sweep -- \
//!     [--smoke] [--threads N] [--seeds N] [--suite-seeds A,B,..] [--no-cache] \
//!     [--topologies T1,T2,..] [--benchmarks B1,B2,..] [--costings hull,synth] \
//!     [--calibrations C1,C2,..] [--calibration-seed N] [--noise-aware] \
//!     [--verify off,sampled,mps,exact] [--timings] \
//!     [--shards N --shard I] [--journal FILE [--resume]] [--out FILE]
//! ```
//!
//! Topology names follow `grid<R>x<C>`, `line<N>`, `ring<N>`,
//! `heavyhex<D>`, `modular<CHIPS>x<SIZE>x<LINKS>`; calibration scenarios
//! follow `uniform`, `spread<SIGMA>`, `hotspot<K>`,
//! `gradient<STRENGTH>`. The default sweep is four zoo topologies ×
//! {GHZ, VQE_L, QFT, QAOA} × both costing disciplines × three
//! calibration scenarios; `--smoke` shrinks that to a seconds-long CI
//! check. `--noise-aware` routes around high-error calibrated edges
//! (dead hotspot edges are never used); without it the noise-blind
//! scoring is the baseline.
//!
//! `--drift SCENARIO --epochs N` adds calibration drift as a sixth axis:
//! every (topology, calibration) pair gets a seeded drift timeline
//! (`calm` for zero volatility, `walk<SIGMA>` for a lognormal random
//! walk, `walk<SIGMA>dead<K>` to also kill K edges mid-timeline), the
//! grid replays across N calibration epochs under the `--policy`
//! re-transpilation policy (`never`, `always`, or `adaptive<LOSS>`), and
//! the report gains per-epoch fleet rollups (mean delivered fidelity,
//! route reuse, re-transpile rate). `--drift-seed` moves the whole
//! family of timelines at once.
//!
//! `--verify` adds semantic verification as a fifth sweep axis: each
//! level replays every cell's consolidated output through the equivalence
//! oracles (`exact` up to the routed permutation on ≤10-qubit supports,
//! matrix-product-state overlap with a certified truncation bound beyond
//! — or always with `mps` — and seeded Monte-Carlo when the bond budget
//! runs out) and annotates the report with the verdicts. The process
//! exits non-zero if any cell fails verification.
//!
//! # Sharding, journals and merge
//!
//! `--shards N --shard I` runs only the cells whose deterministic ordinal
//! ≡ I (mod N) — the same spec flags on every process slice one grid
//! consistently. `--out FILE` writes the machine-readable JSONL mirror of
//! the report in the journal dialect (a header, the cells in ordinal
//! order, a trailer; `merge` re-derives the rollups). `--journal
//! FILE` appends every completed cell to a crash-safe journal as it
//! lands; rerunning with `--resume` restores those cells and runs only
//! what's missing, producing a bit-identical report.
//!
//! `sweep merge` recombines shard outputs. It takes the *same spec flags*
//! as the shard runs (it re-plans the grid to validate coverage) plus the
//! shard report/journal paths as positional arguments:
//!
//! ```text
//! sweep --smoke --shards 2 --shard 0 --out s0.jsonl
//! sweep --smoke --shards 2 --shard 1 --out s1.jsonl
//! sweep merge --smoke s0.jsonl s1.jsonl        # == `sweep --smoke` output
//! ```
//!
//! The merged report is byte-identical to the single-process run.
//! `--shard-traces A,B,..` splices per-shard JSONL traces (written by the
//! shard runs' `--trace-jsonl`) into one timeline with `shard<i>.`
//! counter namespacing, exported via `--trace`/`--trace-jsonl`.
//!
//! `--threads` is at most 256 and `--seeds` at most 1,024; larger values
//! are rejected before any cell runs.
//!
//! The report is a pure function of the sweep spec — bit-identical at any
//! `--threads` setting and any shard split. Wall-clock timings are
//! printed only with `--timings`, kept apart (together with the cache
//! counters, which are per-process) so the deterministic report stays
//! comparable across machines, thread counts and shardings. `--trace
//! FILE` writes the whole sweep's execution trace (per-cell stage spans,
//! per-shard cache and kernel-dispatch counters) as Chrome trace-event
//! JSON — open it in Perfetto or `chrome://tracing`; `--trace-jsonl FILE`
//! writes the same data line-oriented. None of these flags change the
//! report by one bit.

use paradrive_engine::{Costing, RetranspilePolicy, Trace};
use paradrive_repro::sweep::{
    merge_reports, parse_count, read_journal, run_sweep_shard, splice_shard_traces, ShardOptions,
    SweepOutcome, SweepSpec, MAX_ROUTING_SEEDS, MAX_THREADS,
};
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage: sweep [--smoke] [--threads N] [--seeds N] [--suite-seeds A,B,..] \
     [--no-cache] [--topologies T1,..] [--benchmarks B1,..] [--costings hull,synth] \
     [--calibrations C1,..] [--calibration-seed N] [--noise-aware] \
     [--verify off,sampled,mps,exact] \
     [--drift calm|walk<S>|walk<S>dead<K> --epochs N [--drift-seed N] \
      [--policy never|always|adaptive<LOSS>]] \
     [--timings] [--trace FILE] [--trace-jsonl FILE] \
     [--shards N --shard I] [--journal FILE [--resume]] [--out FILE]
       sweep merge <spec flags> [--out FILE] [--shard-traces A,B,..] REPORT.jsonl..";

/// Diagnostic outputs requested alongside the deterministic report.
#[derive(Default)]
struct Diagnostics {
    timings: bool,
    trace: Option<String>,
    trace_jsonl: Option<String>,
}

/// Sharding and persistence flags for a run, plus merge-mode inputs.
#[derive(Default)]
struct Sharding {
    shards: usize,
    shard: usize,
    journal: Option<String>,
    resume: bool,
    out: Option<String>,
    /// Merge mode only: shard report/journal paths.
    reports: Vec<String>,
    /// Merge mode only: per-shard JSONL traces to splice.
    shard_traces: Vec<String>,
}

fn parse_args(merge_mode: bool) -> Result<(SweepSpec, Diagnostics, Sharding), String> {
    let mut spec = SweepSpec::full();
    let mut diag = Diagnostics::default();
    let mut sharding = Sharding::default();
    let skip = if merge_mode { 2 } else { 1 };
    let args: Vec<String> = std::env::args().skip(skip).collect();
    if args.iter().any(|a| a == "--smoke") {
        spec = SweepSpec::smoke();
    }
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} expects a value"))
        };
        match arg.as_str() {
            "--smoke" => {} // handled above so later flags can override it
            "--timings" => diag.timings = true,
            "--trace" => diag.trace = Some(value("--trace")?.to_string()),
            "--trace-jsonl" => diag.trace_jsonl = Some(value("--trace-jsonl")?.to_string()),
            "--no-cache" => spec.cache = false,
            "--threads" => {
                spec.threads = parse_count("--threads", value("--threads")?, MAX_THREADS)?;
            }
            "--seeds" => {
                spec.routing_seeds = parse_count("--seeds", value("--seeds")?, MAX_ROUTING_SEEDS)?;
            }
            "--suite-seeds" => {
                spec.suite_seeds = value("--suite-seeds")?
                    .split(',')
                    .map(|s| s.trim().parse().map_err(|e| format!("--suite-seeds: {e}")))
                    .collect::<Result<_, _>>()?;
            }
            "--topologies" => {
                spec.topologies = value("--topologies")?
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .collect();
            }
            "--benchmarks" => {
                spec.benchmarks = value("--benchmarks")?
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .collect();
            }
            "--costings" => {
                spec.costings = value("--costings")?
                    .split(',')
                    .map(|s| match s.trim() {
                        "hull" => Ok(Costing::Hull),
                        "synth" => Ok(Costing::Synthesized),
                        other => Err(format!("--costings: unknown discipline `{other}`")),
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--calibrations" => {
                spec.calibrations = value("--calibrations")?
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .collect();
            }
            "--calibration-seed" => {
                spec.calibration_seed = value("--calibration-seed")?
                    .parse()
                    .map_err(|e| format!("--calibration-seed: {e}"))?;
            }
            "--noise-aware" => spec.noise_aware = true,
            "--drift" => spec.drift = Some(value("--drift")?.to_string()),
            "--epochs" => {
                spec.epochs = value("--epochs")?
                    .parse()
                    .map_err(|e| format!("--epochs: {e}"))?;
            }
            "--drift-seed" => {
                spec.drift_seed = value("--drift-seed")?
                    .parse()
                    .map_err(|e| format!("--drift-seed: {e}"))?;
            }
            "--policy" => {
                spec.policy = value("--policy")?
                    .parse::<RetranspilePolicy>()
                    .map_err(|e| format!("--policy: {e}"))?;
            }
            "--verify" => {
                spec.verify = value("--verify")?
                    .split(',')
                    .map(|s| s.trim().parse().map_err(|e| format!("--verify: {e}")))
                    .collect::<Result<_, _>>()?;
            }
            "--shards" => {
                sharding.shards = value("--shards")?
                    .parse()
                    .map_err(|e| format!("--shards: {e}"))?;
            }
            "--shard" => {
                sharding.shard = value("--shard")?
                    .parse()
                    .map_err(|e| format!("--shard: {e}"))?;
            }
            "--journal" => sharding.journal = Some(value("--journal")?.to_string()),
            "--resume" => sharding.resume = true,
            "--out" => sharding.out = Some(value("--out")?.to_string()),
            "--shard-traces" if merge_mode => {
                sharding.shard_traces = value("--shard-traces")?
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .collect();
            }
            path if merge_mode && !path.starts_with('-') => {
                sharding.reports.push(path.to_string());
            }
            flag => return Err(format!("unknown flag `{flag}`\n{USAGE}")),
        }
    }
    if sharding.resume && sharding.journal.is_none() {
        return Err("--resume needs --journal FILE to restore from".to_string());
    }
    if merge_mode && sharding.reports.is_empty() {
        return Err(format!("merge needs at least one report path\n{USAGE}"));
    }
    Ok((spec, diag, sharding))
}

/// Writes the merged execution trace (plus any global-recorder counters)
/// to the requested `--trace`/`--trace-jsonl` paths.
fn write_traces(trace: &Trace, diag: &Diagnostics) -> Result<(), String> {
    for (path, text) in [
        (&diag.trace, trace.to_chrome_json()),
        (&diag.trace_jsonl, trace.to_jsonl()),
    ] {
        if let Some(path) = path {
            std::fs::write(path, text).map_err(|e| format!("cannot write trace {path}: {e}"))?;
            eprintln!(
                "sweep: wrote trace ({} spans, {} counters) to {path}",
                trace.spans.len(),
                trace.counters.len()
            );
        }
    }
    Ok(())
}

/// Prints the outcome, writes requested artifacts, and picks the exit
/// code (non-zero when any cell failed verification).
fn finish(outcome: &SweepOutcome, diag: &Diagnostics, out: Option<&str>) -> ExitCode {
    print!("{}", outcome.render());
    if diag.timings {
        print!("{}", outcome.render_timings());
    }
    if let Some(path) = out {
        if let Err(e) = std::fs::write(path, outcome.to_jsonl()) {
            eprintln!("sweep: cannot write report {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "sweep: wrote {} cells to {path} (fingerprint {:016x}, shard {}/{})",
            outcome.cells.len(),
            outcome.fingerprint,
            outcome.shard,
            outcome.shards
        );
    }
    let failed: usize = outcome
        .runs
        .iter()
        .filter_map(|r| r.verification.as_ref())
        .map(|v| v.failed)
        .sum();
    if failed > 0 {
        eprintln!("sweep: {failed} cell(s) FAILED semantic verification");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn run_merge(
    spec: &SweepSpec,
    diag: &Diagnostics,
    sharding: &Sharding,
) -> Result<ExitCode, String> {
    let mut reports = Vec::with_capacity(sharding.reports.len());
    for path in &sharding.reports {
        let contents = read_journal(Path::new(path)).map_err(|e| e.to_string())?;
        eprintln!(
            "sweep: read {} cells from {path} (shard {}/{}{})",
            contents.cells.len(),
            contents.meta.shard,
            contents.meta.shards,
            if contents.done { "" } else { ", incomplete" },
        );
        reports.push((path.clone(), contents));
    }
    let outcome = merge_reports(spec, reports).map_err(|e| e.to_string())?;
    if !sharding.shard_traces.is_empty() {
        let mut traces = Vec::with_capacity(sharding.shard_traces.len());
        for path in &sharding.shard_traces {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read trace {path}: {e}"))?;
            traces.push(Trace::from_jsonl(&text).map_err(|e| format!("{path}: {e}"))?);
        }
        write_traces(&splice_shard_traces(&traces), diag)?;
    }
    Ok(finish(&outcome, diag, sharding.out.as_deref()))
}

fn run_shard(
    spec: &SweepSpec,
    diag: &Diagnostics,
    sharding: &Sharding,
) -> Result<ExitCode, String> {
    // Turn the process-global recorder on while tracing so free-floating
    // hot paths (the verification oracles' simulator kernels) count too.
    if diag.trace.is_some() || diag.trace_jsonl.is_some() {
        paradrive_obs::global().set_enabled(true);
    }
    eprintln!(
        "sweep: {} topologies x {} benchmarks x {} costings x {} calibrations x {} verification \
         levels x {} suite seeds, best-of-{} routing, {} routing policy{}{}",
        spec.topologies.len(),
        spec.benchmarks.len(),
        spec.costings.len(),
        spec.calibrations.len(),
        spec.verify.len(),
        spec.suite_seeds.len(),
        spec.routing_seeds,
        if spec.noise_aware {
            "noise-aware"
        } else {
            "noise-blind"
        },
        match &spec.drift {
            Some(drift) => format!(
                ", drift {drift} over {} epochs ({} re-transpilation)",
                spec.epochs,
                spec.policy.label()
            ),
            None => String::new(),
        },
        if sharding.shards > 1 {
            format!(", shard {}/{}", sharding.shard, sharding.shards)
        } else {
            String::new()
        },
    );
    let opts = ShardOptions {
        shards: sharding.shards,
        shard: sharding.shard,
        journal: sharding.journal.as_deref().map(Path::new),
        resume: sharding.resume,
    };
    let outcome = run_sweep_shard(spec, &opts).map_err(|e| e.to_string())?;
    if diag.trace.is_some() || diag.trace_jsonl.is_some() {
        let mut trace = outcome.merged_trace();
        // Global-recorder counters (kernel dispatch mix) join the
        // per-run counters un-prefixed: they span the whole sweep.
        trace.merge(paradrive_obs::global().take());
        write_traces(&trace, diag)?;
    }
    Ok(finish(&outcome, diag, sharding.out.as_deref()))
}

fn main() -> ExitCode {
    if std::env::args().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        println!("limits: --threads at most {MAX_THREADS}, --seeds at most {MAX_ROUTING_SEEDS}");
        return ExitCode::SUCCESS;
    }
    let merge_mode = std::env::args().nth(1).as_deref() == Some("merge");
    let (spec, diag, sharding) = match parse_args(merge_mode) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let result = if merge_mode {
        run_merge(&spec, &diag, &sharding)
    } else {
        run_shard(&spec, &diag, &sharding)
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("sweep failed: {msg}");
            ExitCode::FAILURE
        }
    }
}
