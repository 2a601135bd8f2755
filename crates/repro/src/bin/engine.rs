//! `paradrive-engine` CLI: run the paper's benchmark suite through the
//! batched multi-threaded engine and print the aggregated report.
//!
//! ```text
//! cargo run --release -p paradrive-repro --bin engine -- \
//!     [--threads N] [--seeds N] [--no-cache] [--synth] [--suite-seed N] \
//!     [--calibration SPEC] [--calibration-seed N] [--noise-aware] \
//!     [--verify off|sampled|mps|exact] [--verify-samples K] [--verify-seed N] \
//!     [--verify-max-bond CHI] [--verify-mps-tol TOL] [NAME ...]
//! ```
//!
//! `--synth` prices general classes by per-target template synthesis (the
//! paper's Algorithm-1 discipline) instead of the precomputed coverage
//! hulls — the regime where the decomposition cache dominates.
//!
//! `--calibration` attaches a device calibration scenario (`uniform`,
//! `spread<SIGMA>`, `hotspot<K>`, `gradient<STRENGTH>`) to every job;
//! `--noise-aware` additionally routes around its high-error edges.
//!
//! `--verify` makes the run self-checking: each job's consolidated output
//! is replayed through the semantic equivalence oracles (`exact` up to the
//! routed permutation on ≤10-qubit supports, matrix-product-state overlap
//! with a certified truncation bound beyond — or always with `mps` — and
//! seeded Monte-Carlo with `--verify-samples` inputs when the bond budget
//! runs out) and the process exits non-zero if any job fails.
//! `--verify-max-bond` caps the MPS bond dimension; `--verify-mps-tol` is
//! the infidelity the MPS verdict tolerates beyond its truncation bound.
//!
//! Positional `NAME`s select benchmarks (case-insensitive: QV, VQE_L, GHZ,
//! HLF, QFT, Adder, QAOA, VQE_F, Multiplier); with none given the full
//! Table VII suite runs. `--threads 0` (the default) uses every core.
//! `--threads` is at most 256, `--seeds` at most 1,024 and
//! `--verify-samples` at most 1,024; larger values are rejected before
//! any job runs.
//!
//! `--trace FILE` exports the batch's execution trace (per-stage spans,
//! cache counters, kernel-dispatch counts) as Chrome
//! trace-event JSON for Perfetto / `chrome://tracing`; `--timings` prints
//! the stage-time rollup (p50/p95 per stage, thread utilization) on
//! stderr. Both are wall-clock diagnostics, kept strictly out of the
//! deterministic report.

use paradrive_circuit::benchmarks::standard_suite;
use paradrive_engine::{run_batch, Batch, Costing, EngineConfig, VerifyLevel};
use paradrive_repro::sweep::{
    parse_calibration, parse_count, MAX_ROUTING_SEEDS, MAX_THREADS, MAX_VERIFY_SAMPLES,
};
use paradrive_transpiler::topology::CouplingMap;
use std::process::ExitCode;
use std::sync::Arc;

struct Args {
    threads: usize,
    seeds: u64,
    cache: bool,
    costing: Costing,
    suite_seed: u64,
    calibration: Option<String>,
    calibration_seed: u64,
    noise_aware: bool,
    verify: VerifyLevel,
    verify_samples: u32,
    verify_seed: u64,
    verify_max_bond: usize,
    verify_mps_tol: f64,
    trace: Option<String>,
    timings: bool,
    names: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let defaults = EngineConfig::default();
    let mut args = Args {
        threads: 0,
        seeds: 10,
        cache: true,
        costing: Costing::Hull,
        suite_seed: 7,
        calibration: None,
        calibration_seed: 17,
        noise_aware: false,
        verify: VerifyLevel::Off,
        verify_samples: defaults.verify_samples,
        verify_seed: defaults.verify_seed,
        verify_max_bond: defaults.verify_max_bond,
        verify_mps_tol: defaults.verify_mps_tol,
        trace: None,
        timings: false,
        names: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} expects a value"));
        match arg.as_str() {
            "--threads" => {
                args.threads = parse_count("--threads", &value("--threads")?, MAX_THREADS)?;
            }
            "--seeds" => {
                args.seeds = parse_count("--seeds", &value("--seeds")?, MAX_ROUTING_SEEDS)?;
            }
            "--suite-seed" => {
                args.suite_seed = value("--suite-seed")?
                    .parse()
                    .map_err(|e| format!("--suite-seed: {e}"))?;
            }
            "--no-cache" => args.cache = false,
            "--synth" => args.costing = Costing::Synthesized,
            "--calibration" => args.calibration = Some(value("--calibration")?),
            "--calibration-seed" => {
                args.calibration_seed = value("--calibration-seed")?
                    .parse()
                    .map_err(|e| format!("--calibration-seed: {e}"))?;
            }
            "--noise-aware" => args.noise_aware = true,
            "--verify" => {
                args.verify = value("--verify")?
                    .parse()
                    .map_err(|e| format!("--verify: {e}"))?;
            }
            "--verify-samples" => {
                args.verify_samples = parse_count(
                    "--verify-samples",
                    &value("--verify-samples")?,
                    MAX_VERIFY_SAMPLES,
                )?;
                if args.verify_samples == 0 {
                    return Err("--verify-samples must be at least 1".to_string());
                }
            }
            "--verify-seed" => {
                args.verify_seed = value("--verify-seed")?
                    .parse()
                    .map_err(|e| format!("--verify-seed: {e}"))?;
            }
            "--verify-max-bond" => {
                args.verify_max_bond = value("--verify-max-bond")?
                    .parse()
                    .map_err(|e| format!("--verify-max-bond: {e}"))?;
                if args.verify_max_bond == 0 {
                    return Err("--verify-max-bond must be at least 1".to_string());
                }
            }
            "--verify-mps-tol" => {
                args.verify_mps_tol = value("--verify-mps-tol")?
                    .parse()
                    .map_err(|e| format!("--verify-mps-tol: {e}"))?;
                if !(args.verify_mps_tol.is_finite() && args.verify_mps_tol >= 0.0) {
                    return Err(format!(
                        "--verify-mps-tol must be a finite, non-negative number, not {}",
                        args.verify_mps_tol
                    ));
                }
            }
            "--trace" => args.trace = Some(value("--trace")?),
            "--timings" => args.timings = true,
            "--help" | "-h" => {
                return Err(format!(
                    "usage: engine [--threads N] [--seeds N] [--no-cache] [--synth] \
                     [--suite-seed N] [--calibration SPEC] [--calibration-seed N] \
                     [--noise-aware] [--verify off|sampled|mps|exact] [--verify-samples K] \
                     [--verify-seed N] [--verify-max-bond CHI] [--verify-mps-tol TOL] \
                     [--trace FILE] [--timings] [NAME ...]\n\
                     limits: --threads at most {MAX_THREADS}, --seeds at most \
                     {MAX_ROUTING_SEEDS}, --verify-samples 1 to {MAX_VERIFY_SAMPLES}"
                ))
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            name => args.names.push(name.to_string()),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    let map = Arc::new(CouplingMap::grid(4, 4));
    let calibration = match &args.calibration {
        Some(spec) => {
            match parse_calibration(
                spec,
                &map,
                EngineConfig::default().fidelity,
                args.calibration_seed,
            ) {
                Ok(cal) => Some(Arc::new(cal)),
                Err(msg) => {
                    eprintln!("{msg}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => None,
    };
    let suite = standard_suite(args.suite_seed);
    let selected: Vec<_> = if args.names.is_empty() {
        suite.into_iter().collect()
    } else {
        let mut picked = Vec::new();
        for want in &args.names {
            match suite.iter().find(|b| b.name.eq_ignore_ascii_case(want)) {
                Some(b) => picked.push(b.clone()),
                None => {
                    eprintln!("unknown benchmark `{want}`");
                    return ExitCode::FAILURE;
                }
            }
        }
        picked
    };
    let mut batch = Batch::with_shared(Arc::clone(&map));
    for b in selected {
        match &calibration {
            Some(cal) => {
                batch.push_calibrated(b.name, b.circuit, Arc::clone(&map), Arc::clone(cal));
            }
            None => {
                batch.push(b.name, b.circuit);
            }
        }
    }

    let config = EngineConfig::default()
        .threads(args.threads)
        .routing_seeds(args.seeds)
        .cache(args.cache)
        .costing(args.costing)
        .noise_aware(args.noise_aware)
        .verify(args.verify)
        .verify_samples(args.verify_samples)
        .verify_seed(args.verify_seed)
        .verify_max_bond(args.verify_max_bond)
        .verify_mps_tol(args.verify_mps_tol);
    println!(
        "engine: {} circuits, {} threads, best-of-{} routing, cache {}, {} costing, \
         {} calibration{}, {} verification",
        batch.len(),
        config.workers_for(&batch),
        args.seeds,
        if args.cache { "on" } else { "off" },
        if args.costing == Costing::Hull {
            "hull"
        } else {
            "synthesized"
        },
        calibration.as_deref().map_or("uniform", |c| c.label()),
        if args.noise_aware {
            ", noise-aware routing"
        } else {
            ""
        },
        args.verify,
    );
    if args.trace.is_some() {
        // Collect free-floating kernel counters alongside the batch trace.
        paradrive_obs::global().set_enabled(true);
    }
    match run_batch(&batch, &config) {
        Ok(report) => {
            print!("{report}");
            if args.timings {
                eprintln!("{}", report.metrics_summary());
            }
            if let Some(path) = &args.trace {
                let mut trace = report.trace.clone();
                trace.merge(paradrive_obs::global().take());
                if let Err(e) = trace.write_chrome(path) {
                    eprintln!("engine: cannot write trace {path}: {e}");
                    return ExitCode::FAILURE;
                }
                eprintln!(
                    "engine: wrote trace ({} spans, {} counters) to {path}",
                    trace.spans.len(),
                    trace.counters.len()
                );
            }
            if let Some(v) = report.verification_summary() {
                if !v.all_passed() {
                    eprintln!("engine: {} job(s) FAILED semantic verification", v.failed);
                    return ExitCode::FAILURE;
                }
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("engine failed: {e}");
            ExitCode::FAILURE
        }
    }
}
