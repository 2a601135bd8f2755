//! Shape checks for the execution trace every [`run_batch`] carries: one
//! span per pipeline stage per job (and one per Monte-Carlo sample),
//! cache and pipeline counters that are the same on every run, and a
//! Chrome trace-event export that parses back as balanced B/E pairs. A
//! fleet's trace keys every span by the fleet job and counts each noise
//! oracle it builds once.

use paradrive_circuit::benchmarks;
use paradrive_engine::{
    run_batch, run_fleet, Batch, BatchSummary, EngineConfig, EngineReport, EpochDecision, FleetJob,
    RetranspilePolicy, VerifyLevel,
};
use paradrive_obs::json::{self, Value};
use paradrive_transpiler::calibration::drift::{CalibrationTimeline, DriftSpec};
use paradrive_transpiler::calibration::Calibration;
use paradrive_transpiler::fidelity::FidelityModel;
use paradrive_transpiler::topology::CouplingMap;
use std::sync::Arc;

const SEEDS: u64 = 3;
const SAMPLES: u32 = 2;

/// The cached smoke batch at `threads` workers.
fn run_smoke(threads: usize) -> EngineReport {
    let mut batch = Batch::new(CouplingMap::grid(3, 3));
    batch.push("GHZ", benchmarks::ghz(6));
    batch.push("QFT", benchmarks::qft(5));
    let config = EngineConfig::default()
        .threads(threads)
        .routing_seeds(SEEDS)
        .verify(VerifyLevel::Sampled)
        .verify_samples(SAMPLES);
    run_batch(&batch, &config).expect("smoke batch")
}

fn smoke_report() -> &'static EngineReport {
    static REPORT: std::sync::OnceLock<EngineReport> = std::sync::OnceLock::new();
    REPORT.get_or_init(|| run_smoke(2))
}

#[test]
fn every_job_gets_every_pipeline_stage_span() {
    let report = smoke_report();
    let trace = &report.trace;

    for job in 0..2u64 {
        // Routing fans out per seed; the back-half stages run once.
        for (stage, want) in [
            ("route", SEEDS as usize),
            ("select", 1),
            ("consolidate", 1),
            ("verify", 1),
            ("schedule", 1),
        ] {
            let n = trace
                .spans
                .iter()
                .filter(|s| s.name == stage && s.key == job)
                .count();
            assert_eq!(n, want, "job {job}: {stage} spans");
        }
    }
    // Route spans carry their seed in the label; back-half spans carry
    // the job name.
    assert!(trace
        .spans
        .iter()
        .filter(|s| s.name == "route")
        .all(|s| s.label.contains('#')));
    assert!(trace
        .spans
        .iter()
        .any(|s| s.name == "schedule" && s.label == "GHZ"));

    // The sampled check is prepared under the job's one `verify` span and
    // runs as one `verify.sample` span per sample, labeled by sample.
    for job in 0..2u64 {
        let mut labels: Vec<&str> = trace
            .spans
            .iter()
            .filter(|s| s.name == "verify.sample" && s.key == job)
            .map(|s| s.label.as_str())
            .collect();
        labels.sort_unstable();
        let name = ["GHZ", "QFT"][job as usize];
        let want: Vec<String> = (0..SAMPLES).map(|k| format!("{name}#{k}")).collect();
        assert_eq!(labels, want, "job {job}: verify.sample spans");
    }
    assert_eq!(
        trace.counter("verify.samples"),
        Some(2 * u64::from(SAMPLES)),
        "every sample of both jobs is counted once"
    );

    // Pipeline counters made it out of the workers.
    assert_eq!(
        trace.counter("route.seed_attempts"),
        Some(2 * SEEDS),
        "one seed attempt per (job, seed)"
    );
    assert!(trace.counter("verify.samples").unwrap_or(0) > 0);
}

#[test]
fn counters_are_deterministic_and_sum_to_the_cache_totals() {
    // Everything but the wall-clock waits is a pure function of the batch:
    // the same on a second run and at any thread count.
    let counts = |report: &EngineReport| -> Vec<(String, u64)> {
        report
            .trace
            .counters
            .iter()
            .filter(|(name, _)| !name.ends_with(".wait_ns"))
            .cloned()
            .collect()
    };
    let first = smoke_report();
    let want = counts(first);
    for threads in [2, 1, 4] {
        assert_eq!(counts(&run_smoke(threads)), want, "{threads} thread(s)");
    }

    // Each cache reports its hits, misses and wait, and the two caches'
    // hits and misses add up to the report's deterministic totals.
    let stats = first.cache_stats().expect("cache on");
    let both = |kind: &str| -> u64 {
        ["cache.baseline", "cache.optimized"]
            .map(|prefix| {
                let name = format!("{prefix}.{kind}");
                first
                    .trace
                    .counter(&name)
                    .unwrap_or_else(|| panic!("missing counter {name}"))
            })
            .iter()
            .sum()
    };
    both("wait_ns");
    assert_eq!(both("hits"), stats.hits);
    assert_eq!(both("misses"), stats.misses);
}

#[test]
fn chrome_export_parses_back_with_balanced_begin_end_pairs() {
    let report = smoke_report();
    let text = report.trace.to_chrome_json();
    let root = json::parse(&text).expect("chrome trace is valid JSON");

    let events = root
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty());

    // Replay the B/E edges per tid: every end must close the span the
    // stack says is open, and every stack must drain.
    let mut stacks: std::collections::BTreeMap<u64, Vec<String>> = Default::default();
    let mut completed = 0usize;
    for ev in events {
        let ph = ev.get("ph").and_then(Value::as_str).expect("ph");
        let tid = ev.get("tid").and_then(Value::as_f64).unwrap_or(0.0) as u64;
        match ph {
            "B" => {
                let name = ev.get("name").and_then(Value::as_str).expect("B name");
                assert!(ev.get("ts").and_then(Value::as_f64).is_some(), "B ts");
                stacks.entry(tid).or_default().push(name.to_string());
            }
            "E" => {
                stacks
                    .entry(tid)
                    .or_default()
                    .pop()
                    .expect("E without matching B");
                completed += 1;
            }
            "M" | "C" => {}
            other => panic!("unexpected phase {other:?}"),
        }
    }
    assert!(stacks.values().all(Vec::is_empty), "unclosed spans");
    assert_eq!(completed, report.trace.spans.len());

    // Counter events made it into the export too.
    assert!(events
        .iter()
        .any(|ev| ev.get("ph").and_then(Value::as_str) == Some("C")));
}

const EPOCHS: usize = 3;

/// A drifting fleet on one grid: two calibrations, each with its own
/// timeline, and two circuits on each. Returns the jobs and, per job, the
/// index of its timeline.
fn drifting_fleet() -> (Vec<FleetJob>, Vec<usize>) {
    let map = Arc::new(CouplingMap::grid(3, 3));
    let mut jobs = Vec::new();
    let mut timeline_of = Vec::new();
    for (t, sigma) in [0.2, 0.3].into_iter().enumerate() {
        let cal = Calibration::spread(&map, FidelityModel::paper(), sigma, 5).unwrap();
        let spec = DriftSpec::walk(EPOCHS, 0.2, 1, 13 + t as u64);
        let timeline = Arc::new(CalibrationTimeline::generate(&cal, &map, &spec).unwrap());
        for (name, circuit) in [
            ("ghz9", benchmarks::ghz(9)),
            ("vqe8", benchmarks::vqe_linear(8, 2, 5)),
        ] {
            jobs.push(FleetJob {
                name: format!("{name}-{sigma}"),
                circuit,
                map: Arc::clone(&map),
                timeline: Arc::clone(&timeline),
            });
            timeline_of.push(t);
        }
    }
    (jobs, timeline_of)
}

/// The fleet at `threads` workers: its decisions, in sink order, and its
/// summary.
fn run_drifting(
    jobs: &[FleetJob],
    threads: usize,
) -> (Vec<(usize, usize, EpochDecision)>, BatchSummary) {
    let config = EngineConfig::default()
        .threads(threads)
        .routing_seeds(SEEDS)
        .noise_aware(true);
    let policy = RetranspilePolicy::Adaptive {
        max_fidelity_loss: 0.02,
    };
    let mut decisions = Vec::new();
    let summary = run_fleet(jobs, &config, &policy, &mut |epoch, job, decision, _| {
        decisions.push((epoch, job, decision));
    })
    .expect("drifting fleet");
    (decisions, summary)
}

#[test]
fn fleet_spans_are_keyed_by_fleet_job_and_oracles_are_built_once_per_pair() {
    let (jobs, timeline_of) = drifting_fleet();
    let (decisions, summary) = run_drifting(&jobs, 2);
    let kept = |d: &EpochDecision| *d == EpochDecision::Kept;
    assert!(
        decisions.iter().any(|(e, _, d)| *e > 0 && kept(d)),
        "no job was kept"
    );
    assert!(
        decisions.iter().any(|(e, _, d)| *e > 0 && !kept(d)),
        "no job was re-transpiled"
    );

    // One schedule span per (epoch, job) cell, kept or routed, and every
    // span's key names the fleet job its label names — in every epoch,
    // whatever the job's place among that epoch's re-transpiles.
    let trace = &summary.trace;
    for (j, job) in jobs.iter().enumerate() {
        let schedules = trace
            .spans
            .iter()
            .filter(|s| s.name == "schedule" && s.key == j as u64)
            .count();
        assert_eq!(schedules, EPOCHS, "{}: schedule spans", job.name);
    }
    for s in &trace.spans {
        let job = &jobs[s.key as usize].name;
        let name = s.label.split('#').next().unwrap();
        assert_eq!(
            name, job,
            "{} span keyed {} is labeled {}",
            s.name, s.key, s.label
        );
    }

    // One oracle per (map, calibration snapshot) pair the epoch routes:
    // the jobs of one timeline share it.
    let mut routed_pairs: Vec<(usize, usize)> = decisions
        .iter()
        .filter(|(_, _, d)| !kept(d))
        .map(|&(epoch, job, _)| (epoch, timeline_of[job]))
        .collect();
    routed_pairs.sort_unstable();
    routed_pairs.dedup();
    let routed_jobs = decisions.iter().filter(|(_, _, d)| !kept(d)).count();
    assert!(
        routed_pairs.len() < routed_jobs,
        "no two routed jobs share a pair"
    );
    let oracles = trace.counter("fleet.route.oracles");
    assert_eq!(oracles, Some(routed_pairs.len() as u64));
    let per_epoch: u64 = (0..EPOCHS)
        .map(|e| {
            trace
                .counter(&format!("epoch{e}.route.oracles"))
                .unwrap_or(0)
        })
        .sum();
    assert_eq!(Some(per_epoch), oracles);
    for threads in [1, 4] {
        let (again, summary) = run_drifting(&jobs, threads);
        assert_eq!(again, decisions, "{threads} thread(s)");
        assert_eq!(
            summary.trace.counter("fleet.route.oracles"),
            oracles,
            "{threads} thread(s)"
        );
    }
}
