//! The batched engine must be a pure function of (batch, config): for a
//! fixed routing-seed count, its output — durations, fidelities, routed
//! circuits — is identical across thread counts, with the cache on or
//! off, and bit-for-bit equal to a sequential reference built here from
//! the pipeline's parts: `route_best_of` → `consolidate` →
//! `evaluate_with_calibration`.

use paradrive::circuit::benchmarks;
use paradrive::core::flow::{evaluate_with_calibration, BenchmarkResult};
use paradrive::core::rules::{BaselineSqrtIswap, ParallelDriveRules};
use paradrive::engine::{run_batch, Batch, EngineConfig, EngineReport, Job, VerifyLevel};
use paradrive::transpiler::consolidate::consolidate;
use paradrive::transpiler::fidelity::FidelityModel;
use paradrive::transpiler::routing::route_best_of;
use paradrive::transpiler::topology::CouplingMap;

const SEEDS: u64 = 4;

/// A batch that exercises every costing path: CNOT/iSWAP/SWAP family
/// classes (GHZ, QAOA), fractional CNOT-family phases and general
/// CPhase·SWAP merges (QFT), and Haar-random general classes (QV).
fn batch() -> Batch {
    let mut b = Batch::new(CouplingMap::grid(4, 4));
    b.push("GHZ", benchmarks::ghz(16));
    b.push("QFT", benchmarks::qft(16));
    b.push("QAOA", benchmarks::qaoa(16, 2, 7));
    b.push("QV", benchmarks::quantum_volume(16, 4, 7));
    b
}

/// The sequential reference: best-of-`SEEDS` routing, consolidation, and
/// scoring under both models at D[1Q] = 0.25.
fn sequential(job: &Job, map: &CouplingMap) -> BenchmarkResult {
    let routed = route_best_of(&job.circuit, map, SEEDS).unwrap();
    let items = consolidate(&routed.circuit).unwrap();
    evaluate_with_calibration(
        &job.name,
        &items,
        routed.swaps_inserted,
        &BaselineSqrtIswap::new(0.25),
        &ParallelDriveRules::new(0.25),
        map.n_qubits(),
        job.circuit.n_qubits(),
        FidelityModel::paper(),
        None,
    )
}

fn assert_reports_identical(a: &EngineReport, b: &EngineReport) {
    assert_eq!(a.circuits.len(), b.circuits.len());
    for (x, y) in a.circuits.iter().zip(&b.circuits) {
        let (r, s) = (&x.result, &y.result);
        assert_eq!(r.name, s.name);
        assert_eq!(r.swaps, s.swaps, "{}", r.name);
        assert_eq!(r.blocks, s.blocks, "{}", r.name);
        for (label, v, w) in [
            (
                "baseline_duration",
                r.baseline_duration,
                s.baseline_duration,
            ),
            (
                "optimized_duration",
                r.optimized_duration,
                s.optimized_duration,
            ),
            (
                "duration_reduction_pct",
                r.duration_reduction_pct,
                s.duration_reduction_pct,
            ),
            (
                "fq_improvement_pct",
                r.fq_improvement_pct,
                s.fq_improvement_pct,
            ),
            (
                "ft_improvement_pct",
                r.ft_improvement_pct,
                s.ft_improvement_pct,
            ),
        ] {
            assert_eq!(v.to_bits(), w.to_bits(), "{}: {label} {v} vs {w}", r.name);
        }
        assert_eq!(x.routed, y.routed, "{}: routed circuits differ", r.name);
    }
}

#[test]
fn tracing_never_perturbs_the_report() {
    // The observability layer's acceptance bar: flipping the process-global
    // recorder on (what `--trace` does) must leave the deterministic report
    // bit-identical, at one worker and at four.
    let batch = batch();
    let base = EngineConfig::default()
        .routing_seeds(SEEDS)
        .keep_routed(true);
    let quiet = run_batch(&batch, &base.threads(4)).unwrap();

    paradrive::obs::global().set_enabled(true);
    let traced_one = run_batch(&batch, &base.threads(1)).unwrap();
    let traced_four = run_batch(&batch, &base.threads(4)).unwrap();
    paradrive::obs::global().set_enabled(false);
    let _ = paradrive::obs::global().take();

    assert_reports_identical(&quiet, &traced_one);
    assert_reports_identical(&quiet, &traced_four);

    // The trace itself is populated (the batch recorder is always on) but
    // carries the wall-clock truth *next to* the report, never inside it:
    // every result field compared above came from the deterministic side.
    for report in [&quiet, &traced_one, &traced_four] {
        assert!(
            report.trace.spans.iter().any(|s| s.name == "route"),
            "batch trace lost its route spans"
        );
    }
}

#[test]
fn engine_is_deterministic_across_threads_and_cache() {
    let batch = batch();
    let base = EngineConfig::default()
        .routing_seeds(SEEDS)
        .keep_routed(true);

    let one = run_batch(&batch, &base.threads(1)).unwrap();
    let four = run_batch(&batch, &base.threads(4)).unwrap();
    let four_nocache = run_batch(&batch, &base.threads(4).cache(false)).unwrap();

    assert_reports_identical(&one, &four);
    assert_reports_identical(&one, &four_nocache);

    // The cache was actually exercised (and surfaced in the report) —
    // repeated classes across the suite guarantee hits.
    let stats = one.cache_stats().expect("cache stats with cache on");
    assert!(stats.hits > 0, "no hits: {stats:?}");
    assert!(stats.misses > 0, "no misses: {stats:?}");
    assert!(four_nocache.cache_stats().is_none());
    assert_eq!(one.threads, 1);
    assert_eq!(four.threads, 4);

    // And the engine agrees bit-for-bit with the sequential reference on
    // every circuit.
    for (job, report) in batch.jobs().iter().zip(&one.circuits) {
        let seq = sequential(job, batch.map());
        let r = &report.result;
        assert_eq!(r.swaps, seq.swaps, "{}", job.name);
        assert_eq!(r.blocks, seq.blocks, "{}", job.name);
        assert_eq!(
            r.baseline_duration.to_bits(),
            seq.baseline_duration.to_bits(),
            "{}: baseline {} vs {}",
            job.name,
            r.baseline_duration,
            seq.baseline_duration,
        );
        assert_eq!(
            r.optimized_duration.to_bits(),
            seq.optimized_duration.to_bits(),
            "{}: optimized {} vs {}",
            job.name,
            r.optimized_duration,
            seq.optimized_duration,
        );
        assert_eq!(
            r.ft_improvement_pct.to_bits(),
            seq.ft_improvement_pct.to_bits(),
            "{}",
            job.name
        );
    }
}

#[test]
fn sampled_verdicts_are_identical_at_any_thread_count() {
    // Sample units run on whichever worker takes them and the verdict
    // folds them in sample order, so every fidelity keeps its bits. Two
    // shapes: a 16-qubit pair at best-of-2, and one job at one routing
    // seed whose three samples are the pool's only parallel work.
    let mut pair = Batch::new(CouplingMap::grid(4, 4));
    pair.push("GHZ", benchmarks::ghz(16));
    pair.push("VQE_L", benchmarks::vqe_linear(16, 2, 3));
    let mut single = Batch::new(CouplingMap::grid(3, 3));
    single.push("QAOA", benchmarks::qaoa(8, 2, 7));
    for (batch, seeds, samples) in [(&pair, 2, 2u32), (&single, 1, 3)] {
        let config = EngineConfig::default()
            .routing_seeds(seeds)
            .keep_routed(true)
            .verify(VerifyLevel::Sampled)
            .verify_samples(samples);
        let one = run_batch(batch, &config.threads(1)).unwrap();
        for threads in [2, 4] {
            let many = run_batch(batch, &config.threads(threads)).unwrap();
            assert_eq!(many.threads, threads, "sample units count as units");
            assert_reports_identical(&one, &many);
            for (x, y) in one.circuits.iter().zip(&many.circuits) {
                let v = x.verification.as_ref().expect("verification on");
                let w = y.verification.as_ref().expect("verification on");
                assert_eq!(v, w, "{} at {threads} threads", x.result.name);
                assert_eq!(
                    v.fidelity().unwrap().to_bits(),
                    w.fidelity().unwrap().to_bits(),
                    "{} at {threads} threads",
                    x.result.name
                );
                assert_eq!(v.method(), "sampled", "{v}");
                assert!(!v.failed(), "{v}");
            }
            assert_eq!(
                many.trace.counter("verify.samples"),
                Some(batch.len() as u64 * u64::from(samples))
            );
        }
    }
}
