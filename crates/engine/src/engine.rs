//! The scoped worker pool that drives a [`Batch`] through the pipeline.
//!
//! Work is split into *routing units* — one per `(job, seed)` pair — so
//! that best-of-N routing inside a single circuit fans across workers just
//! like distinct circuits do. Workers pull units from a shared atomic
//! cursor; the worker that completes a job's **last** unit immediately
//! runs that job's back half (best-seed selection → consolidate →
//! schedule → fidelity), so there is no barrier between phases and no
//! idle tail while one late circuit finishes routing.
//!
//! Determinism: every routing unit seeds its own `StdRng` from the unit's
//! seed value, best-seed selection is "strictly fewer SWAPs, earliest seed
//! wins" (exactly [`route_best_of`]'s rule), and results land in
//! per-job slots — the output is a pure function of the batch and config,
//! bit-for-bit identical at any thread count.
//!
//! [`route_best_of`]: paradrive_transpiler::routing::route_best_of

use crate::batch::{Batch, Costing, EngineConfig};
use crate::cache::{CachedCostModel, DecompositionCache};
use crate::report::{BatchSummary, CircuitReport, EngineReport};
use crate::EngineError;
use paradrive_core::flow::{evaluate_with_calibration, BenchmarkResult};
use paradrive_core::rules::{BaselineSqrtIswap, ParallelDriveRules, SynthesizedParallelDrive};
use paradrive_obs::{Counter, Recorder, Trace};
use paradrive_transpiler::calibration::Calibration;
use paradrive_transpiler::consolidate::{consolidate, Item};
use paradrive_transpiler::fidelity::FidelityModel;
use paradrive_transpiler::routing::{route_with_oracle, NoiseOracle, Routed, RouterOptions};
use paradrive_transpiler::CostModel;
use paradrive_transpiler::TranspileError;
use paradrive_verify::{verify, Physical, Verification, VerifyLevel};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A per-job completion sink for [`run_batch_streaming`]: called once per
/// successful job, on the worker thread that finished it, with the job's
/// submission index and its finished report. Must be `Sync` — workers
/// call it concurrently.
pub type JobSink<'a> = dyn Fn(usize, CircuitReport) + Sync + 'a;

/// The worker pool's own completion sink: a [`JobSink`] that also
/// receives the job's consolidated items, so a caller that re-scores the
/// same route later (the fleet policy) never consolidates it again.
pub(crate) type ItemSink<'a> = dyn Fn(usize, CircuitReport, Vec<Item>) + Sync + 'a;

/// Runs every job in `batch` and returns the aggregated report.
///
/// This is the retain-everything entry point: reports are collected into
/// submission order and per-job wall times are rebuilt from the drained
/// trace. Constant-memory consumers (the sharded sweep) should use
/// [`run_batch_streaming`] instead and fold each report as it lands.
///
/// # Errors
///
/// Returns [`EngineError`] for the first failing job (in submission
/// order); remaining jobs still run to completion.
pub fn run_batch(batch: &Batch, config: &EngineConfig) -> Result<EngineReport, EngineError> {
    let slots: Vec<Mutex<Option<CircuitReport>>> =
        (0..batch.len()).map(|_| Mutex::new(None)).collect();
    let summary = run_batch_streaming(batch, config, &|job, report| {
        *slots[job].lock().expect("report slot poisoned") = Some(report);
    })?;
    let mut circuits: Vec<CircuitReport> = slots
        .iter()
        .map(|slot| {
            slot.lock()
                .expect("report slot poisoned")
                .take()
                .expect("every successful job produces a report")
        })
        .collect();

    // Derive the per-job wall times from the trace spans — the single
    // timing path (workers leave placeholders). A job's route time sums
    // its per-seed "route" spans; its pipeline time sums the sequential
    // back-half stages.
    let mut route_ns = vec![0u64; circuits.len()];
    let mut back_ns = vec![0u64; circuits.len()];
    for s in &summary.trace.spans {
        let per_job = if s.name == "route" {
            &mut route_ns
        } else {
            &mut back_ns
        };
        if let Some(slot) = per_job.get_mut(s.key as usize) {
            *slot += s.dur_ns;
        }
    }
    for (j, c) in circuits.iter_mut().enumerate() {
        c.route_time = Duration::from_nanos(route_ns[j]);
        c.pipeline_time = Duration::from_nanos(back_ns[j]);
    }

    Ok(EngineReport {
        circuits,
        threads: summary.threads,
        wall_clock: summary.wall_clock,
        baseline_cache: summary.baseline_cache,
        optimized_cache: summary.optimized_cache,
        trace: summary.trace,
    })
}

/// Runs every job in `batch`, handing each finished [`CircuitReport`] to
/// `sink` the moment its worker completes it — the engine retains no
/// per-job results, so peak report memory is bounded by the number of
/// in-flight jobs, not the batch size.
///
/// The sink runs on worker threads (hence the `Sync` bound) and may be
/// called in any completion order; job indices refer to submission order.
/// Reports arrive with zero `route_time`/`pipeline_time` — per-job wall
/// times can be rebuilt from the returned [`BatchSummary::trace`] by
/// summing span durations keyed by job index (see [`run_batch`]).
///
/// # Errors
///
/// Returns [`EngineError`] for the first failing job (in submission
/// order); remaining jobs still run to completion, and the sink may have
/// received reports for jobs that succeeded before the error is reported.
pub fn run_batch_streaming(
    batch: &Batch,
    config: &EngineConfig,
    sink: &JobSink<'_>,
) -> Result<BatchSummary, EngineError> {
    let owned = config
        .cache
        .then(|| (DecompositionCache::new(), DecompositionCache::new()));
    run_batch_streaming_with_caches(batch, config, sink, owned.as_ref().map(|(b, o)| (b, o)))
}

/// [`run_batch_streaming`] with caller-owned decomposition caches.
///
/// The `(baseline, optimized)` cache pair — when given — supersedes
/// [`EngineConfig::cache`], and the caches outlive the call: a driver that
/// replays many batches (the fleet policy loop re-transpiling across
/// calibration epochs) shares one warm pair across all of them instead of
/// rebuilding cold caches per batch. Cached and uncached runs produce
/// bit-identical reports, so sharing only changes wall clock, never
/// results; the returned [`BatchSummary`] carries the pair's *cumulative*
/// stats.
///
/// # Errors
///
/// Exactly as [`run_batch_streaming`].
pub fn run_batch_streaming_with_caches(
    batch: &Batch,
    config: &EngineConfig,
    sink: &JobSink<'_>,
    caches: Option<(&DecompositionCache, &DecompositionCache)>,
) -> Result<BatchSummary, EngineError> {
    run_pool(
        batch,
        config,
        &|job, report, _items| sink(job, report),
        caches,
    )
}

/// The worker pool behind every entry point: runs `batch` and hands each
/// finished job's report and consolidated items to `sink` (see
/// [`run_batch_streaming_with_caches`] for the contract).
pub(crate) fn run_pool(
    batch: &Batch,
    config: &EngineConfig,
    sink: &ItemSink<'_>,
    caches: Option<(&DecompositionCache, &DecompositionCache)>,
) -> Result<BatchSummary, EngineError> {
    let started = Instant::now();
    let seeds = config.routing_seeds.max(1) as usize;
    let n_jobs = batch.len();
    let unit_count = n_jobs * seeds;
    let threads = config.workers_for(batch);

    // Validate each job's calibration against its device once, and build
    // the noise-aware routing oracle (an all-pairs effective-distance
    // solve) once per job rather than once per routing seed. Invalid jobs
    // carry their error into the routing units.
    let noise: Vec<Result<Option<NoiseOracle>, TranspileError>> = (0..n_jobs)
        .map(|job| {
            let map = batch.map_for(job);
            match batch.calibration_for(job) {
                Some(cal) => {
                    cal.validate_for(map)?;
                    Ok(config
                        .noise_aware
                        .then(|| NoiseOracle::new(map, cal, RouterOptions::default())))
                }
                None => Ok(None),
            }
        })
        .collect();

    // The batch's own recorder, always on: per-stage spans are cheap next
    // to millisecond-scale jobs, and the drained trace is both the source
    // of the per-job route/pipeline times and the `--trace` export. The
    // process-global `paradrive_obs::global()` recorder is untouched here
    // — it stays opt-in for free-floating hot paths (simulator kernels).
    let rec = Recorder::new();
    let shared = Shared {
        batch,
        config,
        noise,
        seeds,
        scorer: Scorer::new(config, caches),
        next_unit: AtomicUsize::new(0),
        units_left: (0..n_jobs).map(|_| AtomicUsize::new(seeds)).collect(),
        routed: (0..unit_count).map(|_| Mutex::new(None)).collect(),
        failures: (0..n_jobs).map(|_| Mutex::new(None)).collect(),
        seed_attempts: rec.counter("route.seed_attempts"),
        rec,
        sink,
    };

    if unit_count > 0 {
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| shared.run_worker());
            }
        });
    }

    for (j, slot) in shared.failures.iter().enumerate() {
        if let Some(e) = slot.lock().expect("failure slot poisoned").take() {
            return Err(EngineError::Job {
                job: batch.jobs()[j].name.clone(),
                source: e,
            });
        }
    }

    let mut trace = shared.rec.take();
    if let Some((bcache, ocache)) = caches {
        fold_cache_counters(&mut trace, "cache.baseline", bcache);
        fold_cache_counters(&mut trace, "cache.optimized", ocache);
    }

    Ok(BatchSummary {
        threads,
        wall_clock: started.elapsed(),
        baseline_cache: caches.map(|(b, _)| b.stats()),
        optimized_cache: caches.map(|(_, o)| o.stats()),
        trace,
    })
}

/// Copies a cache's counters into the trace as `<prefix>.hits`,
/// `<prefix>.misses` and `<prefix>.wait_ns`. The first two are the
/// deterministic [`CacheStats`](crate::CacheStats) totals; `wait_ns` is
/// wall clock.
fn fold_cache_counters(trace: &mut Trace, prefix: &str, cache: &DecompositionCache) {
    let stats = cache.stats();
    trace.set_counter(format!("{prefix}.hits"), stats.hits);
    trace.set_counter(format!("{prefix}.misses"), stats.misses);
    trace.set_counter(format!("{prefix}.wait_ns"), cache.wait_ns());
}

/// FNV-1a over bytes — a stable, dependency-free hash for deriving each
/// job's verification seed from its name.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The schedule stage: scores consolidated items under both cost models
/// (the baseline and the one [`Costing`] selects), each behind its cache
/// when a cache pair is given. The engine's back half and the fleet's
/// kept-route re-scoring both score through it, so a kept route scores
/// exactly as a fresh one would. Cached and bare models score
/// bit-identically; the caches only save decompositions.
pub(crate) struct Scorer<'a> {
    baseline: BaselineSqrtIswap,
    optimized: Box<dyn CostModel + Sync>,
    caches: Option<(&'a DecompositionCache, &'a DecompositionCache)>,
    fidelity: FidelityModel,
}

impl<'a> Scorer<'a> {
    pub(crate) fn new(
        config: &EngineConfig,
        caches: Option<(&'a DecompositionCache, &'a DecompositionCache)>,
    ) -> Self {
        let optimized: Box<dyn CostModel + Sync> = match config.costing {
            Costing::Hull => Box::new(ParallelDriveRules::new(config.d_1q)),
            Costing::Synthesized => Box::new(SynthesizedParallelDrive::new(config.d_1q)),
        };
        Scorer {
            baseline: BaselineSqrtIswap::new(config.d_1q),
            optimized,
            caches,
            fidelity: config.fidelity,
        }
    }

    /// Eq. 8 durations and Eq. 10–11 fidelities of one consolidated
    /// route on a `device_qubits`-wide map, under `cal` when given.
    pub(crate) fn score(
        &self,
        name: &str,
        items: &[Item],
        swaps: usize,
        device_qubits: usize,
        logical_qubits: usize,
        cal: Option<&Calibration>,
    ) -> BenchmarkResult {
        let cached;
        let (baseline, optimized): (&dyn CostModel, &dyn CostModel) = match self.caches {
            Some((bcache, ocache)) => {
                cached = (
                    CachedCostModel::new(&self.baseline, bcache),
                    CachedCostModel::new(self.optimized.as_ref(), ocache),
                );
                (&cached.0, &cached.1)
            }
            None => (&self.baseline, self.optimized.as_ref()),
        };
        evaluate_with_calibration(
            name,
            items,
            swaps,
            baseline,
            optimized,
            device_qubits,
            logical_qubits,
            self.fidelity,
            cal,
        )
    }
}

/// State shared by every worker for one batch run.
struct Shared<'a, 'sink> {
    batch: &'a Batch,
    config: &'a EngineConfig,
    /// Per-job noise-aware routing oracle (`Ok(None)` for noise-blind or
    /// uncalibrated jobs), or the calibration-validation error every one
    /// of the job's routing units reports.
    noise: Vec<Result<Option<NoiseOracle>, TranspileError>>,
    seeds: usize,
    scorer: Scorer<'a>,
    /// Cursor over the flattened `(job, seed)` routing units.
    next_unit: AtomicUsize,
    /// Routing units still outstanding per job; the worker that drops a
    /// job's counter to zero owns its back half.
    units_left: Vec<AtomicUsize>,
    /// Routing results, indexed `job * seeds + seed`.
    routed: Vec<Mutex<Option<Result<Routed, TranspileError>>>>,
    /// Per-job error slots; successful reports go straight to the sink.
    failures: Vec<Mutex<Option<TranspileError>>>,
    /// Routing units executed (one per `(job, seed)` pair).
    seed_attempts: Counter,
    /// The batch-scoped recorder every stage span and counter lands in;
    /// spans are keyed by job index so `run_batch` can rebuild per-job
    /// times from the drained trace.
    rec: Recorder,
    /// Where finished reports go, called on the finishing worker — the
    /// engine itself retains nothing per job beyond the error slots.
    sink: &'sink ItemSink<'sink>,
}

impl Shared<'_, '_> {
    fn run_worker(&self) {
        let unit_count = self.routed.len();
        loop {
            let unit = self.next_unit.fetch_add(1, Ordering::Relaxed);
            if unit >= unit_count {
                return;
            }
            let job = unit / self.seeds;
            let seed = (unit % self.seeds) as u64;

            let map = self.batch.map_for(job);
            let result = {
                let _span = self.rec.span_full("route", job as u64, || {
                    format!("{}#{seed}", self.batch.jobs()[job].name)
                });
                self.seed_attempts.incr(1);
                match &self.noise[job] {
                    Ok(oracle) => route_with_oracle(
                        &self.batch.jobs()[job].circuit,
                        map,
                        oracle.as_ref(),
                        seed,
                        RouterOptions::default(),
                    ),
                    Err(e) => Err(e.clone()),
                }
            };
            *self.routed[unit].lock().expect("routing slot poisoned") = Some(result);

            // The worker that finishes a job's last routing unit runs the
            // job's back half right away and streams the report out.
            if self.units_left[job].fetch_sub(1, Ordering::AcqRel) == 1 {
                match self.finish_job(job) {
                    Ok((report, items)) => (self.sink)(job, report, items),
                    Err(e) => {
                        *self.failures[job].lock().expect("failure slot poisoned") = Some(e);
                    }
                }
            }
        }
    }

    /// Best-seed selection, consolidation, scheduling and scoring for one
    /// fully routed job. Each stage runs under its own span (keyed by the
    /// job index, labeled by the job name); the spans are sequential, so
    /// their summed duration is the job's pipeline time — `run_batch`
    /// rebuilds it from the trace, and the placeholders below stay zero
    /// until then.
    fn finish_job(&self, job: usize) -> Result<(CircuitReport, Vec<Item>), TranspileError> {
        let spec = &self.batch.jobs()[job];
        let stage = |name| self.rec.span_full(name, job as u64, || spec.name.clone());
        let cal = self.batch.calibration_for(job);
        // Pick the best seed. Uncalibrated jobs keep `route_best_of`'s
        // rule — strictly fewest SWAPs, earliest seed wins. Calibrated
        // jobs rank by the route's gate-error survival product first, so
        // a detour around degraded edges beats a shorter route through
        // them on the metric the rollups report, with SWAP count then
        // earliest seed as tie-breaks. A uniform calibration scores every
        // seed at exactly 1.0, degrading to the legacy rule.
        let best = {
            let _span = stage("select");
            let mut best: Option<(Routed, f64)> = None;
            for seed in 0..self.seeds {
                let routed = self.routed[job * self.seeds + seed]
                    .lock()
                    .expect("routing slot poisoned")
                    .take()
                    .expect("all units of a finished job are routed")?;
                let survival = cal.map_or(1.0, |c| c.routed_survival(&routed.circuit));
                if best.as_ref().is_none_or(|(b, s)| {
                    survival > *s || (survival == *s && routed.swaps_inserted < b.swaps_inserted)
                }) {
                    best = Some((routed, survival));
                }
            }
            best.expect("at least one seed per job").0
        };
        let items = {
            let _span = stage("consolidate");
            consolidate(&best.circuit)?
        };

        let map = self.batch.map_for(job);

        // Semantic verification replays the *consolidated* stream — each
        // two-qubit block as one fused 4×4 apply — against the logical
        // circuit under the routed output permutation, so a failure in
        // either routing or consolidation is caught. The Monte-Carlo seed
        // mixes in the job's name, so every job is probed with its own
        // input states (still a pure function of the batch, never of the
        // thread count). Oracle errors (an engine invariant broken, not a
        // bad circuit) become a failing `Verification::Error` verdict
        // rather than aborting the batch — or silently passing.
        let verification = (self.config.verify != VerifyLevel::Off).then(|| {
            let _span = stage("verify");
            let cfg = self
                .config
                .verify_config()
                .seed(self.config.verify_seed ^ fnv1a(spec.name.as_bytes()));
            verify(
                &spec.circuit,
                &Physical::Consolidated {
                    items: &items,
                    n_qubits: map.n_qubits(),
                },
                &best.layout,
                &cfg,
            )
            .unwrap_or_else(|e| Verification::Error {
                reason: e.to_string(),
            })
        });
        if let Some(Verification::Sampled { samples, .. }) = &verification {
            self.rec.add("verify.samples", *samples as u64);
        }
        let result = {
            let _span = stage("schedule");
            self.scorer.score(
                &spec.name,
                &items,
                best.swaps_inserted,
                map.n_qubits(),
                spec.circuit.n_qubits(),
                cal,
            )
        };

        let report = CircuitReport {
            result,
            topology: map.label().to_string(),
            calibration: cal.map_or_else(|| "uniform".to_string(), |c| c.label().to_string()),
            routed: self.config.keep_routed.then_some(best.circuit),
            verification,
            // Filled from the drained trace by `run_batch`.
            route_time: Duration::ZERO,
            pipeline_time: Duration::ZERO,
        };
        Ok((report, items))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradrive_circuit::benchmarks;
    use paradrive_transpiler::topology::CouplingMap;

    /// Family-class circuits only (CNOT/iSWAP/SWAP blocks), so every
    /// block takes an analytic cost and these tests exercise the engine,
    /// not the coverage-stack lookup; the repo-level `engine_determinism`
    /// integration test covers the general-class path.
    fn small_batch() -> Batch {
        let mut b = Batch::new(CouplingMap::grid(3, 3));
        b.push("ghz8", benchmarks::ghz(8));
        b.push("ghz9", benchmarks::ghz(9));
        b.push("vqe8", benchmarks::vqe_linear(8, 2, 5));
        b
    }

    fn results_identical(a: &EngineReport, b: &EngineReport) {
        assert_eq!(a.circuits.len(), b.circuits.len());
        for (x, y) in a.circuits.iter().zip(&b.circuits) {
            let (r, s) = (&x.result, &y.result);
            assert_eq!(r.name, s.name);
            assert_eq!(r.swaps, s.swaps);
            assert_eq!(r.blocks, s.blocks);
            assert_eq!(
                r.baseline_duration.to_bits(),
                s.baseline_duration.to_bits(),
                "{}",
                r.name
            );
            assert_eq!(
                r.optimized_duration.to_bits(),
                s.optimized_duration.to_bits()
            );
            assert_eq!(
                r.ft_improvement_pct.to_bits(),
                s.ft_improvement_pct.to_bits()
            );
            assert_eq!(x.routed, y.routed);
            assert_eq!(x.verification, y.verification);
        }
    }

    #[test]
    fn thread_counts_agree_bitwise() {
        let batch = small_batch();
        let base = EngineConfig::default().routing_seeds(4).keep_routed(true);
        let one = run_batch(&batch, &base.threads(1)).unwrap();
        let four = run_batch(&batch, &base.threads(4)).unwrap();
        results_identical(&one, &four);
        assert_eq!(one.threads, 1);
        assert_eq!(four.threads, 4);
    }

    #[test]
    fn cache_toggle_agrees_bitwise() {
        let batch = small_batch();
        let base = EngineConfig::default().routing_seeds(3).keep_routed(true);
        let cached = run_batch(&batch, &base.threads(2)).unwrap();
        let raw = run_batch(&batch, &base.threads(2).cache(false)).unwrap();
        results_identical(&cached, &raw);
        let stats = cached.cache_stats().unwrap();
        assert!(stats.hits > 0, "no cache hits over a repeated-class batch");
        assert!(raw.cache_stats().is_none());
    }

    #[test]
    fn synthesized_costing_is_deterministic_and_cache_heavy() {
        // Circuits whose blocks merge CPhase·SWAP on one pair — general
        // (off-base-plane) classes drawn from a small angle set that
        // repeats across circuits, so synthesis costing hits the cache.
        use paradrive_circuit::{Circuit, TwoQ};
        let mut batch = Batch::new(CouplingMap::grid(2, 2));
        for i in 0..6 {
            let mut c = Circuit::new(4);
            for k in 0..3u32 {
                let theta = std::f64::consts::PI / (2 + ((i + k as usize) % 3)) as f64;
                c.push_2q(TwoQ::CPhase(theta), 0, 1);
                c.push_2q(TwoQ::Swap, 0, 1);
                c.push_2q(TwoQ::Cx, 2, 3);
            }
            batch.push(format!("gadget{i}"), c);
        }
        let base = EngineConfig::default()
            .routing_seeds(2)
            .costing(Costing::Synthesized)
            .keep_routed(true);
        let cached = run_batch(&batch, &base.threads(2)).unwrap();
        let seq = run_batch(&batch, &base.threads(1).cache(false)).unwrap();
        results_identical(&cached, &seq);
        let stats = cached.cache_stats().unwrap();
        assert!(
            stats.hits > stats.misses,
            "repeated classes should mostly hit: {stats:?}"
        );
    }

    #[test]
    fn heterogeneous_batch_routes_each_job_on_its_own_map() {
        use std::sync::Arc;
        let ring = Arc::new(CouplingMap::ring(10));
        let hex = Arc::new(CouplingMap::heavy_hex(2));
        let mut batch = Batch::new(CouplingMap::grid(3, 3));
        batch.push("ghz-grid", benchmarks::ghz(9));
        batch.push_on("ghz-ring", benchmarks::ghz(10), Arc::clone(&ring));
        batch.push_on("vqe-hex", benchmarks::vqe_linear(7, 2, 5), Arc::clone(&hex));
        batch.push_on("vqe-ring", benchmarks::vqe_linear(10, 2, 5), ring);

        let base = EngineConfig::default().routing_seeds(3).keep_routed(true);
        let one = run_batch(&batch, &base.threads(1)).unwrap();
        let four = run_batch(&batch, &base.threads(4)).unwrap();
        results_identical(&one, &four);

        let labels: Vec<&str> = one.circuits.iter().map(|c| c.topology.as_str()).collect();
        assert_eq!(labels, ["grid3x3", "ring10", "heavy-hex2", "ring10"]);
        // Routed circuits are as wide as their own device, not the default.
        assert_eq!(one.circuits[1].routed.as_ref().unwrap().n_qubits(), 10);
        assert_eq!(one.circuits[2].routed.as_ref().unwrap().n_qubits(), 7);
    }

    #[test]
    fn uniform_calibration_matches_legacy_pipeline_bitwise() {
        use paradrive_transpiler::calibration::Calibration;
        use std::sync::Arc;
        let map = Arc::new(CouplingMap::grid(3, 3));
        let cal = Arc::new(Calibration::uniform(&map, EngineConfig::default().fidelity));
        let mut plain = Batch::with_shared(Arc::clone(&map));
        let mut calibrated = Batch::with_shared(Arc::clone(&map));
        for (name, c) in [
            ("ghz8", benchmarks::ghz(8)),
            ("ghz9", benchmarks::ghz(9)),
            ("vqe8", benchmarks::vqe_linear(8, 2, 5)),
        ] {
            plain.push(name, c.clone());
            calibrated.push_calibrated(name, c, Arc::clone(&map), Arc::clone(&cal));
        }
        // Noise-aware on a uniform calibration is still the blind router.
        let base = EngineConfig::default()
            .routing_seeds(3)
            .keep_routed(true)
            .noise_aware(true);
        let a = run_batch(&plain, &base.threads(2)).unwrap();
        let b = run_batch(&calibrated, &base.threads(2)).unwrap();
        results_identical(&a, &b);
        for (x, y) in a.circuits.iter().zip(&b.circuits) {
            assert_eq!(
                x.result.optimized_total_fidelity.to_bits(),
                y.result.optimized_total_fidelity.to_bits()
            );
            assert_eq!(x.calibration, "uniform");
            assert_eq!(y.calibration, "uniform");
        }
    }

    #[test]
    fn calibrated_batch_is_thread_deterministic() {
        use paradrive_transpiler::calibration::Calibration;
        use std::sync::Arc;
        let map = Arc::new(CouplingMap::grid(3, 3));
        let fidelity = EngineConfig::default().fidelity;
        let spread = Arc::new(Calibration::spread(&map, fidelity, 0.3, 7).unwrap());
        let hotspot = Arc::new(Calibration::hotspot(&map, fidelity, 2, 7).unwrap());
        let mut batch = Batch::with_shared(Arc::clone(&map));
        for cal in [&spread, &hotspot] {
            batch.push_calibrated(
                format!("ghz9-{}", cal.label()),
                benchmarks::ghz(9),
                Arc::clone(&map),
                Arc::clone(cal),
            );
            batch.push_calibrated(
                format!("vqe8-{}", cal.label()),
                benchmarks::vqe_linear(8, 2, 5),
                Arc::clone(&map),
                Arc::clone(cal),
            );
        }
        let base = EngineConfig::default()
            .routing_seeds(4)
            .keep_routed(true)
            .noise_aware(true);
        let one = run_batch(&batch, &base.threads(1)).unwrap();
        let four = run_batch(&batch, &base.threads(4)).unwrap();
        results_identical(&one, &four);
        for (x, y) in one.circuits.iter().zip(&four.circuits) {
            assert_eq!(x.calibration, y.calibration);
            assert_eq!(
                x.result.optimized_total_fidelity.to_bits(),
                y.result.optimized_total_fidelity.to_bits()
            );
        }
        let labels: Vec<&str> = one
            .circuits
            .iter()
            .map(|c| c.calibration.as_str())
            .collect();
        assert_eq!(labels, ["spread0.3", "spread0.3", "hotspot2", "hotspot2"]);
    }

    #[test]
    fn calibration_device_mismatch_is_job_error() {
        use paradrive_transpiler::calibration::Calibration;
        use std::sync::Arc;
        let grid = Arc::new(CouplingMap::grid(3, 3));
        let ring = Arc::new(CouplingMap::ring(4));
        let wrong = Arc::new(Calibration::uniform(
            &ring,
            EngineConfig::default().fidelity,
        ));
        let mut batch = Batch::with_shared(Arc::clone(&grid));
        batch.push_calibrated("mismatch", benchmarks::ghz(4), grid, wrong);
        let err = run_batch(&batch, &EngineConfig::default().routing_seeds(1)).unwrap_err();
        let EngineError::Job { job, source } = err else {
            panic!("expected a job error");
        };
        assert_eq!(job, "mismatch");
        assert!(matches!(
            source,
            TranspileError::CalibrationMismatch { cal: 4, device: 9 }
        ));

        // Same qubit count, different topology: the edge sets differ, so
        // the calibration is rejected rather than silently read as
        // nominal on every unknown edge.
        let ring16 = Arc::new(CouplingMap::ring(16));
        let sneaky = Arc::new(
            Calibration::hotspot(&ring16, EngineConfig::default().fidelity, 2, 7).unwrap(),
        );
        let grid16 = Arc::new(CouplingMap::grid(4, 4));
        let mut batch = Batch::with_shared(Arc::clone(&grid16));
        batch.push_calibrated("sneaky", benchmarks::ghz(16), grid16, sneaky);
        let err = run_batch(&batch, &EngineConfig::default().routing_seeds(1)).unwrap_err();
        let EngineError::Job { job, source } = err else {
            panic!("expected a job error");
        };
        assert_eq!(job, "sneaky");
        assert!(matches!(source, TranspileError::InvalidCalibration(_)));
    }

    #[test]
    fn verification_verdicts_pass_and_are_thread_deterministic() {
        let batch = small_batch();
        let base = EngineConfig::default()
            .routing_seeds(2)
            .verify(VerifyLevel::Exact);
        let one = run_batch(&batch, &base.threads(1)).unwrap();
        let four = run_batch(&batch, &base.threads(4)).unwrap();
        results_identical(&one, &four);
        for c in &one.circuits {
            let v = c.verification.as_ref().expect("verification on");
            assert!(!v.failed(), "{}: {v}", c.result.name);
            // All of grid3x3 fits the dense oracle: strictly exact.
            assert_eq!(v.method(), "exact", "{}: {v}", c.result.name);
        }
        let summary = one.verification_summary().unwrap();
        assert!(summary.all_passed());
        assert_eq!(summary.exact, 3);
        assert!(summary.min_fidelity > 1.0 - 1e-9);
        // Off by default: no verdicts, no summary.
        let off = run_batch(&batch, &EngineConfig::default().routing_seeds(1)).unwrap();
        assert!(off.circuits.iter().all(|c| c.verification.is_none()));
        assert!(off.verification_summary().is_none());
    }

    #[test]
    fn sampled_verification_handles_wide_devices() {
        use std::sync::Arc;
        let grid = Arc::new(CouplingMap::grid(4, 4));
        let mut batch = Batch::with_shared(Arc::clone(&grid));
        batch.push("qft12", benchmarks::qft(12));
        let report = run_batch(
            &batch,
            &EngineConfig::default()
                .routing_seeds(2)
                .threads(2)
                .verify(VerifyLevel::Sampled)
                .verify_samples(3),
        )
        .unwrap();
        let v = report.circuits[0].verification.as_ref().unwrap();
        assert_eq!(v.method(), "sampled", "{v}");
        assert!(!v.failed(), "{v}");
    }

    #[test]
    fn streaming_sink_matches_run_batch_bitwise() {
        let batch = small_batch();
        let config = EngineConfig::default()
            .routing_seeds(3)
            .threads(4)
            .keep_routed(true)
            .verify(VerifyLevel::Exact);
        let slots: Vec<Mutex<Option<CircuitReport>>> =
            (0..batch.len()).map(|_| Mutex::new(None)).collect();
        let summary = run_batch_streaming(&batch, &config, &|job, report| {
            let mut slot = slots[job].lock().unwrap();
            assert!(slot.is_none(), "job {job} delivered twice");
            // Streamed reports leave the wall times as placeholders; the
            // trace is the single timing channel.
            assert_eq!(report.route_time, Duration::ZERO);
            assert_eq!(report.pipeline_time, Duration::ZERO);
            *slot = Some(report);
        })
        .unwrap();
        let streamed = EngineReport {
            circuits: slots
                .into_iter()
                .map(|slot| slot.into_inner().unwrap().expect("every job delivered"))
                .collect(),
            threads: summary.threads,
            wall_clock: summary.wall_clock,
            baseline_cache: summary.baseline_cache,
            optimized_cache: summary.optimized_cache,
            trace: summary.trace,
        };
        let full = run_batch(&batch, &config).unwrap();
        results_identical(&full, &streamed);
        // The collecting wrapper rebuilds per-job wall times from spans.
        assert!(full.busy_time() > Duration::ZERO);
    }

    #[test]
    fn streaming_failure_reports_error_but_successes_still_stream() {
        let mut batch = Batch::new(CouplingMap::grid(2, 2));
        batch.push("ok", benchmarks::ghz(4));
        batch.push("too-wide", benchmarks::ghz(9));
        let delivered: Mutex<Vec<(usize, String)>> = Mutex::new(Vec::new());
        let err = run_batch_streaming(&batch, &EngineConfig::default().threads(2), &|job, r| {
            delivered.lock().unwrap().push((job, r.result.name.clone()));
        })
        .unwrap_err();
        let EngineError::Job { job, .. } = err else {
            panic!("expected a job error");
        };
        assert_eq!(job, "too-wide");
        let delivered = delivered.into_inner().unwrap();
        assert_eq!(delivered, vec![(0, "ok".to_string())]);
    }

    #[test]
    fn empty_batch_is_fine() {
        let batch = Batch::new(CouplingMap::grid(2, 2));
        let r = run_batch(&batch, &EngineConfig::default()).unwrap();
        assert!(r.circuits.is_empty());
    }

    #[test]
    fn oversized_circuit_reports_job_error() {
        let mut batch = Batch::new(CouplingMap::grid(2, 2));
        batch.push("ok", benchmarks::ghz(4));
        batch.push("too-wide", benchmarks::ghz(9));
        let err = run_batch(&batch, &EngineConfig::default().threads(2)).unwrap_err();
        match err {
            EngineError::Job { job, .. } => assert_eq!(job, "too-wide"),
            other => panic!("expected a job error, got {other}"),
        }
    }

    #[test]
    fn thread_cap_never_exceeds_units() {
        let mut batch = Batch::new(CouplingMap::grid(2, 2));
        batch.push("ghz4", benchmarks::ghz(4));
        let r = run_batch(
            &batch,
            &EngineConfig::default().routing_seeds(2).threads(64),
        )
        .unwrap();
        assert!(r.threads <= 2);
    }
}
