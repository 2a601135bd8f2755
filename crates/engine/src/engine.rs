//! The scoped worker pool that drives a [`Batch`] — or a whole fleet —
//! through the pipeline.
//!
//! A pool run has a table of *route jobs*: one per batch job, or one per
//! `(epoch, job)` pair of a fleet (see [`crate::policy`]). Work is split
//! into units. *Routing units* — one per `(route job, seed)` pair — let
//! best-of-N routing inside a single circuit fan across workers just like
//! distinct circuits do; the initial route jobs' units sit on a shared
//! atomic cursor. The worker that completes a job's **last** routing unit
//! immediately runs that job's back half (best-seed selection →
//! consolidate → verify → schedule → fidelity), so there is no barrier
//! between phases and no idle tail while one late circuit finishes
//! routing.
//!
//! A finished route job goes to the run's sink on its worker, and the
//! sink may hand back the work the job's completion makes ready
//! ([`Next`]): a later route job's routing units, or *re-score units*,
//! each scoring a kept route's consolidated items under a new calibration
//! under a `schedule` span (the fleet's kept epochs). That work, and at
//! [`VerifyLevel::Sampled`] each job's K Monte-Carlo *sample units*, is
//! published to one queue: workers take sample units ahead of the cursor,
//! and routing and re-score units, first published first, once the cursor
//! has run dry. The back half of a sampled job only *prepares* its check
//! ([`PreparedCheck`]); the worker that finishes the job's last sample
//! folds the verdict and hands the report on. A worker with nothing
//! runnable waits on a condition variable while some route job is still
//! open — routing, preparing or sampling, so it may yet publish work —
//! and returns once none is. So a fleet runs as independent per-job
//! chains on one set of workers, with no barrier between epochs.
//!
//! Work a run would otherwise repeat is done once. The noise-aware
//! routing oracle (an all-pairs effective-distance solve) is built inside
//! the pool by the first routing unit that needs it, once per distinct
//! `(map, calibration)` pair: route jobs holding the same two [`Arc`]s
//! share it. Each worker consolidates through its own [`WeylMemo`], kept
//! for the whole run.
//!
//! Determinism: every routing unit seeds its own `StdRng` from the unit's
//! seed value, best-seed selection is "strictly fewer SWAPs, earliest seed
//! wins" (exactly [`route_best_of`]'s rule), each sample's fidelity is a
//! pure function of `(job, sample)`, the verdict folds the samples in
//! sample order, an oracle and a Weyl point are pure functions of their
//! inputs, and every result reaches its sink under its job's index, in
//! whatever order the workers finish — the output is a pure function of
//! the batch and config, bit-for-bit identical at any thread count.
//!
//! [`route_best_of`]: paradrive_transpiler::routing::route_best_of

use crate::batch::{Batch, Costing, EngineConfig};
use crate::cache::{CachedCostModel, DecompositionCache};
use crate::policy::Adopted;
use crate::report::{BatchSummary, CircuitReport, EngineReport};
use crate::EngineError;
use paradrive_circuit::Circuit;
use paradrive_core::flow::{evaluate_with_calibration, BenchmarkResult};
use paradrive_core::rules::{BaselineSqrtIswap, ParallelDriveRules, SynthesizedParallelDrive};
use paradrive_obs::{Counter, Recorder, Trace};
use paradrive_transpiler::calibration::Calibration;
use paradrive_transpiler::consolidate::{consolidate_with, Item, WeylMemo};
use paradrive_transpiler::fidelity::FidelityModel;
use paradrive_transpiler::routing::{route_with_oracle, NoiseOracle, Routed, RouterOptions};
use paradrive_transpiler::topology::CouplingMap;
use paradrive_transpiler::CostModel;
use paradrive_transpiler::TranspileError;
use paradrive_verify::{
    Physical, PreparedCheck, RegisterPair, UnitOutcome, Verification, VerifyError, VerifyLevel,
};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// A per-job completion sink for [`run_batch_streaming`]: called once per
/// successful job, on the worker thread that finished it, with the job's
/// submission index and its finished report. Must be `Sync` — workers
/// call it concurrently.
pub type JobSink<'a> = dyn Fn(usize, CircuitReport) + Sync + 'a;

/// The worker pool's own completion sink: called on the worker that
/// finished a route job, with the job's index, report and consolidated
/// items (so a fleet that re-scores the same route later never
/// consolidates it again). It returns the work the job's completion makes
/// ready.
pub(crate) type FinishSink<'a> = dyn Fn(usize, CircuitReport, Vec<Item>) -> Vec<Next> + Sync + 'a;

/// The sink of a re-score unit: called on the worker that scored it, with
/// the route job whose slot it fills, the kept route and the result.
pub(crate) type RescoreSink<'a> = dyn Fn(usize, Arc<Adopted>, BenchmarkResult) + Sync + 'a;

/// Work a finished route job makes ready; the pool publishes it to its
/// queue.
pub(crate) enum Next {
    /// Route job `r`, one routing unit per seed.
    Route(usize),
    /// Route job `r`'s slot, filled by re-scoring a kept route under the
    /// job's calibration instead of routing.
    Rescore(usize, Arc<Adopted>),
}

/// One job a pool run may route: a batch job, or a fleet job at one
/// epoch.
pub(crate) struct RouteJob<'a> {
    /// The job name, the span label and the report's name.
    pub(crate) name: &'a str,
    /// The logical circuit.
    pub(crate) circuit: &'a Circuit,
    /// The device it routes on.
    pub(crate) map: &'a CouplingMap,
    /// The calibration it routes and scores under, if any.
    pub(crate) cal: Option<&'a Calibration>,
    /// Span key: the batch job, or the fleet job.
    pub(crate) key: usize,
    /// The fleet epoch (0 in a batch), which picks its counters' prefix.
    pub(crate) epoch: usize,
}

/// Everything one pool run does. A failure ranks by its route job's
/// index, so jobs are listed in the order errors should be reported in.
pub(crate) struct PoolWork<'a> {
    /// Every job the run may route.
    pub(crate) jobs: Vec<RouteJob<'a>>,
    /// Jobs `0..initial` route from the start; a later one routes only
    /// once a finished job publishes it.
    pub(crate) initial: usize,
    /// Counter-name prefix per epoch (`[""]` for a batch).
    pub(crate) prefixes: Vec<String>,
    /// Where each routed job's report and items go.
    pub(crate) finished: &'a FinishSink<'a>,
    /// Where each re-score's result goes.
    pub(crate) rescored: &'a RescoreSink<'a>,
}

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

    // Derive the per-job times from the trace spans — the single timing
    // path (workers leave placeholders). A job's route time sums its
    // per-seed "route" spans; its pipeline time sums every other span of
    // the job: the back-half stages plus its sample units, which may run
    // on several workers at once.
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
/// replays many batches shares one warm pair across all of them instead
/// of rebuilding cold caches per batch. Cached and uncached runs produce
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
    let jobs = (batch.jobs().iter().enumerate())
        .map(|(i, job)| RouteJob {
            name: &job.name,
            circuit: &job.circuit,
            map: batch.map_for(i),
            cal: job.calibration(),
            key: i,
            epoch: 0,
        })
        .collect();
    let work = PoolWork {
        jobs,
        initial: batch.len(),
        prefixes: vec![String::new()],
        finished: &|job, report, _items| {
            sink(job, report);
            Vec::new()
        },
        rescored: &|_, _, _| {},
    };
    run_pool(&work, config, caches)
}

/// The worker pool behind every entry point: runs `work` (see
/// [`run_batch_streaming_with_caches`] for the contract).
///
/// # Errors
///
/// The failure of the lowest-indexed route job, routed or re-scored: for
/// a plain batch, the first failing job in submission order.
pub(crate) fn run_pool(
    work: &PoolWork<'_>,
    config: &EngineConfig,
    caches: Option<(&DecompositionCache, &DecompositionCache)>,
) -> Result<BatchSummary, EngineError> {
    let started = Instant::now();
    let seeds = config.routing_seeds.max(1) as usize;
    let n_jobs = work.jobs.len();
    let threads = config.pool_workers(n_jobs);

    // Jobs on the same (map, calibration) pair, by `Arc` identity, share
    // one validation and one noise-aware routing oracle, built by the
    // first routing unit that needs them and counted in the epoch of the
    // first job on the pair.
    let mut pair_epochs: Vec<usize> = Vec::new();
    let mut pairs: HashMap<(*const CouplingMap, *const Calibration), usize> = HashMap::new();
    let noise_pair: Vec<Option<usize>> = (work.jobs.iter())
        .map(|job| {
            let key = (
                job.map as *const CouplingMap,
                job.cal? as *const Calibration,
            );
            Some(*pairs.entry(key).or_insert_with(|| {
                pair_epochs.push(job.epoch);
                pair_epochs.len() - 1
            }))
        })
        .collect();

    // The run's own recorder, always on: per-stage spans are cheap next
    // to millisecond-scale jobs, and the drained trace is both the source
    // of the per-job route/pipeline times and the `--trace` export. The
    // process-global `paradrive_obs::global()` recorder is untouched here
    // — it stays opt-in for free-floating hot paths (simulator kernels).
    let rec = Recorder::new();
    let per_epoch = |name: &str| -> Vec<String> {
        (work.prefixes.iter())
            .map(|prefix| format!("{prefix}{name}"))
            .collect()
    };
    let shared = Shared {
        work,
        config,
        noise_pair,
        oracles: pair_epochs.iter().map(|_| OnceLock::new()).collect(),
        pair_epochs,
        seeds,
        scorer: Scorer::new(config, caches),
        next_unit: AtomicUsize::new(0),
        units_left: (0..n_jobs).map(|_| AtomicUsize::new(seeds)).collect(),
        routed: (0..n_jobs).map(|_| Mutex::default()).collect(),
        failures: (0..n_jobs).map(|_| Mutex::new(None)).collect(),
        queued: config.verify == VerifyLevel::Sampled || n_jobs > work.initial,
        queue: Mutex::new(Queue {
            samples: VecDeque::new(),
            later: VecDeque::new(),
            open: work.initial,
            abort: false,
        }),
        ready: Condvar::new(),
        seed_attempts: (per_epoch("route.seed_attempts").iter())
            .map(|name| rec.counter(name))
            .collect(),
        oracle_builds: (per_epoch("route.oracles").iter())
            .map(|name| rec.counter(name))
            .collect(),
        verify_samples: per_epoch("verify.samples"),
        rec,
    };

    if work.initial * seeds > 0 {
        // Join each worker explicitly. The scope's own join returns once a
        // worker's closure is done, before its OS thread has exited; the
        // next batch's workers can then start while these still hold
        // their malloc arenas (glibc's are per thread), so new arenas get
        // made, each keeping the statevector registers freed into it. On
        // `verify_16q` that raised the peak resident set from about 9 to
        // 12–15 MB; joining keeps it flat from batch to batch.
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|_| {
                    let shared = &shared;
                    scope.spawn(move || shared.run_worker())
                })
                .collect();
            for worker in workers {
                if let Err(panic) = worker.join() {
                    std::panic::resume_unwind(panic);
                }
            }
        });
    }

    let failure = (shared.failures.iter().enumerate()).find_map(|(job, slot)| {
        let failed = slot.lock().expect("failure slot poisoned").take();
        Some((job, failed?))
    });
    if let Some((job, source)) = failure {
        return Err(EngineError::Job {
            job: work.jobs[job].name.to_string(),
            source,
        });
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

/// The failing verdict of a check the oracles could not run.
fn error_verdict(e: VerifyError) -> Verification {
    Verification::Error {
        reason: e.to_string(),
    }
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
    ///
    /// # Errors
    ///
    /// [`TranspileError::InvalidCalibration`] when a duration or total
    /// fidelity comes out non-finite (a calibration whose generated
    /// values overflowed), so no report ever carries `inf` or `NaN`.
    pub(crate) fn score(
        &self,
        name: &str,
        items: &[Item],
        swaps: usize,
        device_qubits: usize,
        logical_qubits: usize,
        cal: Option<&Calibration>,
    ) -> Result<BenchmarkResult, TranspileError> {
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
        let result = evaluate_with_calibration(
            name,
            items,
            swaps,
            baseline,
            optimized,
            device_qubits,
            logical_qubits,
            self.fidelity,
            cal,
        );
        for (what, value) in [
            ("baseline duration", result.baseline_duration),
            ("optimized duration", result.optimized_duration),
            ("baseline total fidelity", result.baseline_total_fidelity),
            ("optimized total fidelity", result.optimized_total_fidelity),
        ] {
            if !value.is_finite() {
                return Err(TranspileError::InvalidCalibration(format!(
                    "calibration {} gives a non-finite {what} ({value})",
                    cal.map_or("uniform", Calibration::label)
                )));
            }
        }
        Ok(result)
    }
}

/// State shared by every worker for one pool run.
struct Shared<'a> {
    work: &'a PoolWork<'a>,
    config: &'a EngineConfig,
    /// Each job's `(map, calibration)` pair, an index into `oracles`
    /// (`None` for uncalibrated jobs).
    noise_pair: Vec<Option<usize>>,
    /// Per pair, built once by the first routing unit that needs it: the
    /// noise-aware routing oracle (`Ok(None)` when routing noise-blind),
    /// or the calibration-validation error every routing unit of the
    /// pair's jobs reports.
    oracles: Vec<OnceLock<Result<Option<NoiseOracle>, TranspileError>>>,
    /// Per pair, the epoch whose `route.oracles` counts its build.
    pair_epochs: Vec<usize>,
    seeds: usize,
    scorer: Scorer<'a>,
    /// Cursor over the initial jobs' flattened `(job, seed)` routing
    /// units.
    next_unit: AtomicUsize,
    /// Routing units still outstanding per job; the worker that drops a
    /// job's counter to zero owns its back half.
    units_left: Vec<AtomicUsize>,
    /// Routing results per job, one slot per seed, allocated when the
    /// job's first seed lands and emptied by its back half: a fleet holds
    /// slots for the jobs it is routing, not for its whole timeline.
    routed: Vec<Mutex<SeedRoutes>>,
    /// Per-job error slots, routed or re-scored; successful reports go
    /// straight to the sinks.
    failures: Vec<Mutex<Option<TranspileError>>>,
    /// Whether any unit can be published: sample units (at
    /// [`VerifyLevel::Sampled`]), or jobs past the initial ones. Otherwise
    /// the queue is never touched and workers never wait.
    queued: bool,
    /// Published units ready to run, and the jobs that may still publish
    /// some.
    queue: Mutex<Queue<'a>>,
    /// Signalled when units are published, when the last open job
    /// closes, and when a worker panics.
    ready: Condvar,
    /// Routing units executed (one per `(job, seed)` pair), per epoch.
    seed_attempts: Vec<Counter>,
    /// Noise-aware routing oracles built (one per `(map, calibration)`
    /// pair routed noise-aware), per epoch.
    oracle_builds: Vec<Counter>,
    /// The `verify.samples` counter's name, per epoch.
    verify_samples: Vec<String>,
    /// The pool-scoped recorder every stage span and counter lands in;
    /// spans are keyed by [`RouteJob::key`] so `run_batch` can rebuild
    /// per-job times from the drained trace.
    rec: Recorder,
}

/// The pool's published units and the count that tells an idle worker
/// whether to wait for more.
struct Queue<'a> {
    /// Sample units, in publication order. They run first: each finishes
    /// a job already under way.
    samples: VecDeque<Unit<'a>>,
    /// Routing and re-score units, in publication order. They run once
    /// the cursor's units are all taken.
    later: VecDeque<Unit<'a>>,
    /// Jobs started but not yet finished or failed — routing, preparing
    /// or sampling — which may yet publish units. A worker with nothing
    /// runnable waits while this is non-zero and returns once it is zero.
    open: usize,
    /// Set when a worker panics: its job will never close, so no worker
    /// waits any more.
    abort: bool,
}

/// A published unit of pool work.
enum Unit<'a> {
    /// A flattened `(job, seed)` routing unit.
    Route(usize),
    /// Job `r`'s slot, re-scored from a kept route.
    Rescore(usize, Arc<Adopted>),
    /// Sample `k` of a job's sampled check.
    Sample(usize, Arc<SampledJob<'a>>),
}

/// A job whose check runs as sample units: the prepared check every unit
/// reads, and the finished back half waiting for its verdict.
struct SampledJob<'a> {
    job: usize,
    check: PreparedCheck<'a>,
    folding: Mutex<Folding>,
}

/// The samples' outcomes in sample order, how many are outstanding, and
/// the report and items to hand on once the last one lands.
struct Folding {
    outcomes: Vec<Option<Result<UnitOutcome, VerifyError>>>,
    left: usize,
    report: Option<(CircuitReport, Vec<Item>)>,
}

/// One job's routing results, a slot per seed.
type SeedRoutes = Vec<Option<Result<Routed, TranspileError>>>;

/// A finished back half: the job's report and consolidated items, and
/// its sampled check when the verdict is still to come from sample units.
type FinishedJob<'a> = (CircuitReport, Vec<Item>, Option<PreparedCheck<'a>>);

/// Marks a worker's return. A worker that unwinds leaves its job open
/// forever, so it wakes the waiting workers for good.
struct Exit<'s, 'a>(&'s Shared<'a>);

impl Drop for Exit<'_, '_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.queue().abort = true;
            self.0.ready.notify_all();
        }
    }
}

impl<'a> Shared<'a> {
    fn run_worker(&self) {
        let _exit = Exit(self);
        // One Weyl memo per worker for the whole run, and at most one
        // register pair, allocated at its first sample.
        let mut memo = WeylMemo::default();
        let mut registers = RegisterPair::default();
        let initial_units = self.work.initial * self.seeds;
        let mut pulling = true;
        loop {
            if let Some(unit) = self.take(false) {
                self.run(unit, &mut memo, &mut registers);
                continue;
            }
            if pulling {
                let unit = self.next_unit.fetch_add(1, Ordering::Relaxed);
                if unit < initial_units {
                    self.route_unit(unit, &mut memo);
                    continue;
                }
                pulling = false;
            }
            match self.take(true) {
                Some(unit) => self.run(unit, &mut memo, &mut registers),
                None => return,
            }
        }
    }

    fn run(&self, unit: Unit<'a>, memo: &mut WeylMemo, registers: &mut RegisterPair) {
        match unit {
            Unit::Route(unit) => self.route_unit(unit, memo),
            Unit::Rescore(job, kept) => self.rescore_unit(job, kept),
            Unit::Sample(sample, job) => self.run_sample(sample, &job, registers),
        }
    }

    /// The queue's lock. Nothing panics while holding it, but a poisoned
    /// lock still guards consistent data, so it is taken anyway.
    fn queue(&self) -> MutexGuard<'_, Queue<'a>> {
        self.queue.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The next published unit: a sample unit, or, once the cursor has
    /// run dry (`dry`), any unit — blocking while none is ready but some
    /// job may still publish one. `None` means no unit is ready (and,
    /// when `dry`, none will come).
    fn take(&self, dry: bool) -> Option<Unit<'a>> {
        if !self.queued {
            return None;
        }
        let mut queue = self.queue();
        loop {
            if let Some(unit) = queue.samples.pop_front() {
                return Some(unit);
            }
            if !dry {
                return None;
            }
            if let Some(unit) = queue.later.pop_front() {
                return Some(unit);
            }
            if queue.open == 0 || queue.abort {
                return None;
            }
            queue = self.ready.wait(queue).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Closes a finished or failed job, and wakes the waiting workers
    /// when `published` or when no job is left open.
    fn close(&self, mut queue: MutexGuard<'_, Queue<'a>>, published: bool) {
        queue.open -= 1;
        let wake = published || queue.open == 0;
        drop(queue);
        if wake {
            self.ready.notify_all();
        }
    }

    /// Routes one `(job, seed)` unit; the worker that finishes a job's
    /// last routing unit runs the job's back half right away.
    fn route_unit(&self, unit: usize, memo: &mut WeylMemo) {
        let (r, seed) = (unit / self.seeds, unit % self.seeds);
        let job = &self.work.jobs[r];
        let result = {
            let _span = self
                .rec
                .span_full("route", job.key as u64, || format!("{}#{seed}", job.name));
            self.seed_attempts[job.epoch].incr(1);
            self.noise_oracle(r).and_then(|oracle| {
                let seed = seed as u64;
                route_with_oracle(job.circuit, job.map, oracle, seed, RouterOptions::default())
            })
        };
        {
            let mut slots = self.routed[r].lock().expect("routing slots poisoned");
            slots.resize_with(self.seeds, || None);
            slots[seed] = Some(result);
        }

        if self.units_left[r].fetch_sub(1, Ordering::AcqRel) == 1 {
            match self.finish_job(r, memo) {
                Ok((report, items, None)) => self.deliver(r, report, items),
                Ok((report, items, Some(check))) => self.publish_samples(r, check, report, items),
                Err(e) => self.fail(r, e),
            }
        }
    }

    /// Hands job `r`'s finished report to the run's sink, publishes the
    /// work it makes ready, and closes the job.
    fn deliver(&self, r: usize, report: CircuitReport, items: Vec<Item>) {
        let next = (self.work.finished)(r, report, items);
        if !self.queued {
            debug_assert!(next.is_empty(), "work published to a pool without a queue");
            return;
        }
        let mut queue = self.queue();
        let published = !next.is_empty();
        for next in next {
            match next {
                Next::Route(job) => {
                    let units = (job * self.seeds..(job + 1) * self.seeds).map(Unit::Route);
                    queue.later.extend(units);
                    queue.open += 1;
                }
                Next::Rescore(job, kept) => queue.later.push_back(Unit::Rescore(job, kept)),
            }
        }
        self.close(queue, published);
    }

    /// Records job `r`'s failure and closes the job.
    fn fail(&self, r: usize, e: TranspileError) {
        *self.failures[r].lock().expect("failure slot poisoned") = Some(e);
        if self.queued {
            self.close(self.queue(), false);
        }
    }

    /// Job `r`'s noise-aware routing oracle (`None` when it routes
    /// noise-blind), built by the first caller for its `(map,
    /// calibration)` pair after validating the calibration against the
    /// map.
    fn noise_oracle(&self, r: usize) -> Result<Option<&NoiseOracle>, TranspileError> {
        let Some(pair) = self.noise_pair[r] else {
            return Ok(None);
        };
        let built = self.oracles[pair].get_or_init(|| {
            let job = &self.work.jobs[r];
            let cal = job.cal.expect("paired jobs are calibrated");
            cal.validate_for(job.map)?;
            if !self.config.noise_aware {
                return Ok(None);
            }
            self.oracle_builds[self.pair_epochs[pair]].incr(1);
            Ok(Some(NoiseOracle::new(
                job.map,
                cal,
                RouterOptions::default(),
            )))
        });
        match built {
            Ok(oracle) => Ok(oracle.as_ref()),
            Err(e) => Err(e.clone()),
        }
    }

    /// Fills job `r`'s slot by re-scoring a kept route under the job's
    /// calibration.
    fn rescore_unit(&self, r: usize, kept: Arc<Adopted>) {
        let job = &self.work.jobs[r];
        let scored = {
            let _span = self
                .rec
                .span_full("schedule", job.key as u64, || job.name.to_string());
            self.scorer.score(
                job.name,
                &kept.items,
                kept.swaps,
                job.map.n_qubits(),
                job.circuit.n_qubits(),
                job.cal,
            )
        };
        match scored {
            Ok(result) => (self.work.rescored)(r, kept, result),
            Err(e) => *self.failures[r].lock().expect("failure slot poisoned") = Some(e),
        }
    }

    /// Publishes the sample units of a job whose back half has finished
    /// but for the verdict of its prepared sampled check.
    fn publish_samples(
        &self,
        job: usize,
        check: PreparedCheck<'a>,
        report: CircuitReport,
        items: Vec<Item>,
    ) {
        let units = check.units();
        let sampled = Arc::new(SampledJob {
            job,
            check,
            folding: Mutex::new(Folding {
                outcomes: (0..units).map(|_| None).collect(),
                left: units,
                report: Some((report, items)),
            }),
        });
        (self.queue().samples).extend((0..units).map(|k| Unit::Sample(k, Arc::clone(&sampled))));
        self.ready.notify_all();
    }

    /// Runs sample `sample` of a job's check. The worker that lands the
    /// job's last outcome folds the verdict, in sample order, and hands
    /// the report on.
    fn run_sample(&self, sample: usize, sampled: &SampledJob<'_>, registers: &mut RegisterPair) {
        let r = sampled.job;
        let job = &self.work.jobs[r];
        let outcome = {
            let _span = self.rec.span_full("verify.sample", job.key as u64, || {
                format!("{}#{sample}", job.name)
            });
            sampled.check.run_unit(sample, registers)
        };
        let (outcomes, done) = {
            let mut folding = sampled.folding.lock().expect("sample slots poisoned");
            folding.outcomes[sample] = Some(outcome);
            folding.left -= 1;
            if folding.left > 0 {
                return;
            }
            (std::mem::take(&mut folding.outcomes), folding.report.take())
        };
        let (mut report, items) = done.expect("a sampled job's report waits for its verdict");
        let verification = sampled
            .check
            .fold(
                outcomes
                    .into_iter()
                    .map(|o| o.expect("every sample has landed")),
            )
            .unwrap_or_else(error_verdict);
        self.count_samples(r, &verification);
        report.verification = Some(verification);
        self.deliver(r, report, items);
    }

    /// Adds a Monte-Carlo verdict's samples to job `r`'s epoch's
    /// `verify.samples`.
    fn count_samples(&self, r: usize, verification: &Verification) {
        if let Verification::Sampled { samples, .. } = verification {
            let name = &self.verify_samples[self.work.jobs[r].epoch];
            self.rec.add(name, *samples as u64);
        }
    }

    /// Best-seed selection, consolidation, verification and scoring for
    /// one fully routed job. Each stage runs under its own span (keyed by
    /// [`RouteJob::key`], labeled by the job name). A sampled check is
    /// only prepared here, and its samples run as pool units under
    /// `verify.sample` spans; `run_batch` sums every span of a job into
    /// its pipeline time, and the placeholders below stay zero until then.
    fn finish_job(&self, r: usize, memo: &mut WeylMemo) -> Result<FinishedJob<'a>, TranspileError> {
        let job = &self.work.jobs[r];
        let stage = |name| {
            self.rec
                .span_full(name, job.key as u64, || job.name.to_string())
        };
        let cal = job.cal;
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
            let slots =
                std::mem::take(&mut *self.routed[r].lock().expect("routing slots poisoned"));
            for slot in slots {
                let routed = slot.expect("all units of a finished job are routed")?;
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
            consolidate_with(&best.circuit, memo)?
        };

        let map = job.map;

        // Semantic verification replays the *consolidated* stream — each
        // two-qubit block as one fused 4×4 apply — against the logical
        // circuit under the routed output permutation, so a failure in
        // either routing or consolidation is caught. The Monte-Carlo seed
        // mixes in the job's name, so every job is probed with its own
        // input states (still a pure function of the batch, never of the
        // thread count). Oracle errors (an engine invariant broken, not a
        // bad circuit) become a failing `Verification::Error` verdict
        // rather than aborting the batch — or silently passing. A sampled
        // check leaves this stage prepared, its verdict still to come.
        let mut verification = None;
        let mut pending = None;
        if self.config.verify != VerifyLevel::Off {
            let _span = stage("verify");
            let cfg = self
                .config
                .verify_config()
                .seed(self.config.verify_seed ^ fnv1a(job.name.as_bytes()));
            let physical = Physical::Consolidated {
                items: &items,
                n_qubits: map.n_qubits(),
            };
            match PreparedCheck::prepare(job.circuit, &physical, &best.layout, &cfg) {
                Ok(check) if check.is_sampled() => pending = Some(check),
                Ok(check) => {
                    let outcome = check.run_unit(0, &mut RegisterPair::default());
                    verification = Some(check.fold([outcome]).unwrap_or_else(error_verdict));
                }
                Err(e) => verification = Some(error_verdict(e)),
            }
        }
        if let Some(v) = &verification {
            self.count_samples(r, v);
        }
        let result = {
            let _span = stage("schedule");
            self.scorer.score(
                job.name,
                &items,
                best.swaps_inserted,
                map.n_qubits(),
                job.circuit.n_qubits(),
                cal,
            )?
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
        Ok((report, items, pending))
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

    /// The scoring stage's backstop: edges slow enough that one
    /// critical path overflows, though each edge's own values are finite,
    /// fail the job typed instead of reporting `inf`.
    #[test]
    fn scores_that_overflow_are_job_errors() {
        use paradrive_transpiler::calibration::EdgeCalibration;
        use std::sync::Arc;
        let line = Arc::new(CouplingMap::line(4));
        let slow = EdgeCalibration {
            duration_factor: f64::MAX / 2.0,
            error_rate: 0.0,
        };
        let cal = Calibration::uniform(&line, EngineConfig::default().fidelity)
            .with_edge(0, 1, slow)
            .with_edge(1, 2, slow)
            .with_edge(2, 3, slow);
        let mut batch = Batch::with_shared(Arc::clone(&line));
        batch.push_calibrated("slow", benchmarks::ghz(4), line, Arc::new(cal));
        let err = run_batch(&batch, &EngineConfig::default().routing_seeds(1)).unwrap_err();
        let EngineError::Job { job, source } = err else {
            panic!("expected a job error");
        };
        assert_eq!(job, "slow");
        let TranspileError::InvalidCalibration(why) = source else {
            panic!("expected InvalidCalibration, got {source:?}");
        };
        assert!(why.contains("non-finite"), "{why}");
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
