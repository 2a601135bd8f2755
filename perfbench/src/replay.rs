//! The traced run: every request replayed stage by stage through the
//! library's public calls, with spans and counters recorded here, around
//! those calls, rather than inside the library.
//!
//! A replayed engine job is the engine's own sequence: `route_with_oracle`
//! once per routing seed, the best-seed rule, `consolidate`, `verify`, and
//! `evaluate_with_calibration` with both cost models wrapped in timing
//! [`CostModel`]s. The first general-class cost call per model builds the
//! lazy coverage stacks; it gets its own `coverage.build` span instead of
//! being charged to `schedule`. A replayed fleet sweep adds the drift
//! timelines, the re-transpile policy, and the re-fold of the cells
//! through [`RunRollup`] and `render`.
//!
//! The replay runs on the client thread, so its spans are per-layer busy
//! times. Each replayed request must reproduce the library's own run of
//! the same request bit for bit (same projection); a mismatch fails the
//! request.

use crate::workload::{
    fnv1a, project_engine, project_sweep, Checked, EngineInput, Inputs, Seeds, Workload,
};
use crate::{json_f64, signal_setup_done, Tally};
use paradrive_circuit::Circuit;
use paradrive_core::flow::evaluate_with_calibration;
use paradrive_core::rules::{
    is_cnot_family, is_identity, is_iswap_family, is_swap, BaselineSqrtIswap, ParallelDriveRules,
    SynthesizedParallelDrive,
};
use paradrive_engine::{
    CachedCostModel, CircuitReport, Costing, DecompositionCache, EngineConfig, EngineReport,
    EpochDecision, RetranspilePolicy, Trace, VerifyLevel,
};
use paradrive_obs::{Counter, Recorder};
use paradrive_repro::sweep::{
    costing_label, PlannedCell, RunRollup, SweepCell, SweepOutcome, SweepPlan, SweepRun, SweepSpec,
};
use paradrive_transpiler::calibration::drift::CalibrationTimeline;
use paradrive_transpiler::calibration::Calibration;
use paradrive_transpiler::consolidate::{consolidate, Item};
use paradrive_transpiler::routing::{route_with_oracle, NoiseOracle, Routed, RouterOptions};
use paradrive_transpiler::topology::CouplingMap;
use paradrive_transpiler::{CostModel, GateCost};
use paradrive_verify::{verify, Physical, Verification};
use paradrive_weyl::WeylPoint;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// True for targets no analytic rule covers: the ones the hull model
/// looks up in the coverage stacks and the synthesized model synthesizes.
fn is_general(p: WeylPoint) -> bool {
    !(is_identity(p) || is_cnot_family(p) || is_iswap_family(p) || is_swap(p))
}

/// Whether a model's first general-class call has happened in this
/// process: that call builds the model's coverage stacks.
static BASELINE_BUILT: AtomicBool = AtomicBool::new(false);
static OPTIMIZED_BUILT: AtomicBool = AtomicBool::new(false);

/// One replayed request's recorder and the hot counters the cost-model
/// wrappers add into.
struct Probe {
    rec: Recorder,
    lookups: Counter,
    general: Counter,
    lookup_ns: Counter,
    build_ns: Counter,
    synth_calls: Counter,
    synth_ns: Counter,
}

impl Probe {
    fn new(enabled: bool) -> Self {
        let rec = if enabled {
            Recorder::new()
        } else {
            Recorder::disabled()
        };
        Probe {
            lookups: rec.counter("cost.lookups"),
            general: rec.counter("cost.general"),
            lookup_ns: rec.counter("cost.ns"),
            build_ns: rec.counter("coverage.build_ns"),
            synth_calls: rec.counter("synth.calls"),
            synth_ns: rec.counter("synth.ns"),
            rec,
        }
    }
}

/// Times every cost lookup the scheduler makes, cache included.
struct Lookups<'a> {
    inner: &'a dyn CostModel,
    probe: &'a Probe,
}

impl CostModel for Lookups<'_> {
    fn cost(&self, target: WeylPoint) -> GateCost {
        let p = self.probe;
        if !p.rec.is_enabled() {
            return self.inner.cost(target);
        }
        let started = Instant::now();
        let cost = self.inner.cost(target);
        p.lookup_ns.incr(started.elapsed().as_nanos() as u64);
        p.lookups.incr(1);
        if is_general(target) {
            p.general.incr(1);
        }
        cost
    }

    fn d_1q(&self) -> f64 {
        self.inner.d_1q()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// The model computations behind the cache: synthesis calls, and the
/// coverage-stack build inside a hull model's first general-class call.
struct Computed<'a> {
    model: &'a dyn CostModel,
    synthesized: bool,
    built: &'static AtomicBool,
    probe: &'a Probe,
}

impl CostModel for Computed<'_> {
    fn cost(&self, target: WeylPoint) -> GateCost {
        if !is_general(target) {
            return self.model.cost(target);
        }
        let p = self.probe;
        if self.synthesized {
            let span = p.rec.span("synth");
            let cost = self.model.cost(target);
            p.synth_calls.incr(1);
            p.synth_ns.incr(span.elapsed_ns());
            return cost;
        }
        if self.built.swap(true, Ordering::SeqCst) {
            return self.model.cost(target);
        }
        let span = p.rec.span("coverage.build");
        let cost = self.model.cost(target);
        p.build_ns.incr(span.elapsed_ns());
        cost
    }

    fn d_1q(&self) -> f64 {
        self.model.d_1q()
    }

    fn name(&self) -> &str {
        self.model.name()
    }
}

/// The two cost models a batch is scored under, as the engine builds them
/// from its configuration.
struct Models {
    baseline: BaselineSqrtIswap,
    optimized: Box<dyn CostModel>,
    synthesized: bool,
}

impl Models {
    fn new(config: &EngineConfig) -> Self {
        let synthesized = config.costing == Costing::Synthesized;
        Models {
            baseline: BaselineSqrtIswap::new(config.d_1q),
            optimized: if synthesized {
                Box::new(SynthesizedParallelDrive::new(config.d_1q))
            } else {
                Box::new(ParallelDriveRules::new(config.d_1q))
            },
            synthesized,
        }
    }
}

/// One replayed job: its report plus the routed circuit and items the
/// fleet policy keeps.
struct JobReplay {
    report: CircuitReport,
    routed: Circuit,
    items: Vec<Item>,
}

/// Per-job context of a replay: where it routes and what it is scored
/// under.
struct Job<'a> {
    name: &'a str,
    circuit: &'a Circuit,
    map: &'a CouplingMap,
    calibration: Option<&'a Calibration>,
}

/// Scores `items` under both models with the timing wrappers, through the
/// caches when given — the engine's `schedule` stage.
fn schedule_stage(
    p: &Probe,
    job: &Job<'_>,
    items: &[Item],
    swaps: usize,
    config: &EngineConfig,
    models: &Models,
    caches: Option<(&DecompositionCache, &DecompositionCache)>,
) -> paradrive_core::flow::BenchmarkResult {
    let base = Computed {
        model: &models.baseline,
        synthesized: false,
        built: &BASELINE_BUILT,
        probe: p,
    };
    let opt = Computed {
        model: models.optimized.as_ref(),
        synthesized: models.synthesized,
        built: &OPTIMIZED_BUILT,
        probe: p,
    };
    let cached = caches.map(|(b, o)| {
        (
            CachedCostModel::new(&base, b),
            CachedCostModel::new(&opt, o),
        )
    });
    let (b, o): (&dyn CostModel, &dyn CostModel) = match &cached {
        Some((b, o)) => (b, o),
        None => (&base, &opt),
    };
    let _span = p.rec.span_labeled("schedule", || job.name.to_string());
    evaluate_with_calibration(
        job.name,
        items,
        swaps,
        &Lookups { inner: b, probe: p },
        &Lookups { inner: o, probe: p },
        job.map.n_qubits(),
        job.circuit.n_qubits(),
        config.fidelity,
        job.calibration,
    )
}

/// Replays one job through the engine's pipeline stages.
fn replay_job(
    p: &Probe,
    job: &Job<'_>,
    config: &EngineConfig,
    models: &Models,
    caches: Option<(&DecompositionCache, &DecompositionCache)>,
) -> Result<JobReplay, String> {
    let fail = |e: &dyn std::fmt::Display| format!("replay of `{}` failed: {e}", job.name);
    let oracle = match job.calibration {
        Some(cal) => {
            cal.validate_for(job.map).map_err(|e| fail(&e))?;
            config
                .noise_aware
                .then(|| NoiseOracle::new(job.map, cal, RouterOptions::default()))
        }
        None => None,
    };
    let mut routes: Vec<Routed> = Vec::new();
    for seed in 0..config.routing_seeds.max(1) {
        let _span = p
            .rec
            .span_labeled("route", || format!("{}#{seed}", job.name));
        let routed = route_with_oracle(
            job.circuit,
            job.map,
            oracle.as_ref(),
            seed,
            RouterOptions::default(),
        )
        .map_err(|e| fail(&e))?;
        p.rec.add("route.calls", 1);
        p.rec.add("route.swaps", routed.swaps_inserted as u64);
        routes.push(routed);
    }
    // The engine's best-seed rule: highest gate-error survival first
    // (1.0 everywhere without a calibration), then fewest SWAPs, then the
    // earliest seed.
    let best = {
        let _span = p.rec.span_labeled("select", || job.name.to_string());
        let mut best: Option<(Routed, f64)> = None;
        for routed in routes {
            let survival = job
                .calibration
                .map_or(1.0, |c| c.routed_survival(&routed.circuit));
            if best.as_ref().is_none_or(|(b, s)| {
                survival > *s || (survival == *s && routed.swaps_inserted < b.swaps_inserted)
            }) {
                best = Some((routed, survival));
            }
        }
        best.expect("at least one routing seed").0
    };
    let items = {
        let _span = p.rec.span_labeled("consolidate", || job.name.to_string());
        consolidate(&best.circuit).map_err(|e| fail(&e))?
    };
    let blocks = items
        .iter()
        .filter(|i| matches!(i, Item::Block { .. }))
        .count();
    p.rec.add("consolidate.blocks", blocks as u64);
    let verification = (config.verify != VerifyLevel::Off).then(|| {
        let stage = if config.verify == VerifyLevel::Sampled {
            "verify.sampled"
        } else {
            "verify.mps"
        };
        let _span = p.rec.span_labeled(stage, || job.name.to_string());
        let cfg = config
            .verify_config()
            .seed(config.verify_seed ^ fnv1a(job.name.as_bytes()));
        verify(
            job.circuit,
            &Physical::Consolidated {
                items: &items,
                n_qubits: job.map.n_qubits(),
            },
            &best.layout,
            &cfg,
        )
        .unwrap_or_else(|e| Verification::Error {
            reason: e.to_string(),
        })
    });
    match &verification {
        Some(Verification::Sampled { samples, .. }) => {
            p.rec.add("verify.samples", *samples as u64);
            if config.verify == VerifyLevel::Mps {
                p.rec.add("verify.escalations", 1);
            }
        }
        Some(Verification::Mps { max_bond_used, .. }) => {
            p.rec
                .add(&format!("verify.bond.{}", job.name), *max_bond_used as u64);
        }
        _ => {}
    }
    let result = schedule_stage(p, job, &items, best.swaps_inserted, config, models, caches);
    Ok(JobReplay {
        report: CircuitReport {
            result,
            topology: job.map.label().to_string(),
            calibration: job
                .calibration
                .map_or_else(|| "uniform".to_string(), |c| c.label().to_string()),
            routed: None,
            verification,
            route_time: Duration::ZERO,
            pipeline_time: Duration::ZERO,
        },
        routed: best.circuit,
        items,
    })
}

/// Replays one engine batch job by job, through `caches` when given.
fn replay_batch(
    p: &Probe,
    input: &EngineInput,
    caches: Option<(&DecompositionCache, &DecompositionCache)>,
) -> Result<EngineReport, String> {
    let models = Models::new(&input.config);
    let mut circuits = Vec::with_capacity(input.batch.len());
    for (j, spec) in input.batch.jobs().iter().enumerate() {
        let job = Job {
            name: &spec.name,
            circuit: &spec.circuit,
            map: input.batch.map_for(j),
            calibration: input.batch.calibration_for(j),
        };
        circuits.push(replay_job(p, &job, &input.config, &models, caches)?.report);
    }
    Ok(EngineReport {
        circuits,
        threads: 1,
        wall_clock: Duration::ZERO,
        baseline_cache: None,
        optimized_cache: None,
        trace: Trace::default(),
    })
}

/// A fleet job's adopted transpilation (see `paradrive_engine::run_fleet`).
struct Adopted {
    routed: Circuit,
    items: Vec<Item>,
    swaps: usize,
    survival: f64,
    verification: Option<Verification>,
}

/// Replays a drifted sweep: timelines, then `run_fleet`'s epoch loop
/// (policy decisions, re-transpiles through the engine stages, kept jobs
/// re-scored), then the cells re-folded through [`RunRollup`] and
/// rendered.
fn replay_fleet(p: &Probe, spec: &SweepSpec) -> Result<String, String> {
    let plan = {
        let _span = p.rec.span("sweep.plan");
        SweepPlan::new(spec).map_err(|e| e.to_string())?
    };
    let scenario = plan
        .drift()
        .ok_or("the fleet workload's spec has no drift")?;
    let &[(costing, verify_level)] = plan.runs() else {
        return Err("the fleet replay covers one (costing, verification) run".to_string());
    };
    let config = EngineConfig::default()
        .threads(spec.threads)
        .routing_seeds(spec.routing_seeds)
        .cache(spec.cache)
        .costing(costing)
        .noise_aware(spec.noise_aware)
        .verify(verify_level);
    let models = Models::new(&config);
    let caches = spec
        .cache
        .then(|| (DecompositionCache::new(), DecompositionCache::new()));
    let cache_refs = caches.as_ref().map(|(b, o)| (b, o));

    // One fleet job per (topology, calibration, seed, benchmark), riding a
    // timeline walked per (topology, calibration) pair with the planner's
    // seed rule.
    let key_of = |c: &PlannedCell| (c.topology, c.calibration, c.suite_seed, c.benchmark);
    let mut reps: Vec<&PlannedCell> = Vec::new();
    for cell in plan.cells() {
        if !reps.iter().any(|r| key_of(r) == key_of(cell)) {
            reps.push(cell);
        }
    }
    let mut timelines: BTreeMap<(usize, usize), Arc<CalibrationTimeline>> = BTreeMap::new();
    for cell in &reps {
        if timelines.contains_key(&(cell.topology, cell.calibration)) {
            continue;
        }
        let (map, cal) = (plan.map(cell), plan.calibration(cell));
        let _span = p
            .rec
            .span_labeled("drift.timeline", || cal.label().to_string());
        let seed = spec.drift_seed ^ fnv1a(format!("{}|{}", map.label(), cal.label()).as_bytes());
        let timeline = CalibrationTimeline::generate(cal, map, &scenario.spec(spec.epochs, seed))
            .map_err(|e| e.to_string())?;
        timelines.insert((cell.topology, cell.calibration), Arc::new(timeline));
    }

    let mut adopted: Vec<Option<Adopted>> = reps.iter().map(|_| None).collect();
    // results[epoch][job] = (decision, report, depth)
    let mut results: Vec<Vec<(EpochDecision, CircuitReport, usize)>> = Vec::new();
    for epoch in 0..spec.epochs {
        let decisions: Vec<EpochDecision> = {
            let _span = p.rec.span("policy");
            reps.iter()
                .enumerate()
                .map(|(j, cell)| {
                    let Some(cached) = &adopted[j] else {
                        return EpochDecision::Fresh;
                    };
                    let timeline = &timelines[&(cell.topology, cell.calibration)];
                    let now = timeline.snapshot(epoch).routed_survival(&cached.routed);
                    let loss = (1.0 - now / cached.survival).max(0.0);
                    match spec.policy {
                        RetranspilePolicy::Never => EpochDecision::Kept,
                        RetranspilePolicy::Always => EpochDecision::Retranspiled,
                        RetranspilePolicy::Adaptive { max_fidelity_loss } => {
                            if loss > max_fidelity_loss {
                                EpochDecision::Retranspiled
                            } else {
                                EpochDecision::Kept
                            }
                        }
                    }
                })
                .collect()
        };
        let mut row = Vec::with_capacity(reps.len());
        for (j, cell) in reps.iter().enumerate() {
            let (bench, circuit) = plan.benchmark(cell);
            let name = format!("{}@{}", bench, plan.suite_seed(cell));
            let timeline = &timelines[&(cell.topology, cell.calibration)];
            let job = Job {
                name: &name,
                circuit,
                map: plan.map(cell),
                calibration: Some(timeline.snapshot(epoch)),
            };
            let decision = decisions[j];
            let report = if decision == EpochDecision::Kept {
                p.rec.add("policy.kept", 1);
                let cached = adopted[j].as_ref().expect("kept jobs were adopted");
                CircuitReport {
                    result: schedule_stage(
                        p,
                        &job,
                        &cached.items,
                        cached.swaps,
                        &config,
                        &models,
                        cache_refs,
                    ),
                    topology: job.map.label().to_string(),
                    calibration: timeline.snapshot(epoch).label().to_string(),
                    routed: Some(cached.routed.clone()),
                    verification: cached.verification.clone(),
                    route_time: Duration::ZERO,
                    pipeline_time: Duration::ZERO,
                }
            } else {
                if decision == EpochDecision::Retranspiled {
                    p.rec.add("policy.retranspiled", 1);
                }
                let replayed = replay_job(p, &job, &config, &models, cache_refs)?;
                let survival = timeline.snapshot(epoch).routed_survival(&replayed.routed);
                let mut report = replayed.report;
                report.routed = Some(replayed.routed.clone());
                adopted[j] = Some(Adopted {
                    routed: replayed.routed,
                    items: replayed.items,
                    swaps: report.result.swaps,
                    survival,
                    verification: report.verification.clone(),
                });
                report
            };
            let depth = report.routed.as_ref().map_or(0, |c| c.depth());
            row.push((decision, report, depth));
        }
        results.push(row);
    }
    if let Some((b, o)) = cache_refs {
        let (b, o) = (b.stats(), o.stats());
        p.rec.add("cache.hits", b.hits + o.hits);
        p.rec.add("cache.misses", b.misses + o.misses);
    }

    let cells: Vec<SweepCell> = plan
        .cells()
        .iter()
        .map(|planned| {
            let job = reps
                .iter()
                .position(|r| key_of(r) == key_of(planned))
                .expect("every planned cell keys a fleet job");
            let (decision, report, depth) = &results[planned.epoch][job];
            let r = &report.result;
            SweepCell {
                ordinal: planned.id.ordinal,
                digest: planned.id.digest,
                topology: report.topology.clone(),
                calibration: report.calibration.clone(),
                benchmark: plan.benchmark(planned).0.clone(),
                costing: costing_label(costing),
                verify: verify_level.label(),
                verification: report.verification.clone(),
                suite_seed: plan.suite_seed(planned),
                epoch: planned.epoch,
                decision: decision.label(),
                swaps: r.swaps,
                depth: *depth,
                blocks: r.blocks,
                baseline_duration: r.baseline_duration,
                optimized_duration: r.optimized_duration,
                reduction_pct: r.duration_reduction_pct,
                ft_improvement_pct: r.ft_improvement_pct,
                optimized_ft: r.optimized_total_fidelity,
                wall: Duration::ZERO,
            }
        })
        .collect();
    let run = {
        let _span = p.rec.span("sweep.rollup");
        let mut rollup = RunRollup::new();
        for cell in &cells {
            rollup.absorb(cell);
        }
        SweepRun {
            costing: costing_label(costing),
            verify: verify_level.label(),
            threads: 0,
            wall_clock: Duration::ZERO,
            cache: None,
            by_topology: rollup.by_topology(),
            by_calibration: rollup.by_calibration(),
            verification: rollup.verification(),
            fleet: rollup.fleet(),
            trace: Trace::default(),
        }
    };
    let outcome = SweepOutcome {
        fingerprint: plan.fingerprint(),
        shards: 1,
        shard: 0,
        cells,
        runs: vec![run],
    };
    let render = {
        let _span = p.rec.span("sweep.render");
        outcome.render()
    };
    Ok(project_sweep(&outcome, &render))
}

/// Replay state kept across requests: `synth_warm`'s replay has its own
/// warm cache pair, mirroring the one its engine runs share.
struct Replayer<'a> {
    inputs: &'a Inputs,
    warm: (DecompositionCache, DecompositionCache),
}

/// One replayed request: its projection, latency and drained trace.
struct Replayed {
    projection: String,
    latency: Duration,
    trace: Trace,
}

impl Replayer<'_> {
    /// Replays one request; with `traced` off the recorder is disabled
    /// and the cost wrappers skip their clocks, for the overhead baseline.
    fn replay(&self, traced: bool) -> Result<Replayed, String> {
        let p = Probe::new(traced);
        paradrive_obs::global().set_enabled(traced);
        let started = Instant::now();
        let projection = {
            let _span = p.rec.span("request");
            match self.inputs {
                Inputs::Batches(inputs) => {
                    let mut out = String::new();
                    let (mut hits, mut misses) = (0, 0);
                    for input in inputs {
                        let caches = input
                            .config
                            .cache
                            .then(|| (DecompositionCache::new(), DecompositionCache::new()));
                        let report = replay_batch(&p, input, caches.as_ref().map(|(b, o)| (b, o)))?;
                        out.push_str(&project_engine(&report));
                        if let Some((b, o)) = &caches {
                            let stats = b.stats().merged(o.stats());
                            hits += stats.hits;
                            misses += stats.misses;
                        }
                    }
                    p.rec.add("cache.hits", hits);
                    p.rec.add("cache.misses", misses);
                    out
                }
                Inputs::Sweep(spec) => replay_fleet(&p, spec)?,
                Inputs::Warm { input, .. } => {
                    let (b, o) = (&self.warm.0, &self.warm.1);
                    let before = b.stats().merged(o.stats());
                    let report = replay_batch(&p, input, Some((b, o)))?;
                    let after = b.stats().merged(o.stats());
                    p.rec.add("cache.hits", after.hits - before.hits);
                    p.rec.add("cache.misses", after.misses - before.misses);
                    project_engine(&report)
                }
            }
        };
        let latency = started.elapsed();
        paradrive_obs::global().set_enabled(false);
        let mut trace = p.rec.take();
        trace.merge(paradrive_obs::global().take());
        Ok(Replayed {
            projection,
            latency,
            trace,
        })
    }
}

/// Summed duration of every span named `stage`, nanoseconds.
fn stage_ns(trace: &Trace, stage: &str) -> u64 {
    trace
        .spans
        .iter()
        .filter(|s| s.name == stage)
        .map(|s| s.dur_ns)
        .sum()
}

fn counter(trace: &Trace, name: &str) -> u64 {
    trace.counter(name).unwrap_or(0)
}

/// A per-layer metric: its value and unit.
type Metric = (f64, &'static str);

/// The deterministic work counts of one replayed request; they must
/// repeat exactly on every request of a run.
fn counts(trace: &Trace) -> BTreeMap<&'static str, Metric> {
    let c = |name| counter(trace, name) as f64;
    let hits = c("cache.hits");
    let lookups = hits + c("cache.misses");
    let kept = c("policy.kept");
    let decided = kept + c("policy.retranspiled");
    let max_bond = trace
        .counters
        .iter()
        .filter(|(n, _)| n.starts_with("verify.bond."))
        .map(|(_, v)| *v)
        .max()
        .unwrap_or(0);
    BTreeMap::from([
        ("route.calls", (c("route.calls"), "count")),
        ("route.swaps", (c("route.swaps"), "count")),
        ("consolidate.blocks", (c("consolidate.blocks"), "count")),
        ("cost.lookups", (c("cost.lookups"), "count")),
        ("cost.general", (c("cost.general"), "count")),
        ("cache.hits", (hits, "count")),
        ("cache.misses", (c("cache.misses"), "count")),
        (
            "cache.hit_rate",
            (if lookups > 0.0 { hits / lookups } else { 0.0 }, "ratio"),
        ),
        ("verify.samples", (c("verify.samples"), "count")),
        ("verify.escalations", (c("verify.escalations"), "count")),
        ("verify.mps_max_bond", (max_bond as f64, "count")),
        ("sim.kernel.1q.scalar", (c("sim.kernel.1q.scalar"), "count")),
        ("sim.kernel.1q.lanes", (c("sim.kernel.1q.lanes"), "count")),
        ("sim.kernel.2q.scalar", (c("sim.kernel.2q.scalar"), "count")),
        ("sim.kernel.2q.lanes", (c("sim.kernel.2q.lanes"), "count")),
        ("policy.retranspiled", (c("policy.retranspiled"), "count")),
        ("policy.kept", (kept, "count")),
        (
            "policy.route_reuse_rate",
            (if decided > 0.0 { kept / decided } else { 0.0 }, "ratio"),
        ),
    ])
}

/// The busy times of one replayed request, milliseconds. Cost lookups
/// exclude the coverage build and synthesis inside them; `schedule` is
/// self time, with the cost lookups excluded.
fn busy_ms(trace: &Trace) -> BTreeMap<&'static str, f64> {
    let ms = |ns: u64| ns as f64 / 1e6;
    let lookup_ns = counter(trace, "cost.ns");
    let inner_ns = counter(trace, "coverage.build_ns") + counter(trace, "synth.ns");
    BTreeMap::from([
        ("route.busy_ms", ms(stage_ns(trace, "route"))),
        ("consolidate.busy_ms", ms(stage_ns(trace, "consolidate"))),
        ("cost.busy_ms", ms(lookup_ns.saturating_sub(inner_ns))),
        (
            "schedule.busy_ms",
            ms(stage_ns(trace, "schedule").saturating_sub(lookup_ns)),
        ),
        ("verify.sampled_ms", ms(stage_ns(trace, "verify.sampled"))),
        ("verify.mps_ms", ms(stage_ns(trace, "verify.mps"))),
        ("drift.timeline_ms", ms(stage_ns(trace, "drift.timeline"))),
        ("sweep.rollup_ms", ms(stage_ns(trace, "sweep.rollup"))),
        ("sweep.render_ms", ms(stage_ns(trace, "sweep.render"))),
    ])
}

fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The traced run: a cold replay (which pays the coverage build and the
/// synthesis), the library's own cold request, then steady-state rounds
/// of traced replay, untraced replay and library request until `seconds`
/// have passed. Writes the Chrome trace of the cold and first steady
/// replays to `trace_out` and returns the result JSON.
pub fn trace_run(
    workload: Workload,
    seeds: Seeds,
    seconds: f64,
    trace_out: &str,
) -> Result<String, String> {
    let inputs = Inputs::new(workload, seeds);
    let replayer = Replayer {
        inputs: &inputs,
        warm: (DecompositionCache::new(), DecompositionCache::new()),
    };
    // The replay goes first, so the lazy coverage build lands in its
    // `coverage.build` span rather than in the engine's workers.
    let cold = replayer.replay(true)?;
    let engine = inputs.request();
    signal_setup_done();
    let engine = engine.check();
    let mut tally = Tally::new(&engine.projection);
    let mismatch = |replayed: &Replayed, engine: &Checked| {
        (replayed.projection != engine.projection)
            .then(|| "replay differs from the library's own run".to_string())
            .into_iter()
            .collect::<Vec<_>>()
    };
    tally.record(&engine, mismatch(&cold, &engine));
    let mut export = cold.trace.clone();

    let mut first_counts: Option<BTreeMap<&'static str, Metric>> = None;
    let mut busy: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let (mut traced_ms, mut untraced_ms) = (Vec::new(), Vec::new());
    let (mut idle_ms, mut wait_ms) = (Vec::new(), Vec::new());
    let started = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    while traced_ms.is_empty() || started.elapsed() < budget {
        let on = replayer.replay(true)?;
        let off = replayer.replay(false)?;
        let engine = inputs.request().check();
        let mut extra = mismatch(&on, &engine);
        extra.extend(mismatch(&off, &engine));
        let request_counts = counts(&on.trace);
        match &first_counts {
            None => first_counts = Some(request_counts),
            Some(first) if *first != request_counts => {
                extra.push("deterministic counts changed between requests".to_string());
            }
            Some(_) => {}
        }
        tally.record(&engine, extra);
        for (name, v) in busy_ms(&on.trace) {
            busy.entry(name).or_default().push(v);
        }
        traced_ms.push(on.latency.as_secs_f64() * 1e3);
        untraced_ms.push(off.latency.as_secs_f64() * 1e3);
        idle_ms.push(engine.idle_ns as f64 / 1e6);
        wait_ms.push(engine.wait_ns as f64 / 1e6);
        if traced_ms.len() == 1 {
            let mut steady = on.trace;
            steady.shift(export.end_ns());
            steady.prefix_counters("steady.");
            export.merge(steady);
        }
    }
    export
        .write_chrome(trace_out)
        .map_err(|e| format!("cannot write trace {trace_out}: {e}"))?;

    let cold_s = |name| counter(&cold.trace, name) as f64 / 1e9;
    let (on, off) = (median(&mut traced_ms), median(&mut untraced_ms));
    let mut metrics: Vec<(&'static str, Metric)> = vec![
        ("coverage.build_s", (cold_s("coverage.build_ns"), "s")),
        (
            "synth.calls",
            (counter(&cold.trace, "synth.calls") as f64, "count"),
        ),
        ("synth.busy_s", (cold_s("synth.ns"), "s")),
        ("engine.idle_ms", (median(&mut idle_ms), "ms")),
        ("cache.wait_ms", (median(&mut wait_ms), "ms")),
        ("trace.overhead_pct", ((on - off) / off * 100.0, "%")),
    ];
    metrics.extend(first_counts.expect("at least one steady request"));
    metrics.extend(
        busy.into_iter()
            .map(|(name, mut values)| (name, (median(&mut values), "ms"))),
    );
    metrics.sort_by_key(|(name, _)| *name);

    Ok(format!(
        "{{{},\"rounds\":{},\"replay_ms\":{},\"metrics\":{{{}}}}}",
        tally.json_fields(),
        traced_ms.len(),
        json_f64(on),
        metrics
            .iter()
            .map(|(name, (value, unit))| format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_f64(*value)
            ))
            .collect::<Vec<_>>()
            .join(","),
    ))
}
