//! Shard execution: drives the planned grid through the streaming engine
//! (or, on drifted sweeps, the streaming fleet replay), turning every
//! report into a compact cell as it lands.
//!
//! This is the layer that keeps the sweep's report memory O(in-flight)
//! instead of O(grid): [`run_sweep_shard`] hands the engine a
//! [`paradrive_engine::JobSink`] (the fleet a sink of the same shape)
//! that converts every [`paradrive_engine::CircuitReport`] into a
//! [`SweepCell`] on the worker that finished it, dropping the routed
//! circuit after reading its depth, and optionally journals it — the full
//! report is never retained. Cells land, and are journaled, in completion
//! order.
//!
//! Every outcome then takes one tail, whether its cells ran, were
//! restored by `--resume` or came from shard reports: the cells sort by
//! ordinal, and each run's cells fold through [`RunRollup`] once, in that
//! order. Sharding rides on the deterministic cell identity from
//! [`super::cell`]: `--shards N --shard i` selects the cells whose
//! ordinal ≡ i (mod N), and [`merge_reports`] recombines any complete
//! set of shard reports into a [`SweepOutcome`] whose rendered report is
//! byte-identical to a single-process run, because both fold the same
//! cells in the same order.

use super::cell::{costing_label, PlannedCell, SweepCell, SweepPlan};
use super::checkpoint::{Journal, JournalContents, Meta};
use super::rollup::{RunRollup, SweepRun};
use super::spec::{SweepError, SweepSpec};
use paradrive_engine::{
    run_batch_streaming, run_fleet, Batch, BatchSummary, CircuitReport, Costing, EngineConfig,
    FleetJob, Trace, VerifyLevel,
};
use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// How to slice and persist a sweep run.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardOptions<'a> {
    /// Total shard count (`0`/`1` both mean unsharded).
    pub shards: usize,
    /// This process's shard index in `0..shards`.
    pub shard: usize,
    /// Append each completed cell to this journal file.
    pub journal: Option<&'a Path>,
    /// Restore completed cells from an existing journal at `journal`
    /// instead of truncating it, and skip re-running them.
    pub resume: bool,
}

/// Everything a sweep produced: per-cell rows plus per-run aggregates.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// The spec fingerprint the cells belong to (see
    /// [`SweepPlan::fingerprint`]).
    pub fingerprint: u64,
    /// Total shard count this outcome was produced under (1 for an
    /// unsharded or merged outcome).
    pub shards: usize,
    /// Which shard this outcome covers (0 for unsharded or merged).
    pub shard: usize,
    /// All cells in canonical ordinal order — for an unsharded run this
    /// is costing → verification → topology → calibration → seed →
    /// benchmark, exactly the legacy submission order.
    pub cells: Vec<SweepCell>,
    /// One entry per (costing, verification) engine run.
    pub runs: Vec<SweepRun>,
}

/// Runs the full cross-product described by `spec` — one streaming
/// engine batch per (costing, verification) pair.
///
/// # Errors
///
/// Returns [`SweepError`] for unknown axis values and propagates engine
/// failures (e.g. a benchmark wider than a topology).
pub fn run_sweep(spec: &SweepSpec) -> Result<SweepOutcome, SweepError> {
    run_sweep_shard(spec, &ShardOptions::default())
}

/// Mutable state shared with the engine's worker threads through the
/// job sink: completed cells and the journal. The sink cannot return
/// errors, so journal failures park here and surface once the run
/// drains.
struct SinkState<'a> {
    cells: Vec<SweepCell>,
    journal: Option<&'a mut Journal>,
    journal_err: Option<SweepError>,
}

impl<'a> SinkState<'a> {
    fn new(journal: Option<&'a mut Journal>, capacity: usize) -> Mutex<Self> {
        Mutex::new(SinkState {
            cells: Vec::with_capacity(capacity),
            journal,
            journal_err: None,
        })
    }

    /// Journals `cell` as it arrives and keeps it.
    fn land(&mut self, cell: SweepCell) {
        if self.journal_err.is_none() {
            if let Some(journal) = self.journal.as_mut() {
                if let Err(e) = journal.append(&cell) {
                    self.journal_err = Some(e);
                }
            }
        }
        self.cells.push(cell);
    }

    /// The landed cells, or the first journal failure.
    fn finish(state: Mutex<Self>) -> Result<Vec<SweepCell>, SweepError> {
        let state = state.into_inner().expect("sweep sink state poisoned");
        match state.journal_err {
            Some(e) => Err(e),
            None => Ok(state.cells),
        }
    }
}

/// The cell a planned grid point became: the engine's report for it,
/// under `run`'s (costing, verification) pair, with the fleet `decision`
/// (`"-"` on static runs). The routed circuit is read for its depth and
/// dropped here, so peak retention stays proportional to in-flight jobs.
/// Wall time starts at zero: static runs patch it from the trace, and
/// fleet cells stay untimed.
fn cell_of(
    plan: &SweepPlan,
    planned: &PlannedCell,
    (costing, verify): (Costing, VerifyLevel),
    decision: &'static str,
    report: CircuitReport,
) -> SweepCell {
    let r = &report.result;
    SweepCell {
        ordinal: planned.id.ordinal,
        digest: planned.id.digest,
        depth: report.routed.as_ref().map_or(0, |c| c.depth()),
        topology: report.topology,
        calibration: report.calibration,
        // The plan's benchmark name, not the job's: fleet jobs carry an
        // `@seed` suffix for trace readability.
        benchmark: plan.benchmark(planned).0.clone(),
        costing: costing_label(costing),
        verify: verify.label(),
        verification: report.verification,
        suite_seed: plan.suite_seed(planned),
        epoch: planned.epoch,
        decision,
        swaps: r.swaps,
        blocks: r.blocks,
        baseline_duration: r.baseline_duration,
        optimized_duration: r.optimized_duration,
        reduction_pct: r.duration_reduction_pct,
        ft_improvement_pct: r.ft_improvement_pct,
        optimized_ft: r.optimized_total_fidelity,
        wall: Duration::ZERO,
    }
}

/// Names the first axis label of a restored or merged `cell` that
/// disagrees with `planned`, the plan's cell at the same ordinal. The
/// ordinal and digest agree already, so a disagreeing label means the
/// file was edited and none of its fields can be trusted.
fn label_mismatch(plan: &SweepPlan, planned: &PlannedCell, cell: &SweepCell) -> Option<String> {
    let (costing, verify) = plan.runs()[planned.run];
    let labels: [(&str, String, String); 7] = [
        (
            "topology",
            cell.topology.clone(),
            plan.map(planned).label().to_string(),
        ),
        (
            "calibration",
            cell.calibration.clone(),
            plan.calibration(planned).label().to_string(),
        ),
        (
            "benchmark",
            cell.benchmark.clone(),
            plan.benchmark(planned).0.clone(),
        ),
        (
            "costing",
            cell.costing.to_string(),
            costing_label(costing).to_string(),
        ),
        (
            "verify",
            cell.verify.to_string(),
            verify.label().to_string(),
        ),
        (
            "suite seed",
            cell.suite_seed.to_string(),
            plan.suite_seed(planned).to_string(),
        ),
        ("epoch", cell.epoch.to_string(), planned.epoch.to_string()),
    ];
    labels
        .into_iter()
        .find(|(_, got, want)| got != want)
        .map(|(field, got, want)| {
            format!(
                "cell {} has {field} `{got}`, plan expects `{want}`",
                cell.ordinal
            )
        })
}

/// A run's aggregate: its folded rollup plus the engine's diagnostics
/// when the run executed. Fully restored runs and merges pass `None` and
/// report no threads, wall clock, cache or trace.
fn sweep_run(
    (costing, verify): (Costing, VerifyLevel),
    rollup: &RunRollup,
    summary: Option<BatchSummary>,
) -> SweepRun {
    let (threads, wall_clock, cache, trace) = match summary {
        Some(s) => (s.threads, s.wall_clock, s.cache_stats(), s.trace),
        None => (0, Duration::ZERO, None, Trace::default()),
    };
    SweepRun {
        costing: costing_label(costing),
        verify: verify.label(),
        threads,
        wall_clock,
        cache,
        by_topology: rollup.by_topology(),
        by_calibration: rollup.by_calibration(),
        verification: rollup.verification(),
        fleet: rollup.fleet(),
        trace,
    }
}

/// The tail every outcome takes, executed, resumed, restored or merged:
/// sorts `cells` by ordinal, which fixes output order, then folds each
/// run's cells through one [`RunRollup`] in that order. `summaries`
/// holds each run's engine diagnostics, in run order.
fn fold_outcome(
    plan: &SweepPlan,
    (shards, shard): (usize, usize),
    mut cells: Vec<SweepCell>,
    summaries: Vec<Option<BatchSummary>>,
) -> SweepOutcome {
    cells.sort_by_key(|c| c.ordinal);
    let mut rollups = vec![RunRollup::new(); plan.runs().len()];
    for cell in &cells {
        // A cell's ordinal is its index in the plan.
        rollups[plan.cells()[cell.ordinal as usize].run].absorb(cell);
    }
    let runs = plan
        .runs()
        .iter()
        .zip(&rollups)
        .zip(summaries)
        .map(|((&run, rollup), summary)| sweep_run(run, rollup, summary))
        .collect();
    SweepOutcome {
        fingerprint: plan.fingerprint(),
        shards,
        shard,
        cells,
        runs,
    }
}

/// Runs one shard of the cross-product (see [`ShardOptions`]); with the
/// default options this is the whole grid.
///
/// # Errors
///
/// Everything [`run_sweep`] returns, plus shard/journal problems:
/// [`SweepError::ShardOutOfRange`], journal I/O errors, and
/// [`SweepError::SpecMismatch`] when `--resume` finds a journal written
/// by a different spec or shard.
pub fn run_sweep_shard(
    spec: &SweepSpec,
    opts: &ShardOptions<'_>,
) -> Result<SweepOutcome, SweepError> {
    let plan = SweepPlan::new(spec)?;
    let shards = opts.shards.max(1);
    if opts.shard >= shards {
        return Err(SweepError::ShardOutOfRange {
            shard: opts.shard,
            shards,
        });
    }
    let meta = Meta {
        fingerprint: plan.fingerprint(),
        shards,
        shard: opts.shard,
    };

    // Open the journal (restoring prior completions under --resume) and
    // validate every restored cell against the plan: the fingerprint
    // already matched, so a bad ordinal or digest means the file was
    // edited or the planner changed underneath it.
    let (mut journal, restored) = match opts.journal {
        Some(path) if opts.resume => {
            let (journal, cells) = Journal::resume(path, meta)?;
            (Some(journal), cells)
        }
        Some(path) => (Some(Journal::create(path, meta)?), Vec::new()),
        None => (None, Vec::new()),
    };
    let mut restored_by_ordinal: HashMap<u64, SweepCell> = HashMap::new();
    for cell in restored {
        let journal_path = || {
            opts.journal
                .map(|p| p.display().to_string())
                .unwrap_or_default()
        };
        let planned = usize::try_from(cell.ordinal)
            .ok()
            .and_then(|i| plan.cells().get(i))
            .ok_or_else(|| SweepError::SpecMismatch {
                path: journal_path(),
                reason: format!(
                    "journal cell ordinal {} is outside the planned grid",
                    cell.ordinal
                ),
            })?;
        if planned.id.digest != cell.digest {
            return Err(SweepError::SpecMismatch {
                path: journal_path(),
                reason: format!(
                    "journal cell {} has digest {:016x}, plan expects {:016x}",
                    cell.ordinal, cell.digest, planned.id.digest
                ),
            });
        }
        if let Some(reason) = label_mismatch(&plan, planned, &cell) {
            return Err(SweepError::SpecMismatch {
                path: journal_path(),
                reason: format!("journal {reason}"),
            });
        }
        if planned.id.shard(shards) != opts.shard {
            return Err(SweepError::SpecMismatch {
                path: journal_path(),
                reason: format!(
                    "journal cell {} belongs to shard {}, this run is shard {}",
                    cell.ordinal,
                    planned.id.shard(shards),
                    opts.shard
                ),
            });
        }
        restored_by_ordinal.insert(cell.ordinal, cell);
    }

    let shard_cells = plan.shard_cells(shards, opts.shard);
    let mut summaries = Vec::with_capacity(plan.runs().len());
    let mut cells: Vec<SweepCell> = Vec::with_capacity(shard_cells.len());
    for (run_idx, &run) in plan.runs().iter().enumerate() {
        // Restored cells join the run as they are; they are grid cells
        // like any other, just with no wall time and no fresh engine work.
        let mut pending: Vec<&PlannedCell> = Vec::new();
        for cell in shard_cells.iter().filter(|c| c.run == run_idx) {
            match restored_by_ordinal.remove(&cell.id.ordinal) {
                Some(done) => cells.push(done),
                None => pending.push(cell),
            }
        }
        // Fully restored runs (or empty shard slices) skip the engine.
        summaries.push(if pending.is_empty() {
            None
        } else {
            let (costing, verify) = run;
            let config = EngineConfig::default()
                .threads(spec.threads)
                .routing_seeds(spec.routing_seeds)
                .cache(spec.cache)
                .costing(costing)
                .noise_aware(spec.noise_aware)
                .verify(verify)
                .keep_routed(true);
            let journal = journal.as_mut();
            Some(if plan.drift().is_some() {
                run_fleet_cells(&plan, run, &pending, &config, journal, &mut cells)?
            } else {
                run_batch_cells(&plan, run, &pending, &config, journal, &mut cells)?
            })
        });
    }

    if let Some(journal) = journal.as_mut() {
        journal.finish(shard_cells.len())?;
    }
    Ok(fold_outcome(&plan, (shards, opts.shard), cells, summaries))
}

/// Drift path: one fleet replay per run. Each distinct (topology,
/// calibration, seed, benchmark) tuple with at least one pending cell
/// becomes a fleet job, and the whole timeline re-runs — a fleet replay
/// is a pure function of the spec — but only pending cells are kept, so
/// shard/merge/resume stay byte-identical to an unsharded run. Cells are
/// journaled as they complete.
fn run_fleet_cells(
    plan: &SweepPlan,
    run: (Costing, VerifyLevel),
    pending: &[&PlannedCell],
    config: &EngineConfig,
    journal: Option<&mut Journal>,
    out: &mut Vec<SweepCell>,
) -> Result<BatchSummary, SweepError> {
    let key_of = |c: &PlannedCell| (c.topology, c.calibration, c.suite_seed, c.benchmark);
    let mut reps: Vec<&PlannedCell> = Vec::new();
    let mut pending_at: HashMap<(usize, usize), &PlannedCell> = HashMap::new();
    for &cell in pending {
        let job = match reps.iter().position(|r| key_of(r) == key_of(cell)) {
            Some(job) => job,
            None => {
                reps.push(cell);
                reps.len() - 1
            }
        };
        pending_at.insert((cell.epoch, job), cell);
    }
    let jobs: Vec<FleetJob> = reps
        .iter()
        .map(|cell| {
            let (name, circuit) = plan.benchmark(cell);
            FleetJob {
                name: format!("{}@{}", name, plan.suite_seed(cell)),
                circuit: circuit.clone(),
                map: Arc::clone(plan.map(cell)),
                timeline: Arc::clone(plan.timeline(cell).expect("drift sweeps plan timelines")),
            }
        })
        .collect();
    let state = SinkState::new(journal, pending.len());
    let summary = run_fleet(
        &jobs,
        config,
        &plan.spec().policy,
        &|epoch, job, decision, report| {
            if let Some(planned) = pending_at.get(&(epoch, job)) {
                let cell = cell_of(plan, planned, run, decision.label(), report);
                state.lock().expect("sweep sink state poisoned").land(cell);
            }
        },
    )?;
    out.extend(SinkState::finish(state)?);
    Ok(summary)
}

/// Static path: one heterogeneous batch per run, in ordinal order,
/// sharing each topology's distance matrix and calibration table across
/// cells. Cells are journaled as they complete; afterwards each gets its
/// wall time from the trace, and the trace's spans get cell labels.
fn run_batch_cells(
    plan: &SweepPlan,
    run: (Costing, VerifyLevel),
    pending: &[&PlannedCell],
    config: &EngineConfig,
    journal: Option<&mut Journal>,
    out: &mut Vec<SweepCell>,
) -> Result<BatchSummary, SweepError> {
    let mut batch = Batch::with_shared(Arc::clone(plan.map(pending[0])));
    for cell in pending {
        let (name, circuit) = plan.benchmark(cell);
        batch.push_calibrated(
            name.clone(),
            circuit.clone(),
            Arc::clone(plan.map(cell)),
            Arc::clone(plan.calibration(cell)),
        );
    }

    let state = SinkState::new(journal, pending.len());
    let sink = |job: usize, report: CircuitReport| {
        let cell = cell_of(plan, pending[job], run, "-", report);
        state.lock().expect("sweep sink state poisoned").land(cell);
    };
    let mut summary = run_batch_streaming(&batch, config, &sink)?;
    let mut cells = SinkState::finish(state)?;

    // Rebuild per-cell time (route + pipeline) from the trace, which keys
    // every span by job index: busy time summed over every worker that
    // ran a piece of the cell, not the cell's elapsed time.
    let mut wall_ns: HashMap<usize, u64> = HashMap::new();
    for s in &summary.trace.spans {
        *wall_ns.entry(s.key as usize).or_default() += s.dur_ns;
    }
    let ordinal_to_job: HashMap<u64, usize> = pending
        .iter()
        .enumerate()
        .map(|(job, c)| (c.id.ordinal, job))
        .collect();
    for cell in &mut cells {
        if let Some(job) = ordinal_to_job.get(&cell.ordinal) {
            cell.wall = Duration::from_nanos(*wall_ns.get(job).unwrap_or(&0));
        }
    }

    // Relabel engine spans (keyed by job index) with the cell's
    // deterministic label, so a trace opened in Perfetto names cells the
    // same way the timing report does. Route spans keep their per-seed
    // and sample spans their per-sample `#N` suffix.
    for s in &mut summary.trace.spans {
        if let Some(planned) = pending.get(s.key as usize) {
            let (name, _) = plan.benchmark(planned);
            let cell = format!(
                "{}/{}/{}@{}",
                plan.map(planned).label(),
                plan.calibration(planned).label(),
                name,
                plan.suite_seed(planned)
            );
            s.label = match s.label.rsplit_once('#') {
                Some((_, n)) if s.name == "route" || s.name == "verify.sample" => {
                    format!("{cell}#{n}")
                }
                _ => cell,
            };
        }
    }
    out.extend(cells);
    Ok(summary)
}

/// Recombines shard reports (or completed journals) into the outcome a
/// single-process run of `spec` would have produced: validates that
/// every input carries the spec's fingerprint and a consistent shard
/// count, that the union of cells covers the planned grid exactly once
/// with matching digests, then folds the cells in ordinal order through
/// the tail a live run takes — so [`SweepOutcome::render`] is
/// byte-identical to the unsharded run.
///
/// The merged outcome carries no wall-clock state (threads 0, empty
/// traces): timings are per-process diagnostics, and the shard traces
/// are spliced separately via [`super::splice_shard_traces`].
///
/// # Errors
///
/// [`SweepError::SpecMismatch`] for foreign fingerprints, inconsistent
/// shard counts or digest conflicts; [`SweepError::Coverage`] when cells
/// are missing (an incomplete journal) or duplicated.
pub fn merge_reports(
    spec: &SweepSpec,
    reports: Vec<(String, JournalContents)>,
) -> Result<SweepOutcome, SweepError> {
    let plan = SweepPlan::new(spec)?;
    let mut shards: Option<usize> = None;
    let mut by_ordinal: HashMap<u64, SweepCell> = HashMap::new();
    for (path, contents) in reports {
        if contents.meta.fingerprint != plan.fingerprint() {
            return Err(SweepError::SpecMismatch {
                path,
                reason: format!(
                    "report fingerprint {:016x} does not match this spec ({:016x})",
                    contents.meta.fingerprint,
                    plan.fingerprint()
                ),
            });
        }
        match shards {
            None => shards = Some(contents.meta.shards),
            Some(n) if n != contents.meta.shards => {
                return Err(SweepError::SpecMismatch {
                    path,
                    reason: format!(
                        "report was produced with --shards {}, earlier inputs used --shards {n}",
                        contents.meta.shards
                    ),
                });
            }
            Some(_) => {}
        }
        for cell in contents.cells {
            if let Some(prior) = by_ordinal.get(&cell.ordinal) {
                if prior.digest != cell.digest {
                    return Err(SweepError::SpecMismatch {
                        path,
                        reason: format!(
                            "cell {} appears with conflicting digests {:016x} and {:016x}",
                            cell.ordinal, prior.digest, cell.digest
                        ),
                    });
                }
                return Err(SweepError::Coverage(format!(
                    "cell {} (digest {:016x}) appears in more than one report; \
                     each grid cell must be covered exactly once",
                    cell.ordinal, cell.digest
                )));
            }
            by_ordinal.insert(cell.ordinal, cell);
        }
    }

    // Coverage: the union must be exactly the planned grid.
    let mut missing: Vec<u64> = Vec::new();
    for planned in plan.cells() {
        match by_ordinal.get(&planned.id.ordinal) {
            None => missing.push(planned.id.ordinal),
            Some(cell) if cell.digest != planned.id.digest => {
                return Err(SweepError::SpecMismatch {
                    path: "merged inputs".to_string(),
                    reason: format!(
                        "cell {} has digest {:016x}, plan expects {:016x}",
                        cell.ordinal, cell.digest, planned.id.digest
                    ),
                });
            }
            Some(cell) => {
                if let Some(reason) = label_mismatch(&plan, planned, cell) {
                    return Err(SweepError::SpecMismatch {
                        path: "merged inputs".to_string(),
                        reason,
                    });
                }
            }
        }
    }
    if !missing.is_empty() {
        let shown: Vec<String> = missing.iter().take(8).map(|o| o.to_string()).collect();
        let suffix = if missing.len() > 8 { ", …" } else { "" };
        return Err(SweepError::Coverage(format!(
            "{} of {} planned cells missing from the merged reports \
             (ordinals {}{suffix}); run the missing shards or finish the interrupted one",
            missing.len(),
            plan.cells().len(),
            shown.join(", ")
        )));
    }
    if by_ordinal.len() > plan.cells().len() {
        let planned: std::collections::HashSet<u64> =
            plan.cells().iter().map(|c| c.id.ordinal).collect();
        let extra: Vec<String> = by_ordinal
            .keys()
            .filter(|o| !planned.contains(o))
            .take(8)
            .map(|o| o.to_string())
            .collect();
        return Err(SweepError::Coverage(format!(
            "reports contain cells outside the planned grid (ordinals {})",
            extra.join(", ")
        )));
    }

    let summaries = std::iter::repeat_with(|| None)
        .take(plan.runs().len())
        .collect();
    Ok(fold_outcome(
        &plan,
        (1, 0),
        by_ordinal.into_values().collect(),
        summaries,
    ))
}
