//! The fleet re-transpilation policy layer: replaying a drifting
//! calibration timeline as a sequence of epochs.
//!
//! A routing that was optimal at calibration time silently decays as the
//! device drifts — edge error rates creep, couplers die — but
//! re-transpiling every circuit at every epoch is wasted work when the
//! drift is mild. [`run_fleet`] replays a
//! [`CalibrationTimeline`] epoch by epoch over a set of [`FleetJob`]s and
//! lets a [`RetranspilePolicy`] make the stale-vs-keep call per job:
//!
//! - at **epoch 0** every job transpiles fresh through the engine
//!   ([`EpochDecision::Fresh`]);
//! - at each later epoch the policy sees the *predicted fidelity loss* of
//!   the cached routing — how much of the route's gate-error survival
//!   product ([`Calibration::routed_survival`]) the new calibration has
//!   eaten relative to its adoption epoch — and either **keeps** the
//!   route (its consolidated items, carried out of the engine at
//!   adoption, re-scored under the new calibration by the engine's own
//!   schedule stage: no routing or consolidation work) or
//!   **re-transpiles** it through the full engine pipeline;
//! - one [`DecompositionCache`] pair serves the whole run (the caches
//!   [`run_batch_streaming_with_caches`] takes), so re-transpiles revisit
//!   warm Weyl classes instead of rebuilding cold caches per epoch.
//!
//! The whole timeline is one pass through the engine's worker pool, which
//! spawns and joins its workers once. Each job is a chain of pool units:
//! epoch 0's routing units start the pool, and when a job adopts a route
//! (on the worker that finished it, after its last sample under
//! [`VerifyLevel::Sampled`](crate::VerifyLevel::Sampled)), the same
//! worker applies the policy to the job's following epochs. It publishes
//! one re-score unit per kept epoch up to the next re-transpile, then that
//! epoch's routing units, whose adoption continues the chain. No job
//! waits on another job's epoch, and no epoch waits for the one before
//! it to finish. The pool builds each noise-aware routing oracle once per
//! `(map, calibration snapshot)` pair, so the jobs of one timeline share
//! it, and each worker keeps one Weyl-point memo for the whole run.
//!
//! Like the batch engine, the fleet streams: every `(epoch, job)` cell's
//! decision and [`CircuitReport`] go to a caller sink on the worker that
//! finished the cell, in any order, and the run returns a
//! [`BatchSummary`]. Rollups over the cells (mean delivered fidelity,
//! re-transpile rate, route reuse per epoch) belong to the caller — the
//! sweep's `RunRollup` computes them. Every report and decision is a pure
//! function of `(jobs, config, policy)`, bit-identical at any thread
//! count; wall clock, cache counters and the trace ride alongside as
//! diagnostics.
//!
//! [`CalibrationTimeline`]: paradrive_transpiler::calibration::drift::CalibrationTimeline
//! [`Calibration::routed_survival`]: paradrive_transpiler::calibration::Calibration::routed_survival
//! [`run_batch_streaming_with_caches`]: crate::run_batch_streaming_with_caches
//! [`DecompositionCache`]: crate::DecompositionCache

use crate::batch::EngineConfig;
use crate::cache::DecompositionCache;
use crate::engine::{run_pool, Next, PoolWork, RouteJob};
use crate::report::{BatchSummary, CircuitReport};
use crate::EngineError;
use paradrive_circuit::Circuit;
use paradrive_transpiler::calibration::drift::CalibrationTimeline;
use paradrive_transpiler::consolidate::Item;
use paradrive_transpiler::topology::CouplingMap;
use paradrive_verify::Verification;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// When does a fleet job re-transpile against the current epoch's
/// calibration?
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RetranspilePolicy {
    /// Keep the epoch-0 routing forever (the do-nothing fleet).
    Never,
    /// Re-transpile every job at every epoch (the paranoid fleet).
    Always,
    /// Re-transpile a job only when its cached route's predicted fidelity
    /// loss exceeds the threshold: `1 − survival_now / survival_adopted`,
    /// both measured by [`routed_survival`] on the same routed circuit.
    ///
    /// [`routed_survival`]: paradrive_transpiler::calibration::Calibration::routed_survival
    Adaptive {
        /// Maximum tolerated predicted fidelity loss in `[0, 1]` before a
        /// re-transpile is ordered.
        max_fidelity_loss: f64,
    },
}

impl RetranspilePolicy {
    /// The canonical grammar label: `never`, `always`, or
    /// `adaptive<LOSS>` (e.g. `adaptive0.05`) — `{}` on the threshold
    /// prints the shortest string that parses back to the same value, so
    /// labels round-trip through [`FromStr`].
    pub fn label(&self) -> String {
        match self {
            RetranspilePolicy::Never => "never".to_string(),
            RetranspilePolicy::Always => "always".to_string(),
            RetranspilePolicy::Adaptive { max_fidelity_loss } => {
                format!("adaptive{max_fidelity_loss}")
            }
        }
    }
}

impl std::fmt::Display for RetranspilePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

/// A [`RetranspilePolicy`] label that failed to parse.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyParseError {
    /// The rejected input.
    pub input: String,
}

impl std::fmt::Display for PolicyParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown re-transpile policy `{}` (expected never, always, or adaptive<LOSS> \
             with LOSS in [0, 1], e.g. adaptive0.05)",
            self.input
        )
    }
}

impl std::error::Error for PolicyParseError {}

impl FromStr for RetranspilePolicy {
    type Err = PolicyParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let reject = || PolicyParseError {
            input: s.to_string(),
        };
        match s {
            "never" => Ok(RetranspilePolicy::Never),
            "always" => Ok(RetranspilePolicy::Always),
            _ => {
                let loss = s.strip_prefix("adaptive").ok_or_else(reject)?;
                let max_fidelity_loss: f64 = loss.parse().map_err(|_| reject())?;
                if !(0.0..=1.0).contains(&max_fidelity_loss) {
                    return Err(reject());
                }
                Ok(RetranspilePolicy::Adaptive { max_fidelity_loss })
            }
        }
    }
}

/// What happened to one job at one epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochDecision {
    /// First transpile (epoch 0) — nothing cached to keep.
    Fresh,
    /// The cached routing was kept and re-scored under the new
    /// calibration.
    Kept,
    /// The cached routing was declared stale and the job re-transpiled.
    Retranspiled,
}

impl EpochDecision {
    /// Short stable label for renders and journals.
    pub fn label(&self) -> &'static str {
        match self {
            EpochDecision::Fresh => "fresh",
            EpochDecision::Kept => "kept",
            EpochDecision::Retranspiled => "retrans",
        }
    }
}

/// One circuit riding a calibration timeline through a fleet run.
#[derive(Debug, Clone)]
pub struct FleetJob {
    /// Job name, carried into every epoch's report.
    pub name: String,
    /// The logical circuit.
    pub circuit: Circuit,
    /// The device it routes on.
    pub map: Arc<CouplingMap>,
    /// The drifting calibration it is scored under, epoch by epoch. All
    /// jobs in one fleet must agree on the epoch count.
    pub timeline: Arc<CalibrationTimeline>,
}

/// A job's adopted transpilation, taken at its fresh or re-transpile
/// epoch and shared by the re-score units of the kept epochs that follow
/// it; it is dropped once the last of them has run.
pub(crate) struct Adopted {
    /// The route's consolidated items, re-scored at each kept epoch.
    pub(crate) items: Vec<Item>,
    /// SWAPs the route inserted.
    pub(crate) swaps: usize,
    /// The routed circuit, kept only for reports that keep it.
    routed: Option<Circuit>,
    /// The adoption's verdict, which kept epochs carry forward.
    verification: Option<Verification>,
}

impl RetranspilePolicy {
    /// The first epoch after `adopted` at which `routed`, adopted then,
    /// goes stale on `timeline` (the timeline's epoch count when it never
    /// does): later epochs compare the route's survival under their
    /// calibration with its survival at adoption.
    fn stale_from(
        &self,
        timeline: &CalibrationTimeline,
        routed: &Circuit,
        adopted: usize,
    ) -> usize {
        let epochs = timeline.epochs();
        match self {
            RetranspilePolicy::Never => epochs,
            RetranspilePolicy::Always => adopted + 1,
            RetranspilePolicy::Adaptive { max_fidelity_loss } => {
                let survival = |epoch| timeline.snapshot(epoch).routed_survival(routed);
                let at_adoption = survival(adopted);
                (adopted + 1..epochs)
                    .find(|&epoch| {
                        (1.0 - survival(epoch) / at_adoption).max(0.0) > *max_fidelity_loss
                    })
                    .unwrap_or(epochs)
            }
        }
    }
}

/// Replays every job's calibration timeline under one re-transpilation
/// `policy`, handing every `(epoch, job, decision, report)` cell to
/// `sink`.
///
/// Epoch 0 transpiles every job fresh. The whole timeline then runs in
/// one engine pool, as one chain of units per job: when a job adopts a
/// route, the worker that finished it consults the policy (see
/// [`RetranspilePolicy`]) for the job's following epochs, publishes a
/// re-score unit for each kept epoch — its cached consolidated items
/// scored under that epoch's calibration, without routing — and then the
/// routing units of the next re-transpile, which adopts in turn. No job
/// waits on another job's epoch. Kept jobs carry their adoption
/// verification verdict forward — the routed circuit is unchanged, so
/// the verdict is too. One warm [`DecompositionCache`] pair, one
/// Weyl-point memo per worker and one noise-aware routing oracle per
/// `(map, calibration snapshot)` pair serve the whole run.
///
/// The sink runs on the worker that finished each cell, exactly as
/// [`run_batch_streaming`]'s does: cells arrive in any order, and calls
/// may overlap (hence `Sync`), so a caller that needs an order sorts by
/// `(epoch, job)`. Reports keep their routed circuit only under
/// [`EngineConfig::keep_routed`], and carry zero
/// `route_time`/`pipeline_time`. The returned summary holds the
/// configured worker count, the fleet wall clock, the shared cache
/// pair's counters, and the run's trace: its spans keyed by fleet job
/// index, per-epoch counters prefixed `epochN.`
/// (`epochN.route.{seed_attempts,oracles}`, and `epochN.verify.samples`
/// under sampled verification), run totals `cache.{baseline,optimized}.*`,
/// per-epoch `fleet.epochN.{fresh,kept,retranspiled}` decision counters,
/// and `fleet.route.oracles`, the oracles built over all epochs.
///
/// # Errors
///
/// [`EngineError::Fleet`] when the jobs disagree on epoch count, and
/// otherwise the [`EngineError::Job`] of the earliest failing `(epoch,
/// job)` — the earliest epoch, then the first job in submission order —
/// that fails (invalid calibration, unroutable circuit, a score that
/// overflows, …). Every other chain still runs to its end, so the sink
/// has then seen each job's cells up to that job's own failure — a failed
/// routing ends its chain, while a failed re-score leaves the epochs
/// around it to report — which a journaling caller keeps, as it does the
/// cells of a failed [`run_batch_streaming`].
///
/// [`run_batch_streaming`]: crate::run_batch_streaming
pub fn run_fleet(
    jobs: &[FleetJob],
    config: &EngineConfig,
    policy: &RetranspilePolicy,
    sink: &(dyn Fn(usize, usize, EpochDecision, CircuitReport) + Sync),
) -> Result<BatchSummary, EngineError> {
    let started = Instant::now();
    let n_epochs = jobs.first().map_or(0, |j| j.timeline.epochs());
    if let Some(odd) = jobs.iter().find(|j| j.timeline.epochs() != n_epochs) {
        return Err(EngineError::Fleet {
            reason: format!(
                "job `{}` rides a {}-epoch timeline but the fleet runs {} epochs",
                odd.name,
                odd.timeline.epochs(),
                n_epochs
            ),
        });
    }
    let n_jobs = jobs.len();

    // One warm cache pair for the whole fleet: re-transpiles at late
    // epochs revisit the Weyl classes epoch 0 already decomposed.
    let caches = config
        .cache
        .then(|| (DecompositionCache::new(), DecompositionCache::new()));
    let cache_refs = caches.as_ref().map(|(b, o)| (b, o));
    // The pool's reports keep their routed circuits — the adopted route
    // *is* the fleet's working state; the caller's `keep_routed` governs
    // only what the emitted reports retain.
    let inner = config.keep_routed(true);

    // Per epoch, the cells handed out, indexed by `EpochDecision as usize`:
    // fresh, kept, re-transpiled.
    let tallies: Vec<[AtomicU64; 3]> = (0..n_epochs).map(|_| Default::default()).collect();
    let emit = |r: usize, decision: EpochDecision, report: CircuitReport| {
        let (epoch, j) = (r / n_jobs, r % n_jobs);
        tallies[epoch][decision as usize].fetch_add(1, Ordering::Relaxed);
        sink(epoch, j, decision, report);
    };
    // A routed job adopts its route on the worker that finished it, and
    // publishes its chain up to the next re-transpile.
    let finished = |r: usize, mut report: CircuitReport, items: Vec<Item>| {
        let (epoch, j) = (r / n_jobs, r % n_jobs);
        let routed = (report.routed.take()).expect("fleet pools keep routed circuits");
        let stale = policy.stale_from(&jobs[j].timeline, &routed, epoch);
        let mut next = Vec::new();
        if stale > epoch + 1 {
            let adopted = Arc::new(Adopted {
                items,
                swaps: report.result.swaps,
                routed: config.keep_routed.then(|| routed.clone()),
                verification: report.verification.clone(),
            });
            next.extend(
                (epoch + 1..stale)
                    .map(|kept| Next::Rescore(kept * n_jobs + j, Arc::clone(&adopted))),
            );
        }
        if stale < n_epochs {
            next.push(Next::Route(stale * n_jobs + j));
        }
        report.routed = config.keep_routed.then_some(routed);
        let decision = if epoch == 0 {
            EpochDecision::Fresh
        } else {
            EpochDecision::Retranspiled
        };
        emit(r, decision, report);
        next
    };
    // A kept job carries its adoption's route and verdict forward — the
    // routed circuit is unchanged, so the verdict is too.
    let rescored = |r: usize, adopted: Arc<Adopted>, result| {
        let (epoch, job) = (r / n_jobs, &jobs[r % n_jobs]);
        let report = CircuitReport {
            result,
            topology: job.map.label().to_string(),
            calibration: job.timeline.snapshot(epoch).label().to_string(),
            routed: adopted.routed.clone(),
            verification: adopted.verification.clone(),
            route_time: Duration::ZERO,
            pipeline_time: Duration::ZERO,
        };
        emit(r, EpochDecision::Kept, report);
    };
    let work = PoolWork {
        // Route job `epoch * n_jobs + j` is job `j` at `epoch`, so a
        // failure ranks by epoch, then by job.
        jobs: (0..n_epochs)
            .flat_map(|epoch| {
                jobs.iter().enumerate().map(move |(j, job)| RouteJob {
                    name: &job.name,
                    circuit: &job.circuit,
                    map: &job.map,
                    cal: Some(job.timeline.snapshot(epoch)),
                    key: j,
                    epoch,
                })
            })
            .collect(),
        initial: n_jobs,
        prefixes: (0..n_epochs)
            .map(|epoch| format!("epoch{epoch}."))
            .collect(),
        finished: &finished,
        rescored: &rescored,
    };
    let mut trace = run_pool(&work, &inner, cache_refs)?.trace;

    let mut oracles = 0;
    for (epoch, tally) in tallies.iter().enumerate() {
        oracles += (trace.counter(&format!("epoch{epoch}.route.oracles"))).unwrap_or(0);
        for (name, count) in ["fresh", "kept", "retranspiled"].into_iter().zip(tally) {
            let count = count.load(Ordering::Relaxed);
            trace.set_counter(format!("fleet.epoch{epoch}.{name}"), count);
        }
    }
    trace.set_counter("fleet.route.oracles".to_string(), oracles);

    Ok(BatchSummary {
        threads: config.effective_threads(),
        wall_clock: started.elapsed(),
        baseline_cache: cache_refs.map(|(b, _)| b.stats()),
        optimized_cache: cache_refs.map(|(_, o)| o.stats()),
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_batch, Batch};
    use paradrive_circuit::benchmarks;
    use paradrive_transpiler::calibration::drift::DriftSpec;
    use paradrive_transpiler::calibration::Calibration;
    use paradrive_transpiler::fidelity::FidelityModel;
    use paradrive_transpiler::TranspileError;
    use paradrive_verify::VerifyLevel;
    use std::sync::Mutex;

    /// One sink call: `(epoch, job, decision, report)`.
    type Cell = (usize, usize, EpochDecision, CircuitReport);

    fn fleet_on(
        map: &Arc<CouplingMap>,
        timeline: &Arc<CalibrationTimeline>,
        circuits: Vec<(&str, Circuit)>,
    ) -> Vec<FleetJob> {
        circuits
            .into_iter()
            .map(|(name, circuit)| FleetJob {
                name: name.to_string(),
                circuit,
                map: Arc::clone(map),
                timeline: Arc::clone(timeline),
            })
            .collect()
    }

    /// Runs the fleet and collects every sink call, sorted by `(epoch,
    /// job)`: the sink runs on the workers, in completion order.
    fn collect(
        jobs: &[FleetJob],
        config: &EngineConfig,
        policy: &RetranspilePolicy,
    ) -> Result<(Vec<Cell>, BatchSummary), EngineError> {
        let cells = Mutex::new(Vec::new());
        let summary = run_fleet(jobs, config, policy, &|epoch, job, decision, report| {
            cells.lock().unwrap().push((epoch, job, decision, report));
        })?;
        let mut cells = cells.into_inner().unwrap();
        cells.sort_by_key(|c: &Cell| (c.0, c.1));
        Ok((cells, summary))
    }

    /// Runs a fleet that must fail, and returns the error with every
    /// `(epoch, job, decision)` the sink saw, sorted.
    fn failing(
        jobs: &[FleetJob],
        config: &EngineConfig,
        policy: &RetranspilePolicy,
    ) -> (EngineError, Vec<(usize, usize, EpochDecision)>) {
        let seen = Mutex::new(Vec::new());
        let err = run_fleet(jobs, config, policy, &|epoch, job, decision, _| {
            seen.lock().unwrap().push((epoch, job, decision));
        })
        .unwrap_err();
        let mut seen = seen.into_inner().unwrap();
        seen.sort_by_key(|&(epoch, job, _)| (epoch, job));
        (err, seen)
    }

    fn cells_identical(a: &[Cell], b: &[Cell]) {
        assert_eq!(a.len(), b.len());
        for ((e, j, d, p), (f, k, c, q)) in a.iter().zip(b) {
            assert_eq!((e, j, d), (f, k, c));
            let (r, s) = (&p.result, &q.result);
            assert_eq!(r.name, s.name);
            assert_eq!(r.swaps, s.swaps);
            assert_eq!(r.blocks, s.blocks);
            assert_eq!(
                r.optimized_total_fidelity.to_bits(),
                s.optimized_total_fidelity.to_bits()
            );
            assert_eq!(
                r.baseline_total_fidelity.to_bits(),
                s.baseline_total_fidelity.to_bits()
            );
            assert_eq!(
                r.optimized_duration.to_bits(),
                s.optimized_duration.to_bits()
            );
            assert_eq!(r.baseline_duration.to_bits(), s.baseline_duration.to_bits());
            assert_eq!(p.calibration, q.calibration);
            assert_eq!(p.routed, q.routed);
            assert_eq!(p.verification, q.verification);
        }
    }

    #[test]
    fn policy_labels_round_trip() {
        for policy in [
            RetranspilePolicy::Never,
            RetranspilePolicy::Always,
            RetranspilePolicy::Adaptive {
                max_fidelity_loss: 0.05,
            },
        ] {
            let parsed: RetranspilePolicy = policy.label().parse().unwrap();
            assert_eq!(parsed, policy);
        }
        for bad in ["", "sometimes", "adaptive", "adaptive-0.1", "adaptive1.5"] {
            assert!(bad.parse::<RetranspilePolicy>().is_err(), "{bad}");
        }
    }

    /// Kept epochs are scored from the items carried out of the engine at
    /// adoption, so on a calm timeline every epoch must reproduce the
    /// static batch bit for bit.
    #[test]
    fn calm_fleet_keeps_everything_and_matches_the_static_batch_bitwise() {
        let map = Arc::new(CouplingMap::grid(3, 3));
        let cal = Calibration::uniform(&map, FidelityModel::paper());
        let timeline =
            Arc::new(CalibrationTimeline::generate(&cal, &map, &DriftSpec::calm(3, 7)).unwrap());
        let jobs = fleet_on(
            &map,
            &timeline,
            vec![("ghz8", benchmarks::ghz(8)), ("ghz9", benchmarks::ghz(9))],
        );
        let config = EngineConfig::default()
            .routing_seeds(3)
            .threads(2)
            .keep_routed(true)
            .noise_aware(true);
        let (cells, _) = collect(
            &jobs,
            &config,
            &RetranspilePolicy::Adaptive {
                max_fidelity_loss: 0.01,
            },
        )
        .unwrap();
        // Nothing drifts, so nothing re-transpiles after the fresh epoch 0.
        let order: Vec<(usize, usize, EpochDecision)> =
            cells.iter().map(|(e, j, d, _)| (*e, *j, *d)).collect();
        assert_eq!(
            order,
            [
                (0, 0, EpochDecision::Fresh),
                (0, 1, EpochDecision::Fresh),
                (1, 0, EpochDecision::Kept),
                (1, 1, EpochDecision::Kept),
                (2, 0, EpochDecision::Kept),
                (2, 1, EpochDecision::Kept),
            ]
        );

        // The static reference: the same jobs through the plain engine.
        let mut batch = Batch::with_shared(Arc::clone(&map));
        for job in &jobs {
            batch.push_calibrated(
                job.name.clone(),
                job.circuit.clone(),
                Arc::clone(&map),
                timeline.snapshot_shared(0),
            );
        }
        let static_report = run_batch(&batch, &config).unwrap();
        for (_, job, _, report) in &cells {
            let (r, s) = (&report.result, &static_report.circuits[*job].result);
            assert_eq!(r.swaps, s.swaps);
            assert_eq!(r.blocks, s.blocks);
            assert_eq!(
                r.optimized_total_fidelity.to_bits(),
                s.optimized_total_fidelity.to_bits()
            );
            assert_eq!(
                r.optimized_duration.to_bits(),
                s.optimized_duration.to_bits()
            );
            assert_eq!(r.baseline_duration.to_bits(), s.baseline_duration.to_bits());
            assert_eq!(report.routed, static_report.circuits[*job].routed);
        }
    }

    /// Every cell of a drifting fleet is bit-identical at 1, 2 and 4
    /// threads, with the cache on or off, and with verification off or
    /// sampled — where routing, sample and re-score units all share one
    /// pool — under the adaptive policy (an epoch mixes kept and
    /// re-transpiled jobs) and the two extreme chain shapes: `Always`
    /// (every job a strict chain of re-transpiles) and `Never` (every
    /// later epoch a re-score published after epoch 0).
    #[test]
    fn fleet_reports_are_thread_deterministic() {
        let map = Arc::new(CouplingMap::grid(3, 3));
        let cal = Calibration::spread(&map, FidelityModel::paper(), 0.2, 5).unwrap();
        let spec = DriftSpec::walk(3, 0.2, 1, 13);
        let timeline = Arc::new(CalibrationTimeline::generate(&cal, &map, &spec).unwrap());
        let jobs = fleet_on(
            &map,
            &timeline,
            vec![
                ("ghz8", benchmarks::ghz(8)),
                ("ghz9", benchmarks::ghz(9)),
                ("vqe8", benchmarks::vqe_linear(8, 2, 5)),
            ],
        );
        let adaptive = RetranspilePolicy::Adaptive {
            max_fidelity_loss: 0.02,
        };
        for policy in [
            adaptive,
            RetranspilePolicy::Always,
            RetranspilePolicy::Never,
        ] {
            for verify in [VerifyLevel::Off, VerifyLevel::Sampled] {
                let base = EngineConfig::default()
                    .routing_seeds(3)
                    .keep_routed(true)
                    .noise_aware(true)
                    .verify(verify)
                    .verify_samples(3);
                let (one, _) = collect(&jobs, &base.threads(1), &policy).unwrap();
                assert_eq!(one.len(), 3 * jobs.len());
                let later = |d| one.iter().filter(|c| c.0 > 0 && c.2 == d).count();
                let (kept, retranspiled) = (
                    later(EpochDecision::Kept),
                    later(EpochDecision::Retranspiled),
                );
                match policy {
                    RetranspilePolicy::Always => assert_eq!(kept, 0),
                    RetranspilePolicy::Never => assert_eq!(retranspiled, 0),
                    RetranspilePolicy::Adaptive { .. } => {
                        let mixed = (1..3).any(|epoch| {
                            let decided = |d| one.iter().any(|c| c.0 == epoch && c.2 == d);
                            decided(EpochDecision::Kept) && decided(EpochDecision::Retranspiled)
                        });
                        assert!(mixed, "no epoch mixes kept and re-transpiled jobs");
                    }
                }
                for threads in [2, 4] {
                    let (many, _) = collect(&jobs, &base.threads(threads), &policy).unwrap();
                    cells_identical(&one, &many);
                }
                // Cache off agrees too: the cache only changes wall clock.
                let (raw, summary) =
                    collect(&jobs, &base.threads(2).cache(false), &policy).unwrap();
                cells_identical(&one, &raw);
                assert!(summary.cache_stats().is_none());
                if verify == VerifyLevel::Sampled {
                    assert!(one.iter().all(|c| c.3.verification.is_some()));
                }
            }
        }
    }

    #[test]
    fn mismatched_timelines_are_a_fleet_error() {
        let map = Arc::new(CouplingMap::grid(3, 3));
        let cal = Calibration::uniform(&map, FidelityModel::paper());
        let three =
            Arc::new(CalibrationTimeline::generate(&cal, &map, &DriftSpec::calm(3, 1)).unwrap());
        let two =
            Arc::new(CalibrationTimeline::generate(&cal, &map, &DriftSpec::calm(2, 1)).unwrap());
        let mut jobs = fleet_on(&map, &three, vec![("a", benchmarks::ghz(8))]);
        jobs.extend(fleet_on(&map, &two, vec![("b", benchmarks::ghz(9))]));
        let err = collect(&jobs, &EngineConfig::default(), &RetranspilePolicy::Never).unwrap_err();
        assert!(matches!(err, EngineError::Fleet { .. }), "{err}");
    }

    /// A failing epoch reports its first failing job in submission order;
    /// the sink sees the healthy job's whole timeline and nothing of the
    /// failing jobs.
    #[test]
    fn a_failing_epoch_reports_its_first_failing_job() {
        let grid = Arc::new(CouplingMap::grid(3, 3));
        let ring = CouplingMap::ring(9);
        let calm = |map: &CouplingMap| {
            let cal = Calibration::uniform(map, FidelityModel::paper());
            Arc::new(CalibrationTimeline::generate(&cal, map, &DriftSpec::calm(2, 1)).unwrap())
        };
        // A ring timeline on the grid: same width, other edges.
        let wrong = calm(&ring);
        let mut jobs = fleet_on(&grid, &calm(&grid), vec![("ok", benchmarks::ghz(8))]);
        jobs.extend(fleet_on(
            &grid,
            &wrong,
            vec![("bad-a", benchmarks::ghz(9)), ("bad-b", benchmarks::ghz(7))],
        ));
        let (err, seen) = failing(
            &jobs,
            &EngineConfig::default().routing_seeds(2).threads(2),
            &RetranspilePolicy::Never,
        );
        let EngineError::Job { job, source } = err else {
            panic!("expected a job error, got {err}");
        };
        assert_eq!(job, "bad-a");
        assert!(matches!(source, TranspileError::InvalidCalibration(_)));
        assert_eq!(
            seen,
            [(0, 0, EpochDecision::Fresh), (1, 0, EpochDecision::Kept)]
        );
    }

    /// A job that fails only at a later epoch ends its own chain there:
    /// the error names the earliest failing `(epoch, job)` — not the
    /// first job in submission order to fail at some epoch — and the sink
    /// has seen each job's cells up to its own failure, while a healthy
    /// job's chain runs on through every epoch. Under `Always`,
    /// noise-aware routing on a line gets stuck once the walk pushes a
    /// degraded bridge past the router's dead threshold: at epoch 3 on
    /// one timeline, at epoch 2 on the other.
    #[test]
    fn a_later_failure_reports_the_earliest_failing_epoch_and_job() {
        let grid = Arc::new(CouplingMap::grid(3, 3));
        let line = Arc::new(CouplingMap::line(5));
        let timeline = |map: &CouplingMap, spec: &DriftSpec| {
            let cal = Calibration::uniform(map, FidelityModel::paper());
            Arc::new(CalibrationTimeline::generate(&cal, map, spec).unwrap())
        };
        let mut jobs = fleet_on(
            &grid,
            &timeline(&grid, &DriftSpec::calm(4, 1)),
            vec![("healthy", benchmarks::ghz(8))],
        );
        jobs.extend(fleet_on(
            &line,
            &timeline(&line, &DriftSpec::walk(4, 0.5, 1, 22)),
            vec![("stuck-at-3", benchmarks::ghz(5))],
        ));
        jobs.extend(fleet_on(
            &line,
            &timeline(&line, &DriftSpec::walk(4, 0.5, 1, 59)),
            vec![("stuck-at-2", benchmarks::ghz(5))],
        ));
        for threads in [1, 2, 4] {
            let config = EngineConfig::default()
                .routing_seeds(2)
                .threads(threads)
                .noise_aware(true);
            let (err, seen) = failing(&jobs, &config, &RetranspilePolicy::Always);
            let EngineError::Job { job, source } = err else {
                panic!("expected a job error, got {err}");
            };
            assert_eq!(job, "stuck-at-2", "{threads} thread(s)");
            assert!(
                matches!(source, TranspileError::RoutingStuck { .. }),
                "{source:?}"
            );
            // `healthy` runs all four epochs, each line job up to its own
            // failure.
            let mut want = Vec::new();
            for (job, epochs) in [(0, 4), (1, 3), (2, 2)] {
                for epoch in 0..epochs {
                    let decision = if epoch == 0 {
                        EpochDecision::Fresh
                    } else {
                        EpochDecision::Retranspiled
                    };
                    want.push((epoch, job, decision));
                }
            }
            want.sort_by_key(|&(epoch, job, _)| (epoch, job));
            assert_eq!(seen, want, "{threads} thread(s)");
        }
        // Each line job alone fails at its own epoch, so the order above
        // is the earliest epoch's, not the submission order's.
        for (job, epoch) in [(1, 3), (2, 2)] {
            let (err, seen) = failing(
                &jobs[job..=job],
                &EngineConfig::default().routing_seeds(2).noise_aware(true),
                &RetranspilePolicy::Always,
            );
            assert!(matches!(err, EngineError::Job { .. }), "{err}");
            let epochs: Vec<usize> = seen.iter().map(|c| c.0).collect();
            assert_eq!(epochs, Vec::from_iter(0..epoch), "{}", jobs[job].name);
        }
    }

    #[test]
    fn empty_fleet_is_fine() {
        let (cells, summary) =
            collect(&[], &EngineConfig::default(), &RetranspilePolicy::Never).unwrap();
        assert!(cells.is_empty());
        assert!(summary.trace.spans.is_empty());
    }
}
