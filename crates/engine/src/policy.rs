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
//! - one [`DecompositionCache`] pair is shared across every epoch (see
//!   [`run_batch_streaming_with_caches`]), so re-transpiles revisit warm
//!   Weyl classes instead of rebuilding cold caches per epoch.
//!
//! Like the batch engine, the fleet streams: every `(epoch, job)` cell's
//! decision and [`CircuitReport`] go to a caller sink, and the run
//! returns a [`BatchSummary`]. Rollups over the cells (mean delivered
//! fidelity, re-transpile rate, route reuse per epoch) belong to the
//! caller — the sweep's `RunRollup` computes them. Every report and
//! decision is a pure function of `(jobs, config, policy)`,
//! bit-identical at any thread count; wall clock, cache counters and the
//! trace ride alongside as diagnostics.
//!
//! [`CalibrationTimeline`]: paradrive_transpiler::calibration::drift::CalibrationTimeline
//! [`Calibration::routed_survival`]: paradrive_transpiler::calibration::Calibration::routed_survival
//! [`run_batch_streaming_with_caches`]: crate::run_batch_streaming_with_caches
//! [`DecompositionCache`]: crate::DecompositionCache

use crate::batch::{Batch, EngineConfig};
use crate::cache::DecompositionCache;
use crate::engine::{run_pool, Scorer};
use crate::report::{BatchSummary, CircuitReport};
use crate::EngineError;
use paradrive_circuit::Circuit;
use paradrive_obs::Trace;
use paradrive_transpiler::calibration::drift::CalibrationTimeline;
use paradrive_transpiler::consolidate::Item;
use paradrive_transpiler::topology::CouplingMap;
use paradrive_verify::Verification;
use std::str::FromStr;
use std::sync::{Arc, Mutex};
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

/// A job's cached transpilation, adopted at its last fresh/re-transpile
/// epoch.
struct Adopted {
    routed: Circuit,
    items: Vec<Item>,
    swaps: usize,
    /// The route's gate-error survival product under the calibration it
    /// was adopted at — the denominator of the predicted-loss estimate.
    survival: f64,
    verification: Option<Verification>,
}

/// Replays every job's calibration timeline epoch by epoch under one
/// re-transpilation `policy`, handing every `(epoch, job, decision,
/// report)` cell to `sink`.
///
/// Epoch 0 transpiles every job fresh; later epochs consult the policy
/// per job (see [`RetranspilePolicy`]). Kept jobs re-score their cached
/// consolidated items under the new calibration without routing;
/// re-transpiled jobs go through the full engine pipeline as one
/// sub-batch per epoch, sharing a single warm [`DecompositionCache`]
/// pair across all epochs. Kept jobs carry their adoption verification
/// verdict forward — the routed circuit is unchanged, so the verdict is
/// too.
///
/// The sink runs on the calling thread, in epoch order and, within an
/// epoch, in job submission order. Reports keep their routed circuit
/// only under [`EngineConfig::keep_routed`], and carry zero
/// `route_time`/`pipeline_time`. The returned summary holds the largest
/// worker count any sub-batch used, the fleet wall clock, the shared
/// cache pair's cumulative counters, and the merged trace: every
/// sub-batch's spans shifted onto one timeline, its counters prefixed
/// `epochN.`, plus per-epoch `fleet.epochN.{fresh,kept,retranspiled}`
/// decision counters.
///
/// # Errors
///
/// [`EngineError::Fleet`] when the jobs disagree on epoch count, and any
/// [`EngineError::Job`] a sub-batch reports (invalid calibration,
/// unroutable circuit, …). The sink has then seen every earlier epoch.
pub fn run_fleet(
    jobs: &[FleetJob],
    config: &EngineConfig,
    policy: &RetranspilePolicy,
    sink: &mut dyn FnMut(usize, usize, EpochDecision, CircuitReport),
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

    // One warm cache pair for the whole fleet: re-transpiles at late
    // epochs revisit the Weyl classes epoch 0 already decomposed.
    let caches = config
        .cache
        .then(|| (DecompositionCache::new(), DecompositionCache::new()));
    let cache_refs = caches.as_ref().map(|(b, o)| (b, o));
    // Sub-batches must keep routed circuits — the cached route *is* the
    // fleet's working state; the caller's `keep_routed` governs only what
    // the emitted reports retain.
    let inner = config.keep_routed(true);
    let scorer = Scorer::new(config, cache_refs);

    let mut adopted: Vec<Option<Adopted>> = (0..jobs.len()).map(|_| None).collect();
    let mut trace = Trace::default();
    let mut threads = config.effective_threads();

    for epoch in 0..n_epochs {
        // Decide per job. Epoch 0 is always fresh; later epochs compare
        // the cached route's survival under the new calibration with its
        // survival at adoption.
        let decisions: Vec<EpochDecision> = jobs
            .iter()
            .zip(&adopted)
            .map(|(job, cached)| {
                let Some(cached) = cached else {
                    return EpochDecision::Fresh;
                };
                match policy {
                    RetranspilePolicy::Never => EpochDecision::Kept,
                    RetranspilePolicy::Always => EpochDecision::Retranspiled,
                    RetranspilePolicy::Adaptive { max_fidelity_loss } => {
                        let now = job.timeline.snapshot(epoch).routed_survival(&cached.routed);
                        let loss = (1.0 - now / cached.survival).max(0.0);
                        if loss > *max_fidelity_loss {
                            EpochDecision::Retranspiled
                        } else {
                            EpochDecision::Kept
                        }
                    }
                }
            })
            .collect();

        // Re-transpile the stale jobs as one engine sub-batch, keeping
        // each one's consolidated items for later re-scoring.
        let stale: Vec<usize> = (0..jobs.len())
            .filter(|&j| decisions[j] != EpochDecision::Kept)
            .collect();
        let mut fresh: Vec<Option<CircuitReport>> = (0..jobs.len()).map(|_| None).collect();
        if !stale.is_empty() {
            let mut batch = Batch::with_shared(Arc::clone(&jobs[stale[0]].map));
            for &j in &stale {
                let job = &jobs[j];
                batch.push_calibrated(
                    job.name.clone(),
                    job.circuit.clone(),
                    Arc::clone(&job.map),
                    job.timeline.snapshot_shared(epoch),
                );
            }
            let slots: Vec<Mutex<Option<_>>> = stale.iter().map(|_| Mutex::new(None)).collect();
            let summary = run_pool(
                &batch,
                &inner,
                &|i, report, items| {
                    *slots[i].lock().expect("report slot poisoned") = Some((report, items));
                },
                cache_refs,
            )?;
            threads = summary.threads.max(threads);
            let mut sub = summary.trace;
            sub.shift(trace.end_ns());
            sub.prefix_counters(&format!("epoch{epoch}."));
            trace.merge(sub);
            for (slot, &j) in slots.into_iter().zip(&stale) {
                let (report, items) = slot
                    .into_inner()
                    .expect("report slot poisoned")
                    .expect("every successful job produces a report");
                let routed = report
                    .routed
                    .clone()
                    .expect("fleet sub-batches keep routed circuits");
                adopted[j] = Some(Adopted {
                    survival: jobs[j].timeline.snapshot(epoch).routed_survival(&routed),
                    routed,
                    items,
                    swaps: report.result.swaps,
                    verification: report.verification.clone(),
                });
                fresh[j] = Some(report);
            }
        }

        // Emit the epoch: re-transpiled jobs hand over their fresh engine
        // reports; kept jobs re-score their cached items under the new
        // calibration through the engine's schedule stage (shared caches
        // included), with their adoption verification verdict carried
        // forward.
        for (j, job) in jobs.iter().enumerate() {
            let mut report = match fresh[j].take() {
                Some(report) => report,
                None => {
                    let cached = adopted[j].as_ref().expect("adopted at epoch 0");
                    let cal = job.timeline.snapshot(epoch);
                    let result = scorer
                        .score(
                            &job.name,
                            &cached.items,
                            cached.swaps,
                            job.map.n_qubits(),
                            job.circuit.n_qubits(),
                            Some(cal),
                        )
                        .map_err(|source| EngineError::Job {
                            job: job.name.clone(),
                            source,
                        })?;
                    CircuitReport {
                        result,
                        topology: job.map.label().to_string(),
                        calibration: cal.label().to_string(),
                        routed: Some(cached.routed.clone()),
                        verification: cached.verification.clone(),
                        route_time: Duration::ZERO,
                        pipeline_time: Duration::ZERO,
                    }
                }
            };
            if !config.keep_routed {
                report.routed = None;
            }
            sink(epoch, j, decisions[j], report);
        }
        for (name, decision) in [
            ("fresh", EpochDecision::Fresh),
            ("kept", EpochDecision::Kept),
            ("retranspiled", EpochDecision::Retranspiled),
        ] {
            let count = decisions.iter().filter(|&&d| d == decision).count();
            trace.set_counter(format!("fleet.epoch{epoch}.{name}"), count as u64);
        }
    }

    Ok(BatchSummary {
        threads,
        wall_clock: started.elapsed(),
        baseline_cache: cache_refs.map(|(b, _)| b.stats()),
        optimized_cache: cache_refs.map(|(_, o)| o.stats()),
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_batch;
    use paradrive_circuit::benchmarks;
    use paradrive_transpiler::calibration::drift::DriftSpec;
    use paradrive_transpiler::calibration::Calibration;
    use paradrive_transpiler::fidelity::FidelityModel;

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

    /// Runs the fleet and collects every sink call in arrival order.
    fn collect(
        jobs: &[FleetJob],
        config: &EngineConfig,
        policy: &RetranspilePolicy,
    ) -> Result<(Vec<Cell>, BatchSummary), EngineError> {
        let mut cells = Vec::new();
        let summary = run_fleet(jobs, config, policy, &mut |epoch, job, decision, report| {
            cells.push((epoch, job, decision, report));
        })?;
        Ok((cells, summary))
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
        // Epoch-major, submission order within an epoch; nothing drifts,
        // so nothing re-transpiles after the fresh epoch 0.
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
        let base = EngineConfig::default()
            .routing_seeds(3)
            .keep_routed(true)
            .noise_aware(true);
        let policy = RetranspilePolicy::Adaptive {
            max_fidelity_loss: 0.02,
        };
        let (one, _) = collect(&jobs, &base.threads(1), &policy).unwrap();
        let (four, _) = collect(&jobs, &base.threads(4), &policy).unwrap();
        assert_eq!(one.len(), 3 * jobs.len());
        cells_identical(&one, &four);
        // Cache off agrees too: the cache only changes wall clock.
        let (raw, summary) = collect(&jobs, &base.threads(2).cache(false), &policy).unwrap();
        cells_identical(&one, &raw);
        assert!(summary.cache_stats().is_none());
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

    #[test]
    fn empty_fleet_is_fine() {
        let (cells, summary) =
            collect(&[], &EngineConfig::default(), &RetranspilePolicy::Never).unwrap();
        assert!(cells.is_empty());
        assert!(summary.trace.spans.is_empty());
    }
}
