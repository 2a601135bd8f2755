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
//! Each epoch is one pass through the engine's worker pool, and that
//! pass does all of the epoch's work: the re-transpiled jobs' routing
//! units and back halves, their sample units under
//! [`VerifyLevel::Sampled`](crate::VerifyLevel::Sampled), and one
//! re-score unit per kept job. A routed job's adoption — its new route's
//! survival under the epoch's calibration, plus the consolidated items it
//! carries — is taken in the pool's sink on the worker that finished the
//! job. Only the policy decisions and the in-order emission run on the
//! calling thread. The pool builds each noise-aware routing oracle once
//! per `(map, calibration snapshot)` pair, so the jobs of one timeline
//! share it within an epoch, and the fleet keeps one Weyl-point memo per
//! worker slot across all its epochs.
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
use crate::engine::{run_pool, PoolWork, Rescore, WeylMemos};
use crate::report::{BatchSummary, CircuitReport};
use crate::EngineError;
use paradrive_circuit::Circuit;
use paradrive_core::flow::BenchmarkResult;
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

/// One job's epoch, as the worker that finished it leaves it.
enum EpochCell {
    /// A fresh or re-transpiled job: its report, its consolidated items,
    /// and its route's survival under the epoch's calibration — all its
    /// adoption needs.
    Routed(CircuitReport, Vec<Item>, f64),
    /// A kept job's re-scored result.
    Kept(BenchmarkResult),
}

/// Replays every job's calibration timeline epoch by epoch under one
/// re-transpilation `policy`, handing every `(epoch, job, decision,
/// report)` cell to `sink`.
///
/// Epoch 0 transpiles every job fresh; later epochs consult the policy
/// per job (see [`RetranspilePolicy`]) on the calling thread. Each epoch
/// then runs one engine pool: the re-transpiled jobs go through the
/// full pipeline, and each kept job re-scores its cached consolidated
/// items under the new calibration as one unit of the same pool,
/// without routing. Re-transpiled jobs are adopted on the worker that
/// finished them. Kept jobs carry their adoption verification verdict
/// forward — the routed circuit is unchanged, so the verdict is too.
/// One warm [`DecompositionCache`] pair and one Weyl-point memo per
/// worker slot serve every epoch, and each epoch's pool builds one
/// noise-aware routing oracle per `(map, calibration snapshot)` pair it
/// routes.
///
/// The sink runs on the calling thread, in epoch order and, within an
/// epoch, in job submission order. Reports keep their routed circuit
/// only under [`EngineConfig::keep_routed`], and carry zero
/// `route_time`/`pipeline_time`. The returned summary holds the
/// configured worker count, the fleet wall clock, the shared cache
/// pair's cumulative counters, and the merged trace: every epoch's
/// spans shifted onto one timeline and keyed by fleet job index, its
/// counters prefixed `epochN.`, per-epoch
/// `fleet.epochN.{fresh,kept,retranspiled}` decision counters, and
/// `fleet.route.oracles`, the oracles built over all epochs.
///
/// # Errors
///
/// [`EngineError::Fleet`] when the jobs disagree on epoch count, and
/// the [`EngineError::Job`] of the first job, in submission order, that
/// fails in an epoch (invalid calibration, unroutable circuit, a score
/// that overflows, …). The sink has then seen every earlier epoch and
/// none of the failing one.
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

    // One warm cache pair and one set of Weyl memos for the whole fleet:
    // re-transpiles at late epochs revisit the Weyl classes and the
    // blocks epoch 0 already decomposed.
    let caches = config
        .cache
        .then(|| (DecompositionCache::new(), DecompositionCache::new()));
    let cache_refs = caches.as_ref().map(|(b, o)| (b, o));
    let memos = WeylMemos::new(config.effective_threads());
    // Re-transpiled jobs must keep routed circuits — the cached route
    // *is* the fleet's working state; the caller's `keep_routed` governs
    // only what the emitted reports retain.
    let inner = config.keep_routed(true);

    let mut adopted: Vec<Option<Adopted>> = (0..jobs.len()).map(|_| None).collect();
    let mut trace = Trace::default();
    let mut oracles = 0;

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

        // The epoch's one pool: the stale jobs route as a batch, and the
        // kept jobs re-score their cached items as units of the same pool.
        let (stale, kept): (Vec<usize>, Vec<usize>) =
            (0..jobs.len()).partition(|&j| decisions[j] != EpochDecision::Kept);
        let mut batch = Batch::with_shared(Arc::clone(&jobs[0].map));
        for &j in &stale {
            let job = &jobs[j];
            batch.push_calibrated(
                job.name.clone(),
                job.circuit.clone(),
                Arc::clone(&job.map),
                job.timeline.snapshot_shared(epoch),
            );
        }
        let rescores: Vec<Rescore<'_>> = kept
            .iter()
            .map(|&j| {
                let (job, cached) = (&jobs[j], adopted[j].as_ref().expect("adopted at epoch 0"));
                Rescore {
                    key: j,
                    name: &job.name,
                    items: &cached.items,
                    swaps: cached.swaps,
                    device_qubits: job.map.n_qubits(),
                    logical_qubits: job.circuit.n_qubits(),
                    cal: job.timeline.snapshot(epoch),
                }
            })
            .collect();

        // Workers fill one slot per job: a routed job's report, items and
        // survival (its adoption), or a kept job's re-scored result.
        let slots: Vec<Mutex<Option<EpochCell>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
        let fill = |j: usize, cell| *slots[j].lock().expect("report slot poisoned") = Some(cell);
        let finished = |i: usize, report: CircuitReport, items: Vec<Item>| {
            let j = stale[i];
            let routed = report
                .routed
                .as_ref()
                .expect("fleet batches keep routed circuits");
            let survival = jobs[j].timeline.snapshot(epoch).routed_survival(routed);
            fill(j, EpochCell::Routed(report, items, survival));
        };
        let rescored = |i: usize, result| fill(kept[i], EpochCell::Kept(result));
        let work = PoolWork {
            batch: &batch,
            keys: Some(&stale),
            finished: &finished,
            rescores: &rescores,
            rescored: &rescored,
        };
        let mut sub = run_pool(&work, &inner, cache_refs, &memos)?.trace;
        oracles += sub.counter("route.oracles").unwrap_or(0);
        sub.shift(trace.end_ns());
        sub.prefix_counters(&format!("epoch{epoch}."));
        trace.merge(sub);

        // Emit the epoch in job order and adopt the new routes. A kept
        // job carries its adoption verification verdict forward.
        for (j, slot) in slots.into_iter().enumerate() {
            let cell = slot
                .into_inner()
                .expect("report slot poisoned")
                .expect("every job of a successful epoch reports");
            let report = match cell {
                EpochCell::Routed(mut report, items, survival) => {
                    let routed = if config.keep_routed {
                        report.routed.clone()
                    } else {
                        report.routed.take()
                    };
                    adopted[j] = Some(Adopted {
                        routed: routed.expect("fleet batches keep routed circuits"),
                        items,
                        swaps: report.result.swaps,
                        survival,
                        verification: report.verification.clone(),
                    });
                    report
                }
                EpochCell::Kept(result) => {
                    let (job, cached) =
                        (&jobs[j], adopted[j].as_ref().expect("adopted at epoch 0"));
                    CircuitReport {
                        result,
                        topology: job.map.label().to_string(),
                        calibration: job.timeline.snapshot(epoch).label().to_string(),
                        routed: config.keep_routed.then(|| cached.routed.clone()),
                        verification: cached.verification.clone(),
                        route_time: Duration::ZERO,
                        pipeline_time: Duration::ZERO,
                    }
                }
            };
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
    use crate::run_batch;
    use paradrive_circuit::benchmarks;
    use paradrive_transpiler::calibration::drift::DriftSpec;
    use paradrive_transpiler::calibration::Calibration;
    use paradrive_transpiler::fidelity::FidelityModel;
    use paradrive_transpiler::TranspileError;
    use paradrive_verify::VerifyLevel;

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

    /// Every cell of a drifting fleet is bit-identical at 1, 2 and 4
    /// threads, with the cache on or off, and with verification off or
    /// sampled — where a mixed epoch's routing, sample and kept units all
    /// share one pool.
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
        let policy = RetranspilePolicy::Adaptive {
            max_fidelity_loss: 0.02,
        };
        for verify in [VerifyLevel::Off, VerifyLevel::Sampled] {
            let base = EngineConfig::default()
                .routing_seeds(3)
                .keep_routed(true)
                .noise_aware(true)
                .verify(verify)
                .verify_samples(3);
            let (one, _) = collect(&jobs, &base.threads(1), &policy).unwrap();
            assert_eq!(one.len(), 3 * jobs.len());
            let mixed = (1..3).any(|epoch| {
                let decided = |d| one.iter().any(|c| c.0 == epoch && c.2 == d);
                decided(EpochDecision::Kept) && decided(EpochDecision::Retranspiled)
            });
            assert!(mixed, "no epoch mixes kept and re-transpiled jobs");
            for threads in [2, 4] {
                let (many, _) = collect(&jobs, &base.threads(threads), &policy).unwrap();
                cells_identical(&one, &many);
            }
            // Cache off agrees too: the cache only changes wall clock.
            let (raw, summary) = collect(&jobs, &base.threads(2).cache(false), &policy).unwrap();
            cells_identical(&one, &raw);
            assert!(summary.cache_stats().is_none());
            if verify == VerifyLevel::Sampled {
                assert!(one.iter().all(|c| c.3.verification.is_some()));
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

    /// A failing epoch reports its first failing job in submission order,
    /// and the sink sees none of it.
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
        let mut cells = 0;
        let err = run_fleet(
            &jobs,
            &EngineConfig::default().routing_seeds(2).threads(2),
            &RetranspilePolicy::Never,
            &mut |_, _, _, _| cells += 1,
        )
        .unwrap_err();
        let EngineError::Job { job, source } = err else {
            panic!("expected a job error, got {err}");
        };
        assert_eq!(job, "bad-a");
        assert!(matches!(source, TranspileError::InvalidCalibration(_)));
        assert_eq!(cells, 0);
    }

    #[test]
    fn empty_fleet_is_fine() {
        let (cells, summary) =
            collect(&[], &EngineConfig::default(), &RetranspilePolicy::Never).unwrap();
        assert!(cells.is_empty());
        assert!(summary.trace.spans.is_empty());
    }
}
