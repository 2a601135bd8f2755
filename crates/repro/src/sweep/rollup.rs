//! Per-run summaries: [`RunRollup`] folds one (costing, verification)
//! run's cells into per-topology, per-calibration, verification and
//! fleet rollups.
//!
//! Every outcome, whether executed, resumed, restored from a journal or
//! merged from shard reports, sorts its cells by ordinal and then folds
//! each run's cells once, through one tail in `exec`. Each mean is a
//! plain `f64` sum in that order, so the same cells always give the
//! same bits, whatever thread count, shard split or resume produced
//! them.

use super::cell::SweepCell;
use paradrive_engine::{CacheStats, Trace, VerificationSummary};
use std::time::Duration;

/// One rollup group keyed by an axis label: count, SWAP total and the
/// sums behind its means. Groups keep first-seen order, which is the
/// grid's order because cells arrive sorted by ordinal.
#[derive(Debug, Clone, Default)]
struct GroupAcc {
    key: String,
    circuits: usize,
    total_swaps: usize,
    reduction: f64,
    optimized_ft: f64,
}

/// Fleet rollup for one epoch: decision counts plus the delivered-fidelity
/// sum.
#[derive(Debug, Clone, Default)]
struct EpochAcc {
    epoch: usize,
    cells: usize,
    fresh: usize,
    kept: usize,
    retrans: usize,
    delivered_ft: f64,
}

/// The entry of `accs` that `is` picks, pushed from `new` the first time.
fn entry<T>(accs: &mut Vec<T>, is: impl Fn(&T) -> bool, new: impl FnOnce() -> T) -> &mut T {
    match accs.iter().position(is) {
        Some(i) => &mut accs[i],
        None => {
            accs.push(new());
            accs.last_mut().expect("just pushed")
        }
    }
}

/// One epoch's row of a [`FleetSummary`].
#[derive(Debug, Clone, PartialEq)]
pub struct FleetEpochSummary {
    /// The epoch index (0 is the initial calibration).
    pub epoch: usize,
    /// Fleet cells at this epoch.
    pub cells: usize,
    /// Cells transpiled fresh (epoch 0).
    pub fresh: usize,
    /// Cells that kept their cached route.
    pub kept: usize,
    /// Cells the policy re-transpiled.
    pub retranspiled: usize,
    /// Mean delivered (optimized total) fidelity at this epoch.
    pub mean_delivered_ft: f64,
    /// Fraction of this epoch's cells that reused their cached route —
    /// the deterministic cache-hit-decay signal (0 at epoch 0).
    pub route_reuse_rate: f64,
}

/// The fleet rollup of one engine run: per-epoch decision mix and
/// delivered fidelity, plus the run-wide policy metrics. `None` on
/// static (driftless) runs.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSummary {
    /// Per-epoch rows in epoch order.
    pub epochs: Vec<FleetEpochSummary>,
    /// Mean delivered fidelity over every (cell, epoch) — the fleet's
    /// quality metric.
    pub mean_delivered_ft: f64,
    /// Total re-transpiles ordered after epoch 0 — the policy's cost.
    pub total_retranspiles: usize,
    /// Fraction of post-epoch-0 decisions that re-transpiled (`NaN` with
    /// fewer than two epochs).
    pub retranspile_rate: f64,
}

/// Aggregate outcome for every cell of a run sharing one coupling
/// topology.
#[derive(Debug, Clone, PartialEq)]
pub struct TopologySummary {
    /// Topology label (see `CouplingMap::label`).
    pub topology: String,
    /// Number of cells routed on this topology.
    pub circuits: usize,
    /// Total SWAPs inserted across those cells.
    pub total_swaps: usize,
    /// Mean duration reduction over those cells, percent.
    pub mean_reduction_pct: f64,
}

/// Aggregate outcome for every cell of a run sharing one device
/// calibration.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationSummary {
    /// Calibration label (see `Calibration::label`).
    pub calibration: String,
    /// Number of cells scored under this calibration.
    pub circuits: usize,
    /// Total SWAPs inserted across those cells.
    pub total_swaps: usize,
    /// Mean duration reduction over those cells, percent.
    pub mean_reduction_pct: f64,
    /// Mean optimized total fidelity `F_T` over those cells — the
    /// headline number noise-aware routing is judged on. The per-wire
    /// decay term uses the circuit's initial-layout wires (Eq. 11's
    /// convention, kept for bit-compatibility with the homogeneous
    /// model); routing quality enters through the duration and the
    /// per-edge gate-error survival product.
    pub mean_optimized_ft: f64,
}

/// The rollup state for one (costing, verification) engine run:
/// [`RunRollup::absorb`] adds one [`SweepCell`] to every sum it joins.
/// Sums are plain `f64` additions in absorb order, so the summaries are a
/// function of the cells *and their order*; the sweep absorbs each run's
/// cells in ordinal order.
#[derive(Debug, Clone, Default)]
pub struct RunRollup {
    by_topology: Vec<GroupAcc>,
    by_calibration: Vec<GroupAcc>,
    verification: Option<VerificationSummary>,
    fleet: Vec<EpochAcc>,
    /// Delivered fidelity summed over every fleet cell.
    delivered_ft: f64,
}

impl RunRollup {
    /// An empty rollup.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one completed cell into the rollup.
    pub fn absorb(&mut self, cell: &SweepCell) {
        for (groups, key) in [
            (&mut self.by_topology, &cell.topology),
            (&mut self.by_calibration, &cell.calibration),
        ] {
            let g = entry(
                groups,
                |g| g.key == *key,
                || GroupAcc {
                    key: key.clone(),
                    ..GroupAcc::default()
                },
            );
            g.circuits += 1;
            g.total_swaps += cell.swaps;
            g.reduction += cell.reduction_pct;
            g.optimized_ft += cell.optimized_ft;
        }
        if let Some(v) = &cell.verification {
            self.verification = VerificationSummary::fold(self.verification.take(), v);
        }
        if cell.decision != "-" {
            let acc = entry(
                &mut self.fleet,
                |e| e.epoch == cell.epoch,
                || EpochAcc {
                    epoch: cell.epoch,
                    ..EpochAcc::default()
                },
            );
            acc.cells += 1;
            match cell.decision {
                "fresh" => acc.fresh += 1,
                "kept" => acc.kept += 1,
                "retrans" => acc.retrans += 1,
                _ => {}
            }
            acc.delivered_ft += cell.optimized_ft;
            self.delivered_ft += cell.optimized_ft;
        }
    }

    /// Per-topology summaries in first-absorbed order: the grid's order
    /// when cells are absorbed by ordinal.
    pub fn by_topology(&self) -> Vec<TopologySummary> {
        self.by_topology
            .iter()
            .map(|g| TopologySummary {
                topology: g.key.clone(),
                circuits: g.circuits,
                total_swaps: g.total_swaps,
                mean_reduction_pct: g.reduction / g.circuits as f64,
            })
            .collect()
    }

    /// Per-calibration summaries, ordered like [`RunRollup::by_topology`].
    pub fn by_calibration(&self) -> Vec<CalibrationSummary> {
        self.by_calibration
            .iter()
            .map(|g| CalibrationSummary {
                calibration: g.key.clone(),
                circuits: g.circuits,
                total_swaps: g.total_swaps,
                mean_reduction_pct: g.reduction / g.circuits as f64,
                mean_optimized_ft: g.optimized_ft / g.circuits as f64,
            })
            .collect()
    }

    /// The run's fleet rollup, or `None` when no absorbed cell carried a
    /// fleet decision (a static, driftless run).
    pub fn fleet(&self) -> Option<FleetSummary> {
        if self.fleet.is_empty() {
            return None;
        }
        // Ordinals run epoch-innermost, so a shard's cells can reach a
        // later epoch before an earlier one: sort the rows.
        let mut epochs: Vec<FleetEpochSummary> = self
            .fleet
            .iter()
            .map(|e| FleetEpochSummary {
                epoch: e.epoch,
                cells: e.cells,
                fresh: e.fresh,
                kept: e.kept,
                retranspiled: e.retrans,
                mean_delivered_ft: e.delivered_ft / e.cells as f64,
                route_reuse_rate: e.kept as f64 / e.cells as f64,
            })
            .collect();
        epochs.sort_by_key(|e| e.epoch);
        let cells: usize = epochs.iter().map(|e| e.cells).sum();
        let late = || epochs.iter().filter(|e| e.epoch > 0);
        let total_retranspiles = late().map(|e| e.retranspiled).sum();
        let late_decisions: usize = late().map(|e| e.cells).sum();
        Some(FleetSummary {
            mean_delivered_ft: self.delivered_ft / cells as f64,
            total_retranspiles,
            retranspile_rate: total_retranspiles as f64 / late_decisions as f64,
            epochs,
        })
    }

    /// The run-wide verification rollup, or `None` when no absorbed cell
    /// carried a verdict (verification off).
    pub fn verification(&self) -> Option<VerificationSummary> {
        self.verification.clone()
    }
}

/// The aggregate outcome of one engine run (one costing discipline at one
/// verification level).
#[derive(Debug, Clone)]
pub struct SweepRun {
    /// Costing discipline label.
    pub costing: &'static str,
    /// Verification level label.
    pub verify: &'static str,
    /// Worker threads the run used (timing-only; zero when every cell of
    /// the run was restored from a journal and no engine run happened).
    pub threads: usize,
    /// Batch wall clock (timing-only).
    pub wall_clock: Duration,
    /// Combined decomposition-cache counters, if caching was on.
    /// Diagnostics-only: per-shard caches see different lookup subsets,
    /// so these counters are *not* shard-invariant and stay out of the
    /// deterministic render.
    pub cache: Option<CacheStats>,
    /// Per-topology rollups in grid order.
    pub by_topology: Vec<TopologySummary>,
    /// Per-calibration rollups in grid order.
    pub by_calibration: Vec<CalibrationSummary>,
    /// Batch-wide verification rollup (`None` with verification off).
    pub verification: Option<VerificationSummary>,
    /// Fleet rollup: per-epoch decision mix, delivered fidelity, and the
    /// policy's re-transpile cost (`None` on static runs).
    pub fleet: Option<FleetSummary>,
    /// The run's execution trace, with every span relabeled to its
    /// deterministic cell label (timing-only — see
    /// [`super::SweepOutcome::merged_trace`] for the whole-sweep export).
    pub trace: Trace,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(ordinal: u64, topology: &str, calibration: &str, reduction: f64) -> SweepCell {
        SweepCell {
            ordinal,
            digest: ordinal ^ 0xabcd,
            topology: topology.to_string(),
            calibration: calibration.to_string(),
            benchmark: "GHZ".to_string(),
            costing: "hull",
            verify: "off",
            verification: None,
            suite_seed: 7,
            epoch: 0,
            decision: "-",
            swaps: 2,
            depth: 10,
            blocks: 12,
            baseline_duration: 10.0,
            optimized_duration: 10.0 * (1.0 - reduction / 100.0),
            reduction_pct: reduction,
            ft_improvement_pct: 1.0,
            optimized_ft: 0.9,
            wall: Duration::ZERO,
        }
    }

    /// A rollup of `cells`, absorbed in `order`.
    fn absorbed(cells: &[SweepCell], order: &[usize]) -> RunRollup {
        let mut r = RunRollup::new();
        for &i in order {
            r.absorb(&cells[i]);
        }
        r
    }

    #[test]
    fn rollup_groups_order_by_min_ordinal_and_absorb_commutes() {
        let cells = [
            cell(0, "grid4x4", "uniform", 10.0),
            cell(1, "grid4x4", "hotspot2", 30.0),
            cell(2, "ring16", "uniform", 20.0),
            cell(3, "ring16", "hotspot2", 40.0),
        ];
        // Absorbed in ordinal order, groups come out in grid order.
        let whole = absorbed(&cells, &[0, 1, 2, 3]);
        let topo = whole.by_topology();
        assert_eq!(topo.len(), 2);
        assert_eq!(topo[0].topology, "grid4x4"); // min ordinal 0
        assert_eq!(topo[1].topology, "ring16");
        assert_eq!(topo[0].circuits, 2);
        assert_eq!(topo[0].total_swaps, 4);
        assert!((topo[0].mean_reduction_pct - 20.0).abs() < 1e-12);
        let cal = whole.by_calibration();
        assert_eq!(cal[0].calibration, "uniform");
        assert!((cal[1].mean_reduction_pct - 35.0).abs() < 1e-12);
        assert!((cal[0].mean_optimized_ft - 0.9).abs() < 1e-12);
        assert!(whole.verification().is_none());
    }

    #[test]
    fn fleet_rollup_counts_decisions_and_absorb_commutes() {
        // Static cells never create a fleet rollup.
        let mut plain = RunRollup::new();
        plain.absorb(&cell(0, "grid4x4", "uniform", 10.0));
        assert!(plain.fleet().is_none());

        // Two jobs × three epochs: fresh/fresh, kept/retrans, kept/kept.
        let mk = |ordinal: u64, epoch: usize, decision: &'static str, ft: f64| {
            let mut c = cell(ordinal, "grid4x4", "uniform", 10.0);
            c.epoch = epoch;
            c.decision = decision;
            c.optimized_ft = ft;
            c
        };
        let cells = [
            mk(0, 0, "fresh", 0.9),
            mk(1, 1, "kept", 0.8),
            mk(2, 2, "kept", 0.7),
            mk(3, 0, "fresh", 0.9),
            mk(4, 1, "retrans", 0.88),
            mk(5, 2, "kept", 0.86),
        ];
        let fleet = absorbed(&cells, &[0, 1, 2, 3, 4, 5]).fleet().unwrap();
        assert_eq!(fleet.epochs.len(), 3);
        let e0 = &fleet.epochs[0];
        assert_eq!((e0.cells, e0.fresh, e0.kept, e0.retranspiled), (2, 2, 0, 0));
        assert_eq!(e0.route_reuse_rate, 0.0);
        let e1 = &fleet.epochs[1];
        assert_eq!((e1.kept, e1.retranspiled), (1, 1));
        assert!((e1.route_reuse_rate - 0.5).abs() < 1e-12);
        assert!((e1.mean_delivered_ft - 0.84).abs() < 1e-12);
        assert_eq!(fleet.epochs[2].route_reuse_rate, 1.0);
        assert_eq!(fleet.total_retranspiles, 1);
        assert!((fleet.retranspile_rate - 0.25).abs() < 1e-12);
        let grand_mean = (0.9 + 0.8 + 0.7 + 0.9 + 0.88 + 0.86) / 6.0;
        assert!((fleet.mean_delivered_ft - grand_mean).abs() < 1e-12);

        // Shard 0 of a 2-shard split holds ordinals 0, 2 and 4, which
        // reach epochs 0, 2 and 1: the rows still come out by epoch.
        let shard0 = absorbed(&cells, &[0, 2, 4]).fleet().unwrap();
        let epochs: Vec<usize> = shard0.epochs.iter().map(|e| e.epoch).collect();
        assert_eq!(epochs, [0, 1, 2]);
        assert_eq!(shard0.epochs[1].retranspiled, 1);
        assert_eq!(shard0.epochs[2].kept, 1);
        assert_eq!(shard0.total_retranspiles, 1);
        assert!((shard0.retranspile_rate - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rollup_verification_counts_and_min_fidelity() {
        use paradrive_engine::Verification;
        let mut a = cell(0, "grid4x4", "uniform", 10.0);
        a.verification = Some(Verification::Exact {
            fidelity: 1.0,
            columns: 16,
            width: 4,
            passed: true,
        });
        let mut b = cell(1, "grid4x4", "uniform", 10.0);
        b.verification = Some(Verification::Sampled {
            min_fidelity: 0.5,
            samples: 4,
            width: 16,
            passed: false,
        });
        let both = [a, b];
        let v = absorbed(&both, &[0, 1]).verification().unwrap();
        assert_eq!(absorbed(&both, &[1, 0]).verification().unwrap(), v);
        assert_eq!((v.exact, v.sampled, v.failed), (1, 1, 1));
        assert!((v.min_fidelity - 0.5).abs() < 1e-12);
        assert!(!v.all_passed());
        // All-skipped rolls up with NaN fidelity.
        let mut c = cell(2, "ring16", "uniform", 5.0);
        c.verification = Some(Verification::Skipped {
            reason: "off".to_string(),
        });
        let mut only_skip = RunRollup::new();
        only_skip.absorb(&c);
        let v = only_skip.verification().unwrap();
        assert_eq!(v.skipped, 1);
        assert!(v.min_fidelity.is_nan());
    }
}
