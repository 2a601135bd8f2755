//! Calibration drift: seeded random-walk timelines over an initial
//! [`Calibration`].
//!
//! Real parametrically coupled devices are recalibrated on a cadence, and
//! between recalibrations their parameters wander: `T1`/`T2` drift, edge
//! error rates creep, and occasionally a coupler dies outright. A
//! [`CalibrationTimeline`] models one such interval as a sequence of
//! epoch-stamped snapshots grown from an initial calibration by a
//! [`DriftSpec`]:
//!
//! - per epoch, every qubit's `T1` and `T2` take a **lognormal
//!   multiplicative step** with shape [`DriftSpec::qubit_sigma`], and
//!   every edge's error rate takes one with shape
//!   [`DriftSpec::edge_sigma`] (clamped to `0.5`, matching the spread
//!   generator's ceiling);
//! - [`DriftSpec::dead_edges`] **abrupt dead-edge events** fire at seeded
//!   onset epochs: the edge becomes dead
//!   ([`HOTSPOT_DEAD_ERROR`], 3× slower) when the surviving healthy edges
//!   still connect the device, and merely degraded
//!   ([`HOTSPOT_DEGRADED_ERROR`], 2× slower) when it is a bridge — the
//!   same discipline as [`Calibration::hotspot`], so a noise-aware route
//!   that refuses dead edges always exists.
//!
//! Everything is a pure function of `(initial, spec)` — the walk draws
//! from one seeded [`StdRng`] in a fixed order — so timelines are
//! bit-identical across thread counts, shards and resumes.
//!
//! # Zero volatility ≡ static, bit for bit
//!
//! With `qubit_sigma = edge_sigma = 0` and no dead edges
//! ([`DriftSpec::calm`]), every multiplicative step is *exactly* `1.0`
//! (`exp(0·z) == 1.0`) and `x * 1.0` preserves every finite or infinite
//! bit pattern, so every snapshot is bit-identical to the initial
//! calibration — a uniform calibration stays
//! [uniform](Calibration::is_uniform) and the whole pipeline degrades to
//! the static path without perturbing a single bit.
//!
//! ```
//! use paradrive_transpiler::calibration::drift::{CalibrationTimeline, DriftSpec};
//! use paradrive_transpiler::calibration::Calibration;
//! use paradrive_transpiler::fidelity::FidelityModel;
//! use paradrive_transpiler::topology::CouplingMap;
//!
//! let map = CouplingMap::grid(4, 4);
//! let cal = Calibration::uniform(&map, FidelityModel::paper());
//! let timeline = CalibrationTimeline::generate(&cal, &map, &DriftSpec::calm(3, 7)).unwrap();
//! assert_eq!(timeline.epochs(), 3);
//! assert!(timeline.snapshot(2).is_uniform());
//! ```

use super::{
    connected_without, lognormal, short, Calibration, EdgeCalibration, HOTSPOT_DEAD_ERROR,
    HOTSPOT_DEGRADED_ERROR,
};
use crate::topology::CouplingMap;
use crate::TranspileError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Parameters of one seeded drift timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftSpec {
    /// Total number of epochs, including epoch 0 (the initial
    /// calibration). Must be at least 1.
    pub epochs: usize,
    /// Lognormal shape of the per-epoch multiplicative step on every
    /// qubit's `T1` and `T2`. Zero freezes the qubits.
    pub qubit_sigma: f64,
    /// Lognormal shape of the per-epoch multiplicative step on every
    /// edge's error rate. Zero freezes the edges.
    pub edge_sigma: f64,
    /// Number of abrupt dead-edge events over the timeline, each with a
    /// seeded onset epoch in `1..epochs`.
    pub dead_edges: usize,
    /// Seed for the walk and the event schedule.
    pub seed: u64,
}

impl DriftSpec {
    /// The zero-volatility spec: no walks, no events — every snapshot is
    /// bit-identical to the initial calibration.
    pub fn calm(epochs: usize, seed: u64) -> Self {
        DriftSpec {
            epochs,
            qubit_sigma: 0.0,
            edge_sigma: 0.0,
            dead_edges: 0,
            seed,
        }
    }

    /// A symmetric random walk: `sigma` on both qubit lifetimes and edge
    /// error rates, with `dead_edges` seeded failure events.
    pub fn walk(epochs: usize, sigma: f64, dead_edges: usize, seed: u64) -> Self {
        DriftSpec {
            epochs,
            qubit_sigma: sigma,
            edge_sigma: sigma,
            dead_edges,
            seed,
        }
    }
}

/// A sequence of epoch-stamped [`Calibration`] snapshots grown from an
/// initial calibration by one [`DriftSpec`]. Snapshot 0 is the initial
/// calibration itself; snapshots share the initial label so drift runs
/// group under the same scenario name in reports.
#[derive(Debug, Clone)]
pub struct CalibrationTimeline {
    snapshots: Vec<Arc<Calibration>>,
}

impl CalibrationTimeline {
    /// Grows the timeline: validates `initial` against `map`, then walks
    /// it forward `spec.epochs - 1` times.
    ///
    /// # Errors
    ///
    /// - [`TranspileError::CalibrationMismatch`] /
    ///   [`TranspileError::InvalidCalibration`] when `initial` was not
    ///   built for `map`;
    /// - [`TranspileError::InvalidCalibration`] when a sigma is negative
    ///   or non-finite, `epochs` is zero, `dead_edges` exceeds the map's
    ///   edge count, dead-edge events are requested on a timeline too
    ///   short to schedule them (`epochs < 2`), or the walk drives a
    ///   value out of the physical range (a lifetime to zero, say).
    pub fn generate(
        initial: &Calibration,
        map: &CouplingMap,
        spec: &DriftSpec,
    ) -> Result<Self, TranspileError> {
        initial.validate_for(map)?;
        let invalid = |why: String| Err(TranspileError::InvalidCalibration(why));
        if spec.epochs == 0 {
            return invalid("drift timeline needs at least one epoch".to_string());
        }
        for (what, sigma) in [
            ("qubit_sigma", spec.qubit_sigma),
            ("edge_sigma", spec.edge_sigma),
        ] {
            if !(sigma >= 0.0 && sigma.is_finite()) {
                return invalid(format!(
                    "drift {what} must be finite and non-negative, got {sigma}"
                ));
            }
        }
        let all_edges = map.edges();
        if spec.dead_edges > all_edges.len() {
            return invalid(format!(
                "{} dead-edge events requested but the map has only {} edges",
                spec.dead_edges,
                all_edges.len()
            ));
        }
        if spec.dead_edges > 0 && spec.epochs < 2 {
            return invalid(format!(
                "{} dead-edge events need at least 2 epochs to fire in",
                spec.dead_edges
            ));
        }

        let mut rng = StdRng::seed_from_u64(spec.seed);
        // The event schedule is drawn up front so the per-epoch walk
        // consumes a fixed number of draws regardless of when events fire.
        let mut remaining = all_edges;
        let events: Vec<((usize, usize), usize)> = (0..spec.dead_edges)
            .map(|_| {
                let edge = remaining.remove(rng.gen_range(0..remaining.len()));
                let onset = rng.gen_range(1..spec.epochs);
                (edge, onset)
            })
            .collect();

        let mut current = initial.clone();
        let mut snapshots = vec![Arc::new(initial.clone())];
        for epoch in 1..spec.epochs {
            for qc in &mut current.qubits {
                // `x * 1.0` is exact for every positive value including
                // `T2 = ∞`, so a zero-sigma walk preserves bits.
                qc.t1_ns *= lognormal(&mut rng, spec.qubit_sigma);
                qc.t2_ns *= lognormal(&mut rng, spec.qubit_sigma);
            }
            for ec in current.edges.values_mut() {
                ec.error_rate = (ec.error_rate * lognormal(&mut rng, spec.edge_sigma)).min(0.5);
            }
            for &(edge, onset) in &events {
                if onset != epoch {
                    continue;
                }
                // Dead if the still-healthy edges keep the device
                // connected, degraded (a bridge) otherwise — counting
                // edges already driven to the dead threshold by earlier
                // events or the walk itself.
                let mut without: Vec<(usize, usize)> = current
                    .edges
                    .iter()
                    .filter(|(_, c)| c.error_rate >= HOTSPOT_DEAD_ERROR)
                    .map(|(&e, _)| e)
                    .collect();
                if !without.contains(&edge) {
                    without.push(edge);
                }
                let entry = current
                    .edges
                    .get_mut(&edge)
                    .expect("events are drawn from the map's edge list");
                *entry = if connected_without(map, &without) {
                    EdgeCalibration {
                        duration_factor: 3.0,
                        error_rate: HOTSPOT_DEAD_ERROR,
                    }
                } else {
                    EdgeCalibration {
                        duration_factor: 2.0,
                        error_rate: HOTSPOT_DEGRADED_ERROR,
                    }
                };
            }
            current = current.checked(|| {
                format!(
                    "drift qubit_sigma {}, edge_sigma {} at epoch {epoch}",
                    short(spec.qubit_sigma),
                    short(spec.edge_sigma)
                )
            })?;
            snapshots.push(Arc::new(current.clone()));
        }
        Ok(CalibrationTimeline { snapshots })
    }

    /// Number of epochs (snapshots), at least 1.
    pub fn epochs(&self) -> usize {
        self.snapshots.len()
    }

    /// The calibration at `epoch` (0 is the initial calibration).
    ///
    /// # Panics
    ///
    /// Panics if `epoch >= self.epochs()`.
    pub fn snapshot(&self, epoch: usize) -> &Calibration {
        &self.snapshots[epoch]
    }

    /// The calibration at `epoch`, shareable across jobs without cloning
    /// the table.
    ///
    /// # Panics
    ///
    /// Panics if `epoch >= self.epochs()`.
    pub fn snapshot_shared(&self, epoch: usize) -> Arc<Calibration> {
        Arc::clone(&self.snapshots[epoch])
    }

    /// Iterates the snapshots in epoch order.
    pub fn iter(&self) -> impl Iterator<Item = &Calibration> {
        self.snapshots.iter().map(Arc::as_ref)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fidelity::FidelityModel;

    fn paper() -> FidelityModel {
        FidelityModel::paper()
    }

    #[test]
    fn calm_timeline_is_bit_identical_to_the_initial_calibration() {
        let map = CouplingMap::grid(4, 4);
        for initial in [
            Calibration::uniform(&map, paper()),
            Calibration::hotspot(&map, paper(), 2, 11).unwrap(),
            Calibration::spread(&map, paper(), 0.3, 7).unwrap(),
        ] {
            let t = CalibrationTimeline::generate(&initial, &map, &DriftSpec::calm(4, 9)).unwrap();
            assert_eq!(t.epochs(), 4);
            for e in 0..4 {
                let snap = t.snapshot(e);
                assert_eq!(snap, &initial, "epoch {e} of {}", initial.label());
                for q in 0..map.n_qubits() {
                    assert_eq!(
                        snap.qubit(q).unwrap().t1_ns.to_bits(),
                        initial.qubit(q).unwrap().t1_ns.to_bits()
                    );
                    assert_eq!(
                        snap.qubit(q).unwrap().t2_ns.to_bits(),
                        initial.qubit(q).unwrap().t2_ns.to_bits()
                    );
                }
            }
        }
        let uniform = Calibration::uniform(&map, paper());
        let t = CalibrationTimeline::generate(&uniform, &map, &DriftSpec::calm(3, 1)).unwrap();
        assert!(t.iter().all(Calibration::is_uniform));
    }

    #[test]
    fn same_seed_same_timeline_different_seed_differs() {
        let map = CouplingMap::grid(4, 4);
        let initial = Calibration::uniform(&map, paper());
        let spec = DriftSpec::walk(5, 0.1, 2, 42);
        let a = CalibrationTimeline::generate(&initial, &map, &spec).unwrap();
        let b = CalibrationTimeline::generate(&initial, &map, &spec).unwrap();
        for e in 0..5 {
            assert_eq!(a.snapshot(e), b.snapshot(e), "epoch {e}");
        }
        let other =
            CalibrationTimeline::generate(&initial, &map, &DriftSpec::walk(5, 0.1, 2, 43)).unwrap();
        assert_ne!(a.snapshot(4), other.snapshot(4));
    }

    #[test]
    fn dead_edge_events_fire_once_and_keep_the_device_routable() {
        let map = CouplingMap::grid(4, 4);
        let initial = Calibration::uniform(&map, paper());
        let spec = DriftSpec {
            epochs: 6,
            qubit_sigma: 0.0,
            edge_sigma: 0.0,
            dead_edges: 3,
            seed: 11,
        };
        let t = CalibrationTimeline::generate(&initial, &map, &spec).unwrap();
        let dead_at = |e: usize| {
            map.edges()
                .into_iter()
                .filter(|&(a, b)| t.snapshot(e).edge(a, b).error_rate >= HOTSPOT_DEAD_ERROR)
                .collect::<Vec<_>>()
        };
        assert!(dead_at(0).is_empty(), "epoch 0 is the clean initial");
        let final_dead = dead_at(5);
        assert_eq!(final_dead.len(), 3, "grid edges are never bridges");
        assert!(connected_without(&map, &final_dead));
        // Events are monotone: once dead, an edge stays dead.
        for e in 1..6 {
            let prev = dead_at(e - 1);
            assert!(dead_at(e).iter().filter(|x| prev.contains(x)).count() == prev.len());
        }
    }

    #[test]
    fn walked_snapshots_always_validate_for_their_map() {
        let map = CouplingMap::heavy_hex(2);
        let initial = Calibration::spread(&map, paper(), 0.2, 3).unwrap();
        let spec = DriftSpec::walk(4, 0.25, 2, 5);
        let t = CalibrationTimeline::generate(&initial, &map, &spec).unwrap();
        for (e, snap) in t.iter().enumerate() {
            snap.validate_for(&map).unwrap_or_else(|err| {
                panic!("epoch {e} failed validation: {err}");
            });
            for &(a, b) in &map.edges() {
                let ec = snap.edge(a, b);
                assert!(ec.error_rate >= 0.0 && ec.error_rate <= 0.5);
                assert!(ec.duration_factor > 0.0 && ec.duration_factor.is_finite());
            }
            for q in 0..map.n_qubits() {
                let qc = snap.qubit(q).unwrap();
                assert!(qc.t1_ns > 0.0 && qc.t1_ns.is_finite());
                assert!(qc.t2_ns > 0.0);
            }
        }
    }

    #[test]
    fn invalid_specs_are_typed_errors() {
        let map = CouplingMap::grid(2, 2);
        let initial = Calibration::uniform(&map, paper());
        let bad = |spec: DriftSpec| {
            matches!(
                CalibrationTimeline::generate(&initial, &map, &spec),
                Err(TranspileError::InvalidCalibration(_))
            )
        };
        assert!(bad(DriftSpec::calm(0, 1)));
        assert!(bad(DriftSpec::walk(3, f64::NAN, 0, 1)));
        assert!(bad(DriftSpec::walk(3, -0.1, 0, 1)));
        assert!(bad(DriftSpec::walk(3, 0.1, 1000, 1)));
        assert!(bad(DriftSpec::walk(1, 0.1, 1, 1)), "no epoch to fire in");
        // A walk that drives lifetimes to zero or infinity.
        assert!(bad(DriftSpec::walk(3, 1e308, 0, 1)));
        // Mismatched map is the calibration-validation error.
        let other = CouplingMap::ring(4);
        assert!(CalibrationTimeline::generate(&initial, &other, &DriftSpec::calm(2, 1)).is_err());
    }
}
