//! Per-device calibration: heterogeneous qubit lifetimes, gate durations
//! and edge error rates, with seeded scenario generators.
//!
//! The paper's fidelity story (Eqs. 10–11) assumes a *homogeneous* device:
//! one global `T1` and one iSWAP duration ([`FidelityModel`]). Real
//! parametrically coupled devices are heterogeneous — per-qubit lifetimes
//! and per-edge gate errors vary by multiples — so a [`Calibration`]
//! attaches to a [`CouplingMap`]:
//!
//! - per **qubit**: relaxation `T1`, dephasing `T2`, and a 1Q-duration
//!   factor ([`QubitCalibration`]);
//! - per **edge**: a 2Q-duration factor and a per-gate error rate
//!   ([`EdgeCalibration`]).
//!
//! Four deterministic scenario families generate calibrations:
//!
//! | Generator | Scenario |
//! |---|---|
//! | [`Calibration::uniform`] | the paper's homogeneous device — bit-identical to the legacy [`FidelityModel`] pipeline |
//! | [`Calibration::spread`] | seeded lognormal variation on every qubit and edge |
//! | [`Calibration::hotspot`] | a few dead/degraded edges on an otherwise clean device |
//! | [`Calibration::gradient`] | quality decays across the qubit index — on [`CouplingMap::modular`], later chips and inter-chip links pay most |
//!
//! Every generator is a pure function of its inputs (seeded [`StdRng`],
//! no ambient randomness), so batch reports built from calibrations stay
//! bit-identical at any thread count.
//!
//! # Uniform calibration ≡ legacy model
//!
//! ```
//! use paradrive_transpiler::calibration::Calibration;
//! use paradrive_transpiler::fidelity::FidelityModel;
//! use paradrive_transpiler::topology::CouplingMap;
//!
//! let map = CouplingMap::grid(4, 4);
//! let model = FidelityModel::paper();
//! let cal = Calibration::uniform(&map, model);
//! // Same bits, not just "close": the calibrated path degrades to Eq. 11.
//! assert_eq!(
//!     cal.total_fidelity(118.4, 16).unwrap().to_bits(),
//!     model.total_fidelity(118.4, 16).to_bits(),
//! );
//! ```
//!
//! Calibrations drift between recalibrations: the [`drift`] submodule
//! grows a seeded random-walk [`drift::CalibrationTimeline`] of
//! epoch-stamped snapshots out of any initial calibration.

pub mod drift;

use crate::consolidate::Item;
use crate::fidelity::FidelityModel;
use crate::topology::CouplingMap;
use crate::TranspileError;
use paradrive_circuit::{Circuit, Op};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Calibrated per-qubit properties.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QubitCalibration {
    /// Relaxation time `T1`, in nanoseconds.
    pub t1_ns: f64,
    /// Dephasing time `T2`, in nanoseconds (`INFINITY` disables the
    /// dephasing term, recovering Eq. 10 exactly).
    pub t2_ns: f64,
    /// Multiplier on the device's nominal 1Q-layer duration.
    pub d1q_factor: f64,
}

/// Calibrated per-edge properties.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeCalibration {
    /// Multiplier on the nominal 2Q pulse duration for gates on this edge.
    pub duration_factor: f64,
    /// Per-2Q-gate error probability in `[0, 1)`.
    pub error_rate: f64,
}

impl EdgeCalibration {
    /// The clean-edge default: nominal speed, no gate error.
    pub fn nominal() -> Self {
        EdgeCalibration {
            duration_factor: 1.0,
            error_rate: 0.0,
        }
    }
}

/// A device calibration: a [`FidelityModel`] baseline plus per-qubit and
/// per-edge deviations, attached to one [`CouplingMap`]'s shape.
///
/// The baseline supplies the nominal iSWAP duration and `T1`; qubits and
/// edges record deviations from it. [`Calibration::uniform`] has no
/// deviations and reproduces the homogeneous pipeline bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct Calibration {
    label: String,
    base: FidelityModel,
    qubits: Vec<QubitCalibration>,
    edges: BTreeMap<(usize, usize), EdgeCalibration>,
}

/// Error rate on a dead [`Calibration::hotspot`] edge; noise-aware routing
/// refuses to schedule gates on edges at or above
/// [`crate::routing::RouterOptions::dead_edge_threshold`].
pub const HOTSPOT_DEAD_ERROR: f64 = 0.25;

/// Error rate on a degraded hotspot edge (a bridge that cannot be killed
/// without disconnecting the device) — below the default dead-edge
/// threshold, so routing may still cross it at a penalty.
pub const HOTSPOT_DEGRADED_ERROR: f64 = 0.05;

fn edge_key(a: usize, b: usize) -> (usize, usize) {
    (a.min(b), a.max(b))
}

impl Calibration {
    /// The homogeneous calibration: every qubit at the baseline `T1` (no
    /// dephasing), every edge at nominal speed with zero error. The whole
    /// calibrated pipeline — scheduling, fidelity, routing — degrades to
    /// the legacy homogeneous arithmetic bit for bit.
    pub fn uniform(map: &CouplingMap, base: FidelityModel) -> Self {
        let qubits = vec![
            QubitCalibration {
                t1_ns: base.t1_ns,
                t2_ns: f64::INFINITY,
                d1q_factor: 1.0,
            };
            map.n_qubits()
        ];
        let edges = map
            .edges()
            .into_iter()
            .map(|e| (e, EdgeCalibration::nominal()))
            .collect();
        Calibration {
            label: "uniform".to_string(),
            base,
            qubits,
            edges,
        }
    }

    /// Seeded lognormal spread: each qubit's `T1` and 1Q duration and each
    /// edge's 2Q duration and error rate vary multiplicatively with shape
    /// parameter `sigma` (`sigma = 0` reproduces near-uniform values).
    /// `T2` is pinned at `1.5 × T1` and per-edge errors spread around the
    /// single-pulse decoherence floor `1 − exp(−2·D[iSWAP]/T1)`.
    ///
    /// # Errors
    ///
    /// Returns [`TranspileError::InvalidCalibration`] when `sigma` is
    /// negative or non-finite, or so large that a generated value leaves
    /// the physical range: a lifetime that is not positive, or a duration
    /// factor that is not positive or overflows in nanoseconds.
    pub fn spread(
        map: &CouplingMap,
        base: FidelityModel,
        sigma: f64,
        seed: u64,
    ) -> Result<Self, TranspileError> {
        if !(sigma >= 0.0 && sigma.is_finite()) {
            return Err(TranspileError::InvalidCalibration(format!(
                "spread sigma must be finite and non-negative, got {sigma}"
            )));
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cal = Calibration::uniform(map, base);
        // `{}` on f64 prints the shortest string that parses back to the
        // same value, so labels round-trip through `parse_calibration`.
        cal.label = format!("spread{sigma}");
        for q in &mut cal.qubits {
            let t1 = base.t1_ns * lognormal(&mut rng, sigma);
            q.t1_ns = t1;
            q.t2_ns = 1.5 * t1;
            q.d1q_factor = lognormal(&mut rng, sigma / 2.0);
        }
        let floor = pulse_error_floor(base);
        for e in cal.edges.values_mut() {
            e.duration_factor = lognormal(&mut rng, sigma / 2.0);
            e.error_rate = (floor * lognormal(&mut rng, sigma)).min(0.5);
        }
        cal.checked(|| format!("spread sigma {}", short(sigma)))
    }

    /// A clean device with `k` seeded hotspot edges. Each picked edge is
    /// **dead** ([`HOTSPOT_DEAD_ERROR`], 3× slower) when the remaining
    /// healthy edges still connect the device, and merely **degraded**
    /// ([`HOTSPOT_DEGRADED_ERROR`], 2× slower) when it is a bridge — so a
    /// noise-aware route that refuses dead edges always exists, even on a
    /// ring or line where every edge is a bridge.
    ///
    /// # Errors
    ///
    /// Returns [`TranspileError::InvalidCalibration`] when `k` exceeds the
    /// map's edge count.
    pub fn hotspot(
        map: &CouplingMap,
        base: FidelityModel,
        k: usize,
        seed: u64,
    ) -> Result<Self, TranspileError> {
        let all = map.edges();
        if k > all.len() {
            return Err(TranspileError::InvalidCalibration(format!(
                "{k} hotspot edges requested but the map has only {}",
                all.len()
            )));
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cal = Calibration::uniform(map, base);
        cal.label = format!("hotspot{k}");
        let mut remaining = all;
        let mut dead: Vec<(usize, usize)> = Vec::new();
        for _ in 0..k {
            let pick = remaining.remove(rng.gen_range(0..remaining.len()));
            let entry = cal.edges.get_mut(&pick).expect("picked a real edge");
            let mut without = dead.clone();
            without.push(pick);
            if connected_without(map, &without) {
                dead.push(pick);
                *entry = EdgeCalibration {
                    duration_factor: 3.0,
                    error_rate: HOTSPOT_DEAD_ERROR,
                };
            } else {
                *entry = EdgeCalibration {
                    duration_factor: 2.0,
                    error_rate: HOTSPOT_DEGRADED_ERROR,
                };
            }
        }
        Ok(cal)
    }

    /// A deterministic quality gradient across the qubit index: `T1`
    /// shrinks as `T1 / (1 + strength·q/(n−1))`, 1Q gates slow down with
    /// the same fraction, and each edge's error grows with both its
    /// midpoint position and its index **span** `|a − b|/n`. On
    /// [`CouplingMap::modular`] the inter-chip links are exactly the
    /// long-span edges, so this family models chip-boundary penalties.
    ///
    /// # Errors
    ///
    /// Returns [`TranspileError::InvalidCalibration`] when `strength` is
    /// negative or non-finite, or so large that a generated value leaves
    /// the physical range, as for [`Calibration::spread`].
    pub fn gradient(
        map: &CouplingMap,
        base: FidelityModel,
        strength: f64,
    ) -> Result<Self, TranspileError> {
        if !(strength >= 0.0 && strength.is_finite()) {
            return Err(TranspileError::InvalidCalibration(format!(
                "gradient strength must be finite and non-negative, got {strength}"
            )));
        }
        let mut cal = Calibration::uniform(map, base);
        cal.label = format!("gradient{strength}");
        let n = map.n_qubits();
        let frac = |q: usize| {
            if n > 1 {
                q as f64 / (n - 1) as f64
            } else {
                0.0
            }
        };
        for (q, qc) in cal.qubits.iter_mut().enumerate() {
            let depth = 1.0 + strength * frac(q);
            qc.t1_ns = base.t1_ns / depth;
            qc.t2_ns = 1.5 * qc.t1_ns;
            qc.d1q_factor = depth.sqrt();
        }
        let floor = pulse_error_floor(base);
        for (&(a, b), e) in cal.edges.iter_mut() {
            let mid = (frac(a) + frac(b)) / 2.0;
            let span = (b - a) as f64 / n as f64;
            e.error_rate = (floor * strength * (mid + 4.0 * span)).min(0.5);
            e.duration_factor = 1.0 + strength * span;
        }
        cal.checked(|| format!("gradient strength {}", short(strength)))
    }

    /// The first generated value outside the physical range, described
    /// for an error message: a lifetime that is not positive, a duration
    /// factor that is not positive or whose nominal gate time overflows
    /// in nanoseconds, or an error rate outside `[0, 1)`. `None` when
    /// every value is physical. The generators check this, so a parameter
    /// that overflows fails before any job routes.
    fn unphysical(&self) -> Option<String> {
        let positive = |x: f64| x > 0.0;
        let duration_ok = |factor: f64| positive(factor) && self.base.to_ns(factor).is_finite();
        for (q, qc) in self.qubits.iter().enumerate() {
            for (what, t) in [("T1", qc.t1_ns), ("T2", qc.t2_ns)] {
                if !positive(t) {
                    return Some(format!("qubit {q} a non-positive {what} ({} ns)", short(t)));
                }
            }
            if !duration_ok(qc.d1q_factor) {
                return Some(format!(
                    "qubit {q} a 1Q duration factor of {} ({} ns per nominal pulse)",
                    short(qc.d1q_factor),
                    short(self.base.to_ns(qc.d1q_factor))
                ));
            }
        }
        for (&(a, b), ec) in &self.edges {
            if !duration_ok(ec.duration_factor) {
                return Some(format!(
                    "edge ({a},{b}) a 2Q duration factor of {} ({} ns per nominal pulse)",
                    short(ec.duration_factor),
                    short(self.base.to_ns(ec.duration_factor))
                ));
            }
            if !(0.0..1.0).contains(&ec.error_rate) {
                return Some(format!(
                    "edge ({a},{b}) an error rate outside [0, 1) ({})",
                    short(ec.error_rate)
                ));
            }
        }
        None
    }

    /// `self` when [`Calibration::unphysical`] finds nothing, else an
    /// [`TranspileError::InvalidCalibration`] naming the generator
    /// parameter `param` describes.
    fn checked(self, param: impl FnOnce() -> String) -> Result<Self, TranspileError> {
        match self.unphysical() {
            None => Ok(self),
            Some(what) => Err(TranspileError::InvalidCalibration(format!(
                "{} gives {what}",
                param()
            ))),
        }
    }

    /// Overrides one qubit's calibration (builder for tests and custom
    /// devices).
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range, if either lifetime is not positive
    /// (`T2 = INFINITY` is allowed — it disables dephasing), or if the 1Q
    /// duration factor is not positive and finite.
    #[must_use]
    pub fn with_qubit(mut self, q: usize, qc: QubitCalibration) -> Self {
        assert!(
            qc.t1_ns > 0.0 && !qc.t1_ns.is_nan() && qc.t2_ns > 0.0 && !qc.t2_ns.is_nan(),
            "qubit {q}: lifetimes must be positive (T1 = {}, T2 = {})",
            qc.t1_ns,
            qc.t2_ns
        );
        assert!(
            qc.d1q_factor > 0.0 && qc.d1q_factor.is_finite(),
            "qubit {q}: 1Q duration factor must be positive and finite, got {}",
            qc.d1q_factor
        );
        self.qubits[q] = qc;
        self
    }

    /// Overrides one edge's calibration (builder for tests and custom
    /// devices). The pair is normalized, so `(a, b)` and `(b, a)` name the
    /// same edge.
    ///
    /// # Panics
    ///
    /// Panics if `(a, b)` is not an edge of the underlying map, if the
    /// duration factor is not positive and finite, or if the error rate is
    /// outside `[0, 1)` (NaN included) — a NaN error rate would otherwise
    /// silently read as dead to noise-aware routing and crash
    /// [`Calibration::worst_edge`].
    #[must_use]
    pub fn with_edge(mut self, a: usize, b: usize, ec: EdgeCalibration) -> Self {
        assert!(
            ec.duration_factor > 0.0 && ec.duration_factor.is_finite(),
            "edge ({a},{b}): duration factor must be positive and finite, got {}",
            ec.duration_factor
        );
        assert!(
            (0.0..1.0).contains(&ec.error_rate),
            "edge ({a},{b}): error rate must be in [0, 1), got {}",
            ec.error_rate
        );
        let slot = self
            .edges
            .get_mut(&edge_key(a, b))
            .unwrap_or_else(|| panic!("({a},{b}) is not a coupled edge"));
        *slot = ec;
        self
    }

    /// Replaces the report label.
    #[must_use]
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Human-readable scenario label, carried into batch reports.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The homogeneous baseline model deviations are measured against.
    pub fn base(&self) -> FidelityModel {
        self.base
    }

    /// Number of qubits this calibration covers.
    pub fn n_qubits(&self) -> usize {
        self.qubits.len()
    }

    /// One qubit's calibration.
    ///
    /// # Errors
    ///
    /// Returns [`TranspileError::QubitOutOfRange`] when `q` is not a
    /// qubit of the calibrated device (this accessor used to panic;
    /// callers that have already validated the index can `expect` on the
    /// documented invariant).
    pub fn qubit(&self, q: usize) -> Result<&QubitCalibration, TranspileError> {
        self.qubits.get(q).ok_or(TranspileError::QubitOutOfRange {
            qubit: q,
            device: self.qubits.len(),
        })
    }

    /// One edge's calibration; clean nominal values for pairs the map does
    /// not couple (routing scratch layouts may probe non-edges).
    pub fn edge(&self, a: usize, b: usize) -> EdgeCalibration {
        self.edges
            .get(&edge_key(a, b))
            .copied()
            .unwrap_or_else(EdgeCalibration::nominal)
    }

    /// Checks that this calibration was built for `map`'s exact shape:
    /// same qubit count *and* same edge set. A same-size calibration from
    /// a different topology would otherwise be silently read as nominal
    /// on every edge it does not know.
    ///
    /// # Errors
    ///
    /// [`TranspileError::CalibrationMismatch`] on a qubit-count mismatch,
    /// [`TranspileError::InvalidCalibration`] on an edge-set mismatch.
    pub fn validate_for(&self, map: &CouplingMap) -> Result<(), TranspileError> {
        if self.n_qubits() != map.n_qubits() {
            return Err(TranspileError::CalibrationMismatch {
                cal: self.n_qubits(),
                device: map.n_qubits(),
            });
        }
        let device_edges = map.edges();
        if self.edges.len() != device_edges.len()
            || !device_edges.iter().all(|e| self.edges.contains_key(e))
        {
            return Err(TranspileError::InvalidCalibration(format!(
                "calibration `{}` was built for a different {}-qubit topology \
                 (edge sets differ)",
                self.label,
                self.n_qubits()
            )));
        }
        Ok(())
    }

    /// True when every qubit and edge sits exactly at the baseline — the
    /// case the calibrated pipeline answers with legacy homogeneous
    /// arithmetic, bit for bit.
    pub fn is_uniform(&self) -> bool {
        self.qubits
            .iter()
            .all(|q| q.t1_ns == self.base.t1_ns && q.t2_ns == f64::INFINITY && q.d1q_factor == 1.0)
            && self
                .edges
                .values()
                .all(|e| e.duration_factor == 1.0 && e.error_rate == 0.0)
    }

    /// The additive routing penalty for crossing edge `(a, b)`:
    /// `−ln(1 − error_rate)`, the log-infidelity a route pays per gate on
    /// the edge. Zero on clean edges.
    pub fn edge_noise_cost(&self, a: usize, b: usize) -> f64 {
        let e = self.edge(a, b).error_rate.clamp(0.0, 0.999_999);
        -(1.0 - e).ln()
    }

    /// Per-wire fidelity for a duration in normalized pulse units:
    /// `exp(−D·(1/T1 + 1/(2·T2)))` on qubit `q`, reducing to Eq. 10 when
    /// `T2 = ∞`.
    ///
    /// # Errors
    ///
    /// Returns [`TranspileError::QubitOutOfRange`] when `q` is not a
    /// qubit of the calibrated device (this accessor used to panic).
    pub fn wire_fidelity(&self, q: usize, duration_pulses: f64) -> Result<f64, TranspileError> {
        Ok(self.wire_fidelity_of(self.qubit(q)?, duration_pulses))
    }

    /// The wire-fidelity arithmetic for one already-resolved qubit entry.
    fn wire_fidelity_of(&self, qc: &QubitCalibration, duration_pulses: f64) -> f64 {
        let d_ns = self.base.to_ns(duration_pulses);
        (-(d_ns / qc.t1_ns + d_ns / (2.0 * qc.t2_ns))).exp()
    }

    /// Total decoherence fidelity over wires `0..n_wires` (Eq. 11 with
    /// per-wire lifetimes): the product of [`Calibration::wire_fidelity`].
    /// The wires are the router's initial-layout homes — logical qubit `q`
    /// starts on physical qubit `q`.
    ///
    /// A uniform calibration answers with the homogeneous closed form
    /// `F_Q^N`, so the legacy pipeline's bits are reproduced exactly.
    ///
    /// # Errors
    ///
    /// Returns [`TranspileError::TooManyQubits`] when the circuit is wider
    /// than the calibrated device. (This used to clamp `n_wires` to the
    /// device size and report an optimistically truncated product.)
    pub fn total_fidelity(
        &self,
        duration_pulses: f64,
        n_wires: usize,
    ) -> Result<f64, TranspileError> {
        if n_wires > self.qubits.len() {
            return Err(TranspileError::TooManyQubits {
                circuit: n_wires,
                device: self.qubits.len(),
            });
        }
        if self.is_uniform() {
            return Ok(self.base.total_fidelity(duration_pulses, n_wires));
        }
        Ok(self.qubits[..n_wires]
            .iter()
            .map(|qc| self.wire_fidelity_of(qc, duration_pulses))
            .product())
    }

    /// The survival probability of a consolidated circuit through per-edge
    /// gate errors: `Π (1 − error_rate)` over every 2Q block. Exactly
    /// `1.0` on a uniform calibration, so multiplying it into a total
    /// fidelity never perturbs the homogeneous bits.
    pub fn gate_error_product(&self, items: &[Item]) -> f64 {
        let mut p = 1.0;
        for item in items {
            if let Item::Block { a, b, .. } = item {
                p *= 1.0 - self.edge(*a, *b).error_rate;
            }
        }
        p
    }

    /// The gate-error survival product of a *routed* circuit:
    /// `Π (1 − error_rate)` over every 2Q op, read straight off the
    /// physical gates before consolidation. Batch drivers rank best-of-N
    /// routing seeds by this (exactly `1.0` on a uniform calibration, so
    /// the legacy fewest-SWAPs rule takes over there).
    pub fn routed_survival(&self, routed: &Circuit) -> f64 {
        let mut p = 1.0;
        for op in routed.ops() {
            if let Op::TwoQ { a, b, .. } = op {
                p *= 1.0 - self.edge(*a, *b).error_rate;
            }
        }
        p
    }

    /// The worst (highest) per-edge error rate, with its edge — a quick
    /// scenario diagnostic for reports. Ties break to the lowest edge key
    /// (lexicographic on the normalized `(min, max)` pair), so the
    /// reported edge stays stable as drift perturbs error rates — `max_by`
    /// would keep the *last* maximal entry in map order instead.
    pub fn worst_edge(&self) -> Option<((usize, usize), f64)> {
        // BTreeMap iterates in ascending key order; keeping only strictly
        // greater entries pins ties to the first (lowest) edge key.
        let mut worst: Option<((usize, usize), f64)> = None;
        for (&edge, c) in &self.edges {
            if worst.is_none_or(|(_, rate)| c.error_rate > rate) {
                worst = Some((edge, c.error_rate));
            }
        }
        worst
    }
}

/// Standard normal via Box–Muller on the seeded generator (two uniform
/// draws per sample, deterministic).
fn standard_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = 1.0 - rng.gen::<f64>(); // (0, 1]: keep ln finite
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// A lognormal multiplier with median 1 and shape `sigma`.
fn lognormal(rng: &mut StdRng, sigma: f64) -> f64 {
    (sigma * standard_normal(rng)).exp()
}

/// `x` in the shorter of plain and exponent notation (`0.3`, `1e308`),
/// so an error message stays short at any magnitude.
fn short(x: f64) -> String {
    let (plain, exp) = (x.to_string(), format!("{x:e}"));
    if exp.len() < plain.len() {
        exp
    } else {
        plain
    }
}

/// The decoherence-limited error of one nominal 2Q pulse (both wires decay
/// for one iSWAP duration) — the floor heterogeneous error rates spread
/// around.
fn pulse_error_floor(base: FidelityModel) -> f64 {
    1.0 - (-2.0 * base.iswap_ns / base.t1_ns).exp()
}

/// True when the map stays connected after removing `excluded` edges.
fn connected_without(map: &CouplingMap, excluded: &[(usize, usize)]) -> bool {
    let n = map.n_qubits();
    let banned = |a: usize, b: usize| excluded.contains(&edge_key(a, b));
    let mut seen = vec![false; n];
    let mut queue = std::collections::VecDeque::from([0usize]);
    seen[0] = true;
    let mut count = 1;
    while let Some(u) = queue.pop_front() {
        for &v in map.neighbors(u) {
            if !seen[v] && !banned(u, v) {
                seen[v] = true;
                count += 1;
                queue.push_back(v);
            }
        }
    }
    count == n
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper() -> FidelityModel {
        FidelityModel::paper()
    }

    #[test]
    fn uniform_is_uniform_and_matches_legacy_bits() {
        let map = CouplingMap::grid(4, 4);
        let cal = Calibration::uniform(&map, paper());
        assert!(cal.is_uniform());
        assert_eq!(cal.label(), "uniform");
        assert_eq!(cal.n_qubits(), 16);
        for d in [0.0, 1.0, 3.5, 118.4, 450.0] {
            for n in [1usize, 2, 8, 16] {
                assert_eq!(
                    cal.total_fidelity(d, n).unwrap().to_bits(),
                    paper().total_fidelity(d, n).to_bits(),
                    "d = {d}, n = {n}"
                );
            }
        }
        assert_eq!(cal.edge_noise_cost(0, 1), 0.0);
        assert_eq!(cal.edge(0, 1), EdgeCalibration::nominal());
    }

    #[test]
    fn spread_varies_but_stays_physical() {
        let map = CouplingMap::grid(4, 4);
        let cal = Calibration::spread(&map, paper(), 0.3, 7).unwrap();
        assert!(!cal.is_uniform());
        assert_eq!(cal.label(), "spread0.3");
        let t1s: Vec<f64> = (0..16).map(|q| cal.qubit(q).unwrap().t1_ns).collect();
        assert!(t1s.iter().all(|&t| t > 0.0 && t.is_finite()));
        let spread = t1s.iter().cloned().fold(f64::MIN, f64::max)
            / t1s.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            spread > 1.05,
            "sigma 0.3 should visibly spread T1: {spread}"
        );
        for &(a, b) in &map.edges() {
            let e = cal.edge(a, b);
            assert!(e.duration_factor > 0.0 && e.error_rate >= 0.0 && e.error_rate < 1.0);
        }
        // Deterministic per seed; different seeds differ.
        let again = Calibration::spread(&map, paper(), 0.3, 7).unwrap();
        assert_eq!(cal, again);
        let other = Calibration::spread(&map, paper(), 0.3, 8).unwrap();
        assert_ne!(cal, other);
        assert!(Calibration::spread(&map, paper(), -0.1, 7).is_err());
        // A sigma whose draws overflow lifetimes and durations.
        assert!(Calibration::spread(&map, paper(), 1e308, 7).is_err());
    }

    #[test]
    fn hotspot_plants_dead_edges_without_disconnecting() {
        let map = CouplingMap::grid(4, 4);
        let cal = Calibration::hotspot(&map, paper(), 3, 11).unwrap();
        assert_eq!(cal.label(), "hotspot3");
        let dead: Vec<(usize, usize)> = map
            .edges()
            .into_iter()
            .filter(|&(a, b)| cal.edge(a, b).error_rate >= HOTSPOT_DEAD_ERROR)
            .collect();
        assert_eq!(dead.len(), 3, "grid edges are never bridges");
        assert!(connected_without(&map, &dead));
        let (_, worst) = cal.worst_edge().unwrap();
        assert_eq!(worst, HOTSPOT_DEAD_ERROR);
        assert!(Calibration::hotspot(&map, paper(), 1000, 0).is_err());
    }

    #[test]
    fn hotspot_on_a_ring_only_degrades_bridges() {
        // Every ring edge is a bridge once one edge is dead; the first pick
        // can die, later picks must stay usable.
        let map = CouplingMap::ring(8);
        let cal = Calibration::hotspot(&map, paper(), 3, 5).unwrap();
        let dead = map
            .edges()
            .iter()
            .filter(|&&(a, b)| cal.edge(a, b).error_rate >= HOTSPOT_DEAD_ERROR)
            .count();
        let degraded = map
            .edges()
            .iter()
            .filter(|&&(a, b)| {
                let e = cal.edge(a, b).error_rate;
                e > 0.0 && e < HOTSPOT_DEAD_ERROR
            })
            .count();
        assert_eq!(dead, 1, "only the first pick may die on a ring");
        assert_eq!(degraded, 2);
    }

    #[test]
    fn gradient_monotone_in_index() {
        let map = CouplingMap::modular(2, 8, 2).unwrap();
        let cal = Calibration::gradient(&map, paper(), 1.5).unwrap();
        assert_eq!(cal.label(), "gradient1.5");
        assert!(cal.qubit(0).unwrap().t1_ns > cal.qubit(15).unwrap().t1_ns);
        assert!(cal.qubit(0).unwrap().d1q_factor < cal.qubit(15).unwrap().d1q_factor);
        // Inter-chip links (span 8) pay more than intra-chip edges at the
        // same depth.
        let link = cal.edge(0, 8).error_rate;
        let intra = cal.edge(0, 7).error_rate;
        assert!(
            link > intra,
            "chip-boundary link {link} should exceed intra-chip {intra}"
        );
        assert!(Calibration::gradient(&map, paper(), f64::NAN).is_err());
        // The check bounds generated values, not the parameter: 1e300
        // still gives finite gate times, 1e308 does not.
        assert!(Calibration::gradient(&map, paper(), 1e300).is_ok());
        assert!(Calibration::gradient(&map, paper(), 1e308).is_err());
    }

    #[test]
    fn validate_for_checks_shape_not_just_size() {
        let grid = CouplingMap::grid(4, 4);
        let ring = CouplingMap::ring(16);
        let line = CouplingMap::line(4);
        let cal = Calibration::uniform(&grid, paper());
        assert!(cal.validate_for(&grid).is_ok());
        // Wrong qubit count.
        assert!(matches!(
            cal.validate_for(&line),
            Err(TranspileError::CalibrationMismatch { cal: 16, device: 4 })
        ));
        // Same qubit count, different edge set.
        assert!(matches!(
            cal.validate_for(&ring),
            Err(TranspileError::InvalidCalibration(_))
        ));
    }

    #[test]
    fn builders_override_and_unset_uniformity() {
        let map = CouplingMap::line(3);
        let cal = Calibration::uniform(&map, paper())
            .with_edge(
                2,
                1,
                EdgeCalibration {
                    duration_factor: 2.0,
                    error_rate: 0.1,
                },
            )
            .with_qubit(
                0,
                QubitCalibration {
                    t1_ns: 50_000.0,
                    t2_ns: 60_000.0,
                    d1q_factor: 1.2,
                },
            )
            .with_label("custom");
        assert!(!cal.is_uniform());
        assert_eq!(cal.label(), "custom");
        // (2, 1) normalized to (1, 2).
        assert_eq!(cal.edge(1, 2).error_rate, 0.1);
        assert!(cal.edge_noise_cost(1, 2) > 0.0);
        assert_eq!(cal.qubit(0).unwrap().t1_ns, 50_000.0);
        // Non-edges read as nominal.
        assert_eq!(cal.edge(0, 2), EdgeCalibration::nominal());
    }

    #[test]
    fn builders_reject_non_physical_values() {
        use std::panic::catch_unwind;
        let map = CouplingMap::line(3);
        let base = paper();
        let bad_edge = |ec: EdgeCalibration| {
            catch_unwind(|| Calibration::uniform(&map, base).with_edge(0, 1, ec)).is_err()
        };
        for error_rate in [f64::NAN, -0.1, 1.0, 2.0] {
            assert!(bad_edge(EdgeCalibration {
                duration_factor: 1.0,
                error_rate,
            }));
        }
        for duration_factor in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(bad_edge(EdgeCalibration {
                duration_factor,
                error_rate: 0.0,
            }));
        }
        let bad_qubit = |qc: QubitCalibration| {
            catch_unwind(|| Calibration::uniform(&map, base).with_qubit(0, qc)).is_err()
        };
        assert!(bad_qubit(QubitCalibration {
            t1_ns: f64::NAN,
            t2_ns: 1.0,
            d1q_factor: 1.0,
        }));
        assert!(bad_qubit(QubitCalibration {
            t1_ns: 1.0,
            t2_ns: 1.0,
            d1q_factor: 0.0,
        }));
        // T2 = INFINITY stays legal (it disables dephasing).
        let ok = Calibration::uniform(&map, base).with_qubit(
            0,
            QubitCalibration {
                t1_ns: 50_000.0,
                t2_ns: f64::INFINITY,
                d1q_factor: 1.0,
            },
        );
        assert_eq!(ok.qubit(0).unwrap().t1_ns, 50_000.0);
    }

    #[test]
    fn routed_survival_reads_physical_two_q_ops() {
        use paradrive_circuit::TwoQ;
        let map = CouplingMap::line(3);
        let cal = Calibration::uniform(&map, paper()).with_edge(
            0,
            1,
            EdgeCalibration {
                duration_factor: 1.0,
                error_rate: 0.1,
            },
        );
        let mut c = Circuit::new(3);
        c.push_2q(TwoQ::Cx, 0, 1);
        c.push_2q(TwoQ::Swap, 0, 1);
        c.push_2q(TwoQ::Cx, 1, 2);
        // Two crossings of the 10%-error edge, one clean.
        assert!((cal.routed_survival(&c) - 0.81).abs() < 1e-12);
        // Uniform survival is exactly 1.
        let uni = Calibration::uniform(&map, paper());
        assert_eq!(uni.routed_survival(&c).to_bits(), 1.0f64.to_bits());
    }

    #[test]
    fn gate_error_product_multiplies_block_edges() {
        use paradrive_circuit::{Circuit, TwoQ};
        let map = CouplingMap::line(3);
        let cal = Calibration::uniform(&map, paper()).with_edge(
            0,
            1,
            EdgeCalibration {
                duration_factor: 1.0,
                error_rate: 0.1,
            },
        );
        let mut c = Circuit::new(3);
        c.push_2q(TwoQ::Cx, 0, 1);
        c.push_2q(TwoQ::Cx, 1, 2);
        let items = crate::consolidate::consolidate(&c).unwrap();
        let p = cal.gate_error_product(&items);
        assert!((p - 0.9).abs() < 1e-12, "p = {p}");
    }

    #[test]
    fn wire_fidelity_uses_t2() {
        let map = CouplingMap::line(2);
        let cal = Calibration::uniform(&map, paper()).with_qubit(
            0,
            QubitCalibration {
                t1_ns: 100_000.0,
                t2_ns: 100_000.0,
                d1q_factor: 1.0,
            },
        );
        // Finite T2 decays faster than the T1-only wire.
        assert!(cal.wire_fidelity(0, 10.0).unwrap() < cal.wire_fidelity(1, 10.0).unwrap());
    }

    #[test]
    fn total_fidelity_rejects_circuits_wider_than_the_device() {
        // Regression: the old code clamped `n_wires` to the device size and
        // reported an optimistically truncated product for a 32-wide
        // circuit on a 16-qubit calibration.
        let map = CouplingMap::grid(4, 4);
        for cal in [
            Calibration::uniform(&map, paper()),
            Calibration::spread(&map, paper(), 0.3, 7).unwrap(),
        ] {
            assert!(cal.total_fidelity(118.4, 16).is_ok());
            assert!(matches!(
                cal.total_fidelity(118.4, 32),
                Err(TranspileError::TooManyQubits {
                    circuit: 32,
                    device: 16
                })
            ));
        }
    }

    #[test]
    fn out_of_range_qubit_indices_are_typed_errors() {
        let map = CouplingMap::line(3);
        let cal = Calibration::uniform(&map, paper());
        assert!(cal.qubit(2).is_ok());
        assert!(matches!(
            cal.qubit(3),
            Err(TranspileError::QubitOutOfRange {
                qubit: 3,
                device: 3
            })
        ));
        assert!(cal.wire_fidelity(2, 1.0).is_ok());
        assert!(matches!(
            cal.wire_fidelity(7, 1.0),
            Err(TranspileError::QubitOutOfRange {
                qubit: 7,
                device: 3
            })
        ));
    }

    #[test]
    fn worst_edge_tie_breaks_to_the_lowest_edge_key() {
        let map = CouplingMap::line(4);
        let bad = EdgeCalibration {
            duration_factor: 2.0,
            error_rate: 0.2,
        };
        // Two edges tie for worst; the report must name the lowest key, not
        // whichever the map iterates last.
        let cal = Calibration::uniform(&map, paper())
            .with_edge(1, 2, bad)
            .with_edge(2, 3, bad);
        assert_eq!(cal.worst_edge(), Some(((1, 2), 0.2)));
        // Same ties planted in the opposite builder order: same answer.
        let cal = Calibration::uniform(&map, paper())
            .with_edge(2, 3, bad)
            .with_edge(1, 2, bad);
        assert_eq!(cal.worst_edge(), Some(((1, 2), 0.2)));
    }
}
