//! The concrete Speed Limit Functions of the paper's study.

use crate::{SpeedLimit, SpeedLimitError};
use std::f64::consts::FRAC_PI_2;

/// Linear speed limit `gc + gg ≤ L` — drives combine like voltages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Linear {
    l: f64,
}

impl Linear {
    /// Creates a linear SLF with budget `L`.
    ///
    /// # Panics
    ///
    /// Panics if `l` is not positive and finite.
    pub fn new(l: f64) -> Self {
        assert!(l > 0.0 && l.is_finite(), "budget must be positive");
        Linear { l }
    }

    /// The normalized form with `L = π/2`, making the fastest iSWAP take
    /// one time unit.
    pub fn normalized() -> Self {
        Linear::new(FRAC_PI_2)
    }

    /// The drive budget `L`.
    pub fn budget(&self) -> f64 {
        self.l
    }
}

impl SpeedLimit for Linear {
    fn name(&self) -> &str {
        "linear"
    }

    fn max_gc(&self) -> f64 {
        self.l
    }

    fn max_gg(&self) -> f64 {
        self.l
    }

    fn boundary(&self, gc: f64) -> f64 {
        (self.l - gc).max(0.0)
    }

    fn intersection(&self, beta: f64) -> (f64, f64) {
        if beta.is_infinite() {
            return (0.0, self.l);
        }
        // β·gc = L − gc  →  gc = L / (1 + β)
        let gc = self.l / (1.0 + beta);
        (gc, beta * gc)
    }
}

/// Squared speed limit `gc² + gg² ≤ L²` — drives combine like power.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Squared {
    l: f64,
}

impl Squared {
    /// Creates a squared SLF with radius `L`.
    ///
    /// # Panics
    ///
    /// Panics if `l` is not positive and finite.
    pub fn new(l: f64) -> Self {
        assert!(l > 0.0 && l.is_finite(), "radius must be positive");
        Squared { l }
    }

    /// The normalized form with `L = π/2`.
    pub fn normalized() -> Self {
        Squared::new(FRAC_PI_2)
    }

    /// The drive radius `L`.
    pub fn radius(&self) -> f64 {
        self.l
    }
}

impl SpeedLimit for Squared {
    fn name(&self) -> &str {
        "squared"
    }

    fn max_gc(&self) -> f64 {
        self.l
    }

    fn max_gg(&self) -> f64 {
        self.l
    }

    fn boundary(&self, gc: f64) -> f64 {
        if gc >= self.l {
            0.0
        } else {
            (self.l * self.l - gc * gc).sqrt()
        }
    }

    fn intersection(&self, beta: f64) -> (f64, f64) {
        if beta.is_infinite() {
            return (0.0, self.l);
        }
        // gc²(1 + β²) = L²
        let gc = self.l / (1.0 + beta * beta).sqrt();
        (gc, beta * gc)
    }
}

/// A tabulated, characterized speed limit: a monotone non-increasing
/// boundary given as `(gc, gg)` samples with linear interpolation.
///
/// This stands in for experimentally measured break-point data; the
/// [`Characterized::snail`] preset reproduces the normalized durations the
/// paper measured for its SNAIL coupler (Table II).
#[derive(Debug, Clone, PartialEq)]
pub struct Characterized {
    name: String,
    points: Vec<(f64, f64)>,
}

impl Characterized {
    /// Builds a characterized SLF from boundary samples.
    ///
    /// # Errors
    ///
    /// Returns [`SpeedLimitError::InvalidTable`] when fewer than two points
    /// are given, when `gc` values are not strictly increasing, when `gg`
    /// values increase, or when any value is negative/non-finite.
    pub fn from_points(
        name: impl Into<String>,
        points: Vec<(f64, f64)>,
    ) -> Result<Self, SpeedLimitError> {
        if points.len() < 2 {
            return Err(SpeedLimitError::InvalidTable("need at least two points"));
        }
        for w in points.windows(2) {
            if w[1].0 <= w[0].0 {
                return Err(SpeedLimitError::InvalidTable(
                    "gc samples must strictly increase",
                ));
            }
            if w[1].1 > w[0].1 + 1e-12 {
                return Err(SpeedLimitError::InvalidTable(
                    "gg boundary must be non-increasing",
                ));
            }
        }
        if points
            .iter()
            .any(|&(a, b)| !a.is_finite() || !b.is_finite() || a < 0.0 || b < 0.0)
        {
            return Err(SpeedLimitError::InvalidTable(
                "samples must be finite and non-negative",
            ));
        }
        Ok(Characterized {
            name: name.into(),
            points,
        })
    }

    /// The SNAIL-coupler substitute boundary, normalized so the maximum
    /// intercept is `π/2` (fastest iSWAP = 1 pulse).
    ///
    /// Anchors are placed so the normalized full-pulse durations match the
    /// paper's characterized system: `iSWAP = 1.00`, `B = 1.40`,
    /// `CNOT = 1.80`, with conversion driveable much harder than gain
    /// (Fig. 3c).
    pub fn snail() -> Self {
        // β = 1 crossing at gc = (π/4)/1.8  → CNOT duration 1.8.
        let cnot_gc = std::f64::consts::FRAC_PI_4 / 1.8;
        // β = 1/3 crossing at gc = (3π/8)/1.4 → B duration 1.4.
        let b_gc = 3.0 * std::f64::consts::PI / 8.0 / 1.4;
        Characterized::from_points(
            "snail-characterized",
            vec![
                (0.0, 0.550),
                (0.20, 0.500),
                (cnot_gc, cnot_gc), // ≈ (0.4363, 0.4363)
                (0.60, 0.370),
                (b_gc, b_gc / 3.0), // ≈ (0.8414, 0.2805)
                (1.20, 0.130),
                (FRAC_PI_2, 0.0),
            ],
        )
        .expect("snail preset is a valid table")
    }

    /// The boundary samples.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }
}

impl SpeedLimit for Characterized {
    fn name(&self) -> &str {
        &self.name
    }

    fn max_gc(&self) -> f64 {
        self.points.last().map(|&(gc, _)| gc).unwrap_or(0.0)
    }

    fn max_gg(&self) -> f64 {
        self.points.first().map(|&(_, gg)| gg).unwrap_or(0.0)
    }

    fn boundary(&self, gc: f64) -> f64 {
        if gc <= self.points[0].0 {
            return self.points[0].1;
        }
        for w in self.points.windows(2) {
            let (x0, y0) = w[0];
            let (x1, y1) = w[1];
            if gc <= x1 {
                let t = (gc - x0) / (x1 - x0);
                return y0 + t * (y1 - y0);
            }
        }
        0.0
    }
}

/// The paper's three comparative speed limits, as an owning enum for easy
/// iteration in experiment harnesses.
#[derive(Debug, Clone, PartialEq)]
pub enum StandardSlf {
    /// `gc + gg ≤ π/2`.
    Linear(Linear),
    /// `gc² + gg² ≤ (π/2)²`.
    Squared(Squared),
    /// The SNAIL-characterized substitute.
    Snail(Characterized),
}

impl StandardSlf {
    /// All three standard speed limits in the paper's Table II order.
    pub fn all() -> Vec<StandardSlf> {
        vec![
            StandardSlf::Linear(Linear::normalized()),
            StandardSlf::Squared(Squared::normalized()),
            StandardSlf::Snail(Characterized::snail()),
        ]
    }

    /// Borrows the underlying trait object.
    pub fn as_slf(&self) -> &dyn SpeedLimit {
        match self {
            StandardSlf::Linear(s) => s,
            StandardSlf::Squared(s) => s,
            StandardSlf::Snail(s) => s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_boundary_and_intersection() {
        let l = Linear::normalized();
        assert!((l.boundary(0.0) - FRAC_PI_2).abs() < 1e-12);
        assert_eq!(l.boundary(10.0), 0.0);
        let (gc, gg) = l.intersection(1.0);
        assert!((gc - FRAC_PI_2 / 2.0).abs() < 1e-12);
        assert!((gg - gc).abs() < 1e-12);
    }

    #[test]
    fn squared_boundary_is_circle() {
        let s = Squared::normalized();
        for gc in [0.0, 0.3, 1.0, 1.5] {
            let gg = s.boundary(gc);
            if gg > 0.0 {
                assert!((gc * gc + gg * gg - FRAC_PI_2 * FRAC_PI_2).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn characterized_validation() {
        assert!(matches!(
            Characterized::from_points("x", vec![(0.0, 1.0)]),
            Err(SpeedLimitError::InvalidTable(_))
        ));
        assert!(matches!(
            Characterized::from_points("x", vec![(0.0, 1.0), (0.0, 0.5)]),
            Err(SpeedLimitError::InvalidTable(_))
        ));
        assert!(matches!(
            Characterized::from_points("x", vec![(0.0, 0.5), (1.0, 0.9)]),
            Err(SpeedLimitError::InvalidTable(_))
        ));
        assert!(Characterized::from_points("x", vec![(0.0, 1.0), (1.0, 0.0)]).is_ok());
    }

    #[test]
    fn characterized_interpolates() {
        let c = Characterized::from_points("x", vec![(0.0, 1.0), (2.0, 0.0)]).unwrap();
        assert!((c.boundary(1.0) - 0.5).abs() < 1e-12);
        assert!((c.boundary(0.0) - 1.0).abs() < 1e-12);
        assert_eq!(c.boundary(5.0), 0.0);
    }

    #[test]
    fn snail_shape() {
        let s = Characterized::snail();
        // Conversion driveable much harder than gain.
        assert!(s.max_gc() > 2.0 * s.max_gg());
        // Boundary is within the feasibility test.
        assert!(s.is_feasible(0.1, 0.1));
        assert!(!s.is_feasible(1.0, 0.5));
        assert!(!s.is_feasible(-0.1, 0.0));
    }

    #[test]
    fn standard_set_has_three() {
        let all = StandardSlf::all();
        assert_eq!(all.len(), 3);
        let names: Vec<&str> = all.iter().map(|s| s.as_slf().name()).collect();
        assert_eq!(names, vec!["linear", "squared", "snail-characterized"]);
    }
}
