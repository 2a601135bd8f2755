//! The [`WeylPoint`] chamber coordinate.

use std::f64::consts::{FRAC_PI_2, FRAC_PI_4, PI};
use std::fmt;

/// A point `(c1, c2, c3)` in (or near) the Weyl chamber, in radians.
///
/// The canonical chamber is the tetrahedron with vertices
/// `I = (0,0,0)`, `(π,0,0) ≅ I`, `iSWAP = (π/2,π/2,0)` and
/// `SWAP = (π/2,π/2,π/2)`; points on the base plane additionally identify
/// `(c1, c2, 0) ~ (π−c1, c2, 0)`.
///
/// `WeylPoint` is a plain value type — it does not enforce membership of the
/// chamber, because optimizer iterates and raw coordinate arithmetic
/// legitimately wander outside. Use [`WeylPoint::in_chamber`] to test and
/// [`crate::magic::canonicalize`] to reduce.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WeylPoint {
    /// First coordinate, `[0, π]` when canonical.
    pub c1: f64,
    /// Second coordinate, `[0, π/2]` when canonical.
    pub c2: f64,
    /// Third coordinate, `[0, π/2]` when canonical.
    pub c3: f64,
}

impl WeylPoint {
    /// The identity class `(0, 0, 0)`.
    pub const IDENTITY: WeylPoint = WeylPoint::new(0.0, 0.0, 0.0);
    /// The CNOT/CZ class `(π/2, 0, 0)`.
    pub const CNOT: WeylPoint = WeylPoint::new(FRAC_PI_2, 0.0, 0.0);
    /// The √CNOT class `(π/4, 0, 0)`.
    pub const SQRT_CNOT: WeylPoint = WeylPoint::new(FRAC_PI_4, 0.0, 0.0);
    /// The iSWAP/DCNOT-dual class `(π/2, π/2, 0)`.
    pub const ISWAP: WeylPoint = WeylPoint::new(FRAC_PI_2, FRAC_PI_2, 0.0);
    /// The √iSWAP class `(π/4, π/4, 0)`.
    pub const SQRT_ISWAP: WeylPoint = WeylPoint::new(FRAC_PI_4, FRAC_PI_4, 0.0);
    /// The B-gate class `(π/2, π/4, 0)` — the Haar-optimal two-application basis.
    pub const B: WeylPoint = WeylPoint::new(FRAC_PI_2, FRAC_PI_4, 0.0);
    /// The √B class `(π/4, π/8, 0)`.
    pub const SQRT_B: WeylPoint = WeylPoint::new(FRAC_PI_4, FRAC_PI_4 / 2.0, 0.0);
    /// The SWAP class `(π/2, π/2, π/2)`.
    pub const SWAP: WeylPoint = WeylPoint::new(FRAC_PI_2, FRAC_PI_2, FRAC_PI_2);
    /// The √SWAP class `(π/4, π/4, π/4)`.
    pub const SQRT_SWAP: WeylPoint = WeylPoint::new(FRAC_PI_4, FRAC_PI_4, FRAC_PI_4);

    /// Creates a point from raw coordinates (no canonicalization).
    #[inline]
    pub const fn new(c1: f64, c2: f64, c3: f64) -> Self {
        WeylPoint { c1, c2, c3 }
    }

    /// Coordinates as an array `[c1, c2, c3]`.
    #[inline]
    pub fn as_array(self) -> [f64; 3] {
        [self.c1, self.c2, self.c3]
    }

    /// Euclidean distance to another point (raw, without folding the
    /// base-plane mirror identification).
    pub fn dist(self, other: WeylPoint) -> f64 {
        let d1 = self.c1 - other.c1;
        let d2 = self.c2 - other.c2;
        let d3 = self.c3 - other.c3;
        (d1 * d1 + d2 * d2 + d3 * d3).sqrt()
    }

    /// Distance that respects the base-plane mirror identification
    /// `(c1, c2, 0) ~ (π−c1, c2, 0)` so that e.g. a point near `(π, 0, 0)` is
    /// close to the identity.
    pub fn chamber_dist(self, other: WeylPoint) -> f64 {
        let direct = self.dist(other);
        let mirrored = WeylPoint::new(PI - self.c1, self.c2, self.c3).dist(other);
        // The mirror identification is exact only on the base plane; weight
        // it by how far off the base the points are.
        if self.c3.abs() < 1e-9 && other.c3.abs() < 1e-9 {
            direct.min(mirrored)
        } else {
            direct
        }
    }

    /// True when the point lies inside the canonical chamber tetrahedron
    /// (with tolerance `tol` on every face).
    ///
    /// Faces: `c2 ≥ c3 ≥ 0`, `c1 ≥ c2`, `c1 + c2 ≤ π`, and on the boundary
    /// region `c1 ≤ π`.
    pub fn in_chamber(self, tol: f64) -> bool {
        self.c3 >= -tol
            && self.c2 >= self.c3 - tol
            && self.c1 >= self.c2 - tol
            && self.c1 + self.c2 <= PI + tol
            && self.c1 <= PI + tol
    }

    /// The perfect-entangler predicate (Zhang–Vala–Sastry–Whaley):
    /// a canonical point is a perfect entangler iff
    /// `c1 + c2 ≥ π/2`, `c1 − c2 ≤ π/2` and `c2 + c3 ≤ π/2`.
    ///
    /// CNOT, iSWAP, B and √iSWAP are (boundary) perfect entanglers; √CNOT and
    /// SWAP are not.
    pub fn is_perfect_entangler(self, tol: f64) -> bool {
        self.in_chamber(tol)
            && self.c1 + self.c2 >= FRAC_PI_2 - tol
            && self.c1 - self.c2 <= FRAC_PI_2 + tol
            && self.c2 + self.c3 <= FRAC_PI_2 + tol
    }

    /// Approximate equality within `tol` per coordinate (raw comparison).
    pub fn approx_eq(self, other: WeylPoint, tol: f64) -> bool {
        (self.c1 - other.c1).abs() <= tol
            && (self.c2 - other.c2).abs() <= tol
            && (self.c3 - other.c3).abs() <= tol
    }

    /// Linear interpolation `self + t (other − self)` in coordinate space.
    pub fn lerp(self, other: WeylPoint, t: f64) -> WeylPoint {
        WeylPoint::new(
            self.c1 + t * (other.c1 - self.c1),
            self.c2 + t * (other.c2 - self.c2),
            self.c3 + t * (other.c3 - self.c3),
        )
    }

    /// Scales the coordinates by `s` — the Weyl point of a fractional pulse:
    /// `iSWAP^t` has coordinates `t · (π/2, π/2, 0)` for `t ∈ [0, 1]`.
    pub fn scaled(self, s: f64) -> WeylPoint {
        WeylPoint::new(self.c1 * s, self.c2 * s, self.c3 * s)
    }
}

impl fmt::Display for WeylPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "({:.4}π, {:.4}π, {:.4}π)",
            self.c1 / PI,
            self.c2 / PI,
            self.c3 / PI
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_points_in_chamber() {
        for p in [
            WeylPoint::IDENTITY,
            WeylPoint::CNOT,
            WeylPoint::SQRT_CNOT,
            WeylPoint::ISWAP,
            WeylPoint::SQRT_ISWAP,
            WeylPoint::B,
            WeylPoint::SQRT_B,
            WeylPoint::SWAP,
            WeylPoint::SQRT_SWAP,
        ] {
            assert!(p.in_chamber(1e-12), "{p} not in chamber");
        }
    }

    #[test]
    fn outside_chamber_detected() {
        assert!(!WeylPoint::new(-0.1, 0.0, 0.0).in_chamber(1e-9));
        assert!(!WeylPoint::new(0.3, 0.5, 0.0).in_chamber(1e-9)); // c2 > c1
        assert!(!WeylPoint::new(3.0, 0.5, 0.0).in_chamber(1e-9)); // c1+c2 > π
        assert!(!WeylPoint::new(0.5, 0.2, 0.3).in_chamber(1e-9)); // c3 > c2
    }

    #[test]
    fn perfect_entangler_classification() {
        assert!(WeylPoint::CNOT.is_perfect_entangler(1e-9));
        assert!(WeylPoint::ISWAP.is_perfect_entangler(1e-9));
        assert!(WeylPoint::B.is_perfect_entangler(1e-9));
        assert!(WeylPoint::SQRT_ISWAP.is_perfect_entangler(1e-9));
        assert!(!WeylPoint::SQRT_CNOT.is_perfect_entangler(1e-9));
        assert!(!WeylPoint::SWAP.is_perfect_entangler(1e-9));
        assert!(!WeylPoint::IDENTITY.is_perfect_entangler(1e-9));
    }

    #[test]
    fn sqrt_swap_is_boundary_pe() {
        // √SWAP sits exactly on two PE faces; with positive tolerance it
        // counts as a perfect entangler (it is one, famously).
        assert!(WeylPoint::SQRT_SWAP.is_perfect_entangler(1e-9));
    }

    #[test]
    fn chamber_dist_folds_base_plane() {
        let near_pi = WeylPoint::new(PI - 1e-3, 0.0, 0.0);
        assert!(near_pi.chamber_dist(WeylPoint::IDENTITY) < 2e-3);
        assert!(near_pi.dist(WeylPoint::IDENTITY) > 3.0);
    }

    #[test]
    fn lerp_and_scale() {
        let mid = WeylPoint::IDENTITY.lerp(WeylPoint::ISWAP, 0.5);
        assert!(mid.approx_eq(WeylPoint::SQRT_ISWAP, 1e-12));
        assert!(WeylPoint::ISWAP
            .scaled(0.5)
            .approx_eq(WeylPoint::SQRT_ISWAP, 1e-12));
    }

    #[test]
    fn display_in_pi_units() {
        let s = format!("{}", WeylPoint::CNOT);
        assert!(s.contains("0.5000π"), "got {s}");
    }
}
