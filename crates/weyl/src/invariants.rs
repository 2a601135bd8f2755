//! Makhlin local invariants `(g1, g2, g3)`.
//!
//! Two two-qubit unitaries are equal up to single-qubit gates iff their
//! Makhlin invariants agree. The invariants double as the optimizer's loss
//! functional (Section III-B of the paper): minimizing the invariant distance
//! to a target drives a parallel-driven template onto the target's
//! local-equivalence class without caring about the local frames.

use crate::coord::WeylPoint;
use crate::magic::{magic_basis, to_su4};
use crate::WeylError;
use paradrive_linalg::CMat;

/// The Makhlin invariant triple.
///
/// Reference values: `I → (1, 0, 3)`, `CNOT → (0, 0, 1)`,
/// `iSWAP → (0, 0, -1)`, `SWAP → (-1, 0, -3)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MakhlinInvariants {
    /// Real part of the first invariant.
    pub g1: f64,
    /// Imaginary part of the first invariant.
    pub g2: f64,
    /// The second (real) invariant.
    pub g3: f64,
}

impl MakhlinInvariants {
    /// Computes the invariants of a 4×4 unitary.
    ///
    /// # Errors
    ///
    /// Returns [`WeylError`] when the input is not a two-qubit unitary.
    pub fn of(u: &CMat) -> Result<Self, WeylError> {
        let su4 = to_su4(u)?;
        let q = magic_basis();
        let m = q.adjoint().mul(&su4).mul(&q);
        let mm = m.transpose().mul(&m);
        let tr = mm.trace();
        let tr2 = mm.mul(&mm).trace();
        let g12 = (tr * tr).scale(1.0 / 16.0);
        let g3 = ((tr * tr) - tr2).scale(0.25);
        Ok(MakhlinInvariants {
            g1: g12.re,
            g2: g12.im,
            g3: g3.re,
        })
    }

    /// Closed-form invariants of a chamber coordinate (Zhang et al.):
    ///
    /// `g1 + i g2 = cos²c1 cos²c2 cos²c3 − sin²c1 sin²c2 sin²c3
    ///              + (i/4)·sin 2c1 · sin 2c2 · sin 2c3`
    /// `g3 = 4 cos²c1 cos²c2 cos²c3 − 4 sin²c1 sin²c2 sin²c3
    ///       − cos 2c1 · cos 2c2 · cos 2c3`
    pub fn of_point(p: WeylPoint) -> Self {
        let (c1, c2, c3) = (p.c1, p.c2, p.c3);
        let cc = (c1.cos() * c2.cos() * c3.cos()).powi(2);
        let ss = (c1.sin() * c2.sin() * c3.sin()).powi(2);
        MakhlinInvariants {
            g1: cc - ss,
            g2: 0.25 * (2.0 * c1).sin() * (2.0 * c2).sin() * (2.0 * c3).sin(),
            g3: 4.0 * cc - 4.0 * ss - (2.0 * c1).cos() * (2.0 * c2).cos() * (2.0 * c3).cos(),
        }
    }

    /// Squared Euclidean distance between invariant triples — the optimizer's
    /// loss functional.
    pub fn dist_sqr(self, other: Self) -> f64 {
        (self.g1 - other.g1).powi(2) + (self.g2 - other.g2).powi(2) + (self.g3 - other.g3).powi(2)
    }
}

/// True when `u` and `v` are locally equivalent (equal Makhlin invariants to
/// tolerance `tol`).
///
/// # Errors
///
/// Returns [`WeylError`] when either input is not a two-qubit unitary.
///
/// # Example
///
/// ```
/// use paradrive_weyl::{gates, invariants::locally_equivalent};
/// // CZ and CNOT are the same gate up to 1Q rotations.
/// assert!(locally_equivalent(&gates::cz(), &gates::cnot(), 1e-9).unwrap());
/// ```
pub fn locally_equivalent(u: &CMat, v: &CMat, tol: f64) -> Result<bool, WeylError> {
    let a = MakhlinInvariants::of(u)?;
    let b = MakhlinInvariants::of(v)?;
    Ok(a.dist_sqr(b).sqrt() <= tol)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates;
    use paradrive_linalg::paulis;
    use paradrive_linalg::qr::random_su2;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const TOL: f64 = 1e-9;

    fn assert_inv(u: &CMat, g1: f64, g2: f64, g3: f64) {
        let m = MakhlinInvariants::of(u).unwrap();
        assert!(
            (m.g1 - g1).abs() < TOL && (m.g2 - g2).abs() < TOL && (m.g3 - g3).abs() < TOL,
            "got ({}, {}, {}), want ({g1}, {g2}, {g3})",
            m.g1,
            m.g2,
            m.g3
        );
    }

    #[test]
    fn reference_invariants() {
        assert_inv(&gates::identity(), 1.0, 0.0, 3.0);
        assert_inv(&gates::cnot(), 0.0, 0.0, 1.0);
        assert_inv(&gates::cz(), 0.0, 0.0, 1.0);
        assert_inv(&gates::iswap(), 0.0, 0.0, -1.0);
        assert_inv(&gates::swap(), -1.0, 0.0, -3.0);
        // B gate: (0, 0, 0).
        assert_inv(&gates::b_gate(), 0.0, 0.0, 0.0);
        // √iSWAP: (1/4, 0, 1).
        assert_inv(&gates::sqrt_iswap(), 0.25, 0.0, 1.0);
    }

    #[test]
    fn closed_form_matches_matrix_form() {
        for (name, u, _) in gates::paper_basis_set() {
            let from_matrix = MakhlinInvariants::of(&u).unwrap();
            let p = crate::magic::coordinates(&u).unwrap();
            let from_point = MakhlinInvariants::of_point(p);
            assert!(
                from_matrix.dist_sqr(from_point) < 1e-12,
                "{name}: matrix {from_matrix:?} vs point {from_point:?}"
            );
        }
    }

    #[test]
    fn invariants_are_local_invariants() {
        let mut rng = StdRng::seed_from_u64(9);
        let base = MakhlinInvariants::of(&gates::b_gate()).unwrap();
        for _ in 0..10 {
            let k1 = paulis::tensor(&random_su2(&mut rng), &random_su2(&mut rng));
            let k2 = paulis::tensor(&random_su2(&mut rng), &random_su2(&mut rng));
            let dressed = k1.mul(&gates::b_gate()).mul(&k2);
            let m = MakhlinInvariants::of(&dressed).unwrap();
            assert!(m.dist_sqr(base) < 1e-12);
        }
    }

    #[test]
    fn inequivalent_gates_detected() {
        assert!(!locally_equivalent(&gates::cnot(), &gates::iswap(), 1e-6).unwrap());
        assert!(!locally_equivalent(&gates::swap(), &gates::identity(), 1e-6).unwrap());
    }

    #[test]
    fn equivalent_gates_detected() {
        assert!(locally_equivalent(&gates::cz(), &gates::cnot(), 1e-9).unwrap());
        // iSWAP ≅ two √iSWAPs back to back.
        let two = gates::sqrt_iswap().mul(&gates::sqrt_iswap());
        assert!(locally_equivalent(&two, &gates::iswap(), 1e-9).unwrap());
    }
}
