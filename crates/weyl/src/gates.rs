//! The named two-qubit gate zoo and the canonical gate constructor.
//!
//! All gates are 4×4 matrices in the computational basis
//! `{|00⟩, |01⟩, |10⟩, |11⟩}` with the first qubit as the high bit.

use crate::coord::WeylPoint;
use paradrive_linalg::expm::expm;
use paradrive_linalg::{paulis, CMat, C64};
use std::f64::consts::FRAC_PI_2;

/// The canonical gate `CAN(c1,c2,c3) = exp(+i/2 (c1·XX + c2·YY + c3·ZZ))`.
///
/// The `+i` sign matches the magic-basis coordinate extraction in
/// [`crate::magic::coordinates`], so `coordinates(can(p)) == p` for canonical
/// `p` (e.g. `can(WeylPoint::SQRT_SWAP)` is √SWAP, not its conjugate).
///
/// Every two-qubit unitary is locally equivalent to exactly one canonical
/// gate with chamber coordinates.
///
/// # Example
///
/// ```
/// use paradrive_weyl::{gates, WeylPoint};
/// let u = gates::can(WeylPoint::SQRT_ISWAP);
/// assert!(u.is_unitary(1e-12));
/// ```
pub fn can(p: WeylPoint) -> CMat {
    let gen = paulis::xx()
        .scale(C64::real(p.c1))
        .add(&paulis::yy().scale(C64::real(p.c2)))
        .add(&paulis::zz().scale(C64::real(p.c3)))
        .scale(C64::new(0.0, 0.5));
    expm(&gen)
}

/// The 4×4 identity.
pub fn identity() -> CMat {
    CMat::identity(4)
}

/// CNOT with the first qubit as control.
pub fn cnot() -> CMat {
    let o = C64::ONE;
    let z = C64::ZERO;
    CMat::from_rows(&[&[o, z, z, z], &[z, o, z, z], &[z, z, z, o], &[z, z, o, z]])
}

/// Controlled-Z (symmetric between the qubits; locally equivalent to CNOT).
pub fn cz() -> CMat {
    CMat::diag(&[C64::ONE, C64::ONE, C64::ONE, -C64::ONE])
}

/// Controlled phase gate `CP(θ) = diag(1, 1, 1, e^{iθ})`.
pub fn cphase(theta: f64) -> CMat {
    CMat::diag(&[C64::ONE, C64::ONE, C64::ONE, C64::cis(theta)])
}

/// SWAP.
pub fn swap() -> CMat {
    let o = C64::ONE;
    let z = C64::ZERO;
    CMat::from_rows(&[&[o, z, z, z], &[z, z, o, z], &[z, o, z, z], &[z, z, z, o]])
}

/// iSWAP: swaps `|01⟩ ↔ |10⟩` with a phase of `i`.
pub fn iswap() -> CMat {
    let o = C64::ONE;
    let z = C64::ZERO;
    let i = C64::I;
    CMat::from_rows(&[&[o, z, z, z], &[z, z, i, z], &[z, i, z, z], &[z, z, z, o]])
}

/// The fractional iSWAP pulse `iSWAP^t`, `t ∈ [0, 1]`: the native gate of a
/// conversion-only parametric drive of angle `θc = t·π/2`.
pub fn iswap_frac(t: f64) -> CMat {
    let theta = t * FRAC_PI_2;
    let c = C64::real(theta.cos());
    let s = C64::new(0.0, theta.sin());
    let o = C64::ONE;
    let z = C64::ZERO;
    CMat::from_rows(&[&[o, z, z, z], &[z, c, s, z], &[z, s, c, z], &[z, z, z, o]])
}

/// √iSWAP — the paper's headline basis gate.
pub fn sqrt_iswap() -> CMat {
    iswap_frac(0.5)
}

/// The n-th root of iSWAP, `iSWAP^(1/n)`.
pub fn nth_root_iswap(n: u32) -> CMat {
    iswap_frac(1.0 / n as f64)
}

/// √CNOT (the controlled-√X family representative `CAN(π/4, 0, 0)`).
pub fn sqrt_cnot() -> CMat {
    can(WeylPoint::SQRT_CNOT)
}

/// The fractional CNOT family representative `CAN(t·π/2, 0, 0)`.
pub fn cnot_frac(t: f64) -> CMat {
    can(WeylPoint::new(t * FRAC_PI_2, 0.0, 0.0))
}

/// The B gate `CAN(π/2, π/4, 0)` — spans the chamber in two applications.
pub fn b_gate() -> CMat {
    can(WeylPoint::B)
}

/// √B, `CAN(π/4, π/8, 0)`.
pub fn sqrt_b() -> CMat {
    can(WeylPoint::SQRT_B)
}

/// √SWAP, `CAN(π/4, π/4, π/4)`.
pub fn sqrt_swap() -> CMat {
    can(WeylPoint::SQRT_SWAP)
}

/// The six comparative basis gates studied throughout the paper
/// (Fig. 4, Tables I–V), as `(name, unitary, fractional pulse duration)`
/// where duration 1.0 is a full iSWAP-strength pulse.
pub fn paper_basis_set() -> Vec<(&'static str, CMat, f64)> {
    vec![
        ("iSWAP", iswap(), 1.0),
        ("sqrt_iSWAP", sqrt_iswap(), 0.5),
        ("CNOT", cnot(), 1.0),
        ("sqrt_CNOT", sqrt_cnot(), 0.5),
        ("B", b_gate(), 1.0),
        ("sqrt_B", sqrt_b(), 0.5),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradrive_linalg::mat::process_fidelity;

    const TOL: f64 = 1e-12;

    #[test]
    fn all_named_gates_unitary() {
        for (name, u, _) in paper_basis_set() {
            assert!(u.is_unitary(TOL), "{name} not unitary");
        }
        for u in [identity(), cz(), swap(), sqrt_swap(), cphase(0.7)] {
            assert!(u.is_unitary(TOL));
        }
    }

    #[test]
    fn sqrt_gates_square_to_parents() {
        assert!(process_fidelity(&sqrt_iswap().mul(&sqrt_iswap()), &iswap()) > 1.0 - 1e-10);
        let b2 = sqrt_b().mul(&sqrt_b());
        // √B² is locally equivalent (here: equal up to phase) to B.
        assert!(process_fidelity(&b2, &b_gate()) > 1.0 - 1e-10);
        let c2 = sqrt_cnot().mul(&sqrt_cnot());
        assert!(process_fidelity(&c2, &cnot_frac(1.0)) > 1.0 - 1e-10);
    }

    #[test]
    fn nth_roots_compose() {
        let q = nth_root_iswap(4);
        let composed = q.mul(&q).mul(&q).mul(&q);
        assert!(composed.approx_eq(&iswap(), 1e-10));
    }

    #[test]
    fn cphase_pi_is_cz() {
        assert!(cphase(std::f64::consts::PI).approx_eq(&cz(), 1e-12));
    }

    #[test]
    fn swap_conjugates_cnot_direction() {
        // SWAP·CNOT12·SWAP = CNOT21.
        let flipped = swap().mul(&cnot()).mul(&swap());
        let o = C64::ONE;
        let z = C64::ZERO;
        let cnot21 = CMat::from_rows(&[&[o, z, z, z], &[z, z, z, o], &[z, z, o, z], &[z, o, z, z]]);
        assert!(flipped.approx_eq(&cnot21, TOL));
    }

    #[test]
    fn iswap_frac_zero_and_one() {
        assert!(iswap_frac(0.0).approx_eq(&identity(), TOL));
        assert!(iswap_frac(1.0).approx_eq(&iswap(), TOL));
    }

    #[test]
    fn can_of_origin_is_identity() {
        assert!(can(WeylPoint::IDENTITY).approx_eq(&identity(), TOL));
    }
}
