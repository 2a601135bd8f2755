//! Density-matrix simulation with amplitude damping — the physical
//! validation of the paper's decoherence fidelity model (Eqs. 10–11).
//!
//! The paper charges every circuit a fidelity `F_Q = exp(-D/T1)` per qubit
//! wire. That is exactly the amplitude-damping survival of an excited
//! qubit; this module lets tests *derive* the model from channel-level
//! simulation instead of assuming it.

use crate::{SimError, State};
use paradrive_linalg::{CMat, C64};

/// An `n`-qubit density matrix (`2^n × 2^n`).
#[derive(Debug, Clone)]
pub struct Density {
    n: usize,
    mat: CMat,
}

impl Density {
    /// The pure density matrix `|ψ⟩⟨ψ|` of a state.
    pub fn from_state(state: &State) -> Self {
        let n = state.n_qubits();
        let amps = state.amplitudes();
        let dim = amps.len();
        let mut mat = CMat::zeros(dim, dim);
        for r in 0..dim {
            for c in 0..dim {
                mat[(r, c)] = amps[r] * amps[c].conj();
            }
        }
        Density { n, mat }
    }

    /// Number of qubits.
    pub fn n_qubits(&self) -> usize {
        self.n
    }

    /// Trace (should stay 1 under physical channels).
    pub fn trace(&self) -> f64 {
        self.mat.trace().re
    }

    /// Purity `tr(ρ²)` — 1 for pure states, `1/2^n` for maximally mixed.
    pub fn purity(&self) -> f64 {
        self.mat.mul(&self.mat).trace().re
    }

    /// Applies the amplitude-damping channel with decay probability `p` to
    /// qubit `q`: Kraus operators `K0 = diag(1, √(1−p))`,
    /// `K1 = √p |0⟩⟨1|`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::QubitOutOfRange`] for a bad index and
    /// [`SimError::InvalidProbability`] when `p ∉ [0, 1]`.
    pub fn amplitude_damp(&mut self, q: usize, p: f64) -> Result<(), SimError> {
        if q >= self.n {
            return Err(SimError::QubitOutOfRange {
                qubit: q,
                width: self.n,
            });
        }
        if !(0.0..=1.0).contains(&p) {
            return Err(SimError::InvalidProbability(p));
        }
        let k0 = CMat::diag(&[C64::ONE, C64::real((1.0 - p).sqrt())]);
        let mut k1 = CMat::zeros(2, 2);
        k1[(0, 1)] = C64::real(p.sqrt());
        let e0 = embed(&k0, q, self.n);
        let e1 = embed(&k1, q, self.n);
        let part0 = e0.mul(&self.mat).mul(&e0.adjoint());
        let part1 = e1.mul(&self.mat).mul(&e1.adjoint());
        self.mat = part0.add(&part1);
        Ok(())
    }

    /// Applies `T1` relaxation for a duration `t` (same units as `t1`) to
    /// every qubit: damping probability `p = 1 − exp(−t/T1)`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidProbability`] when `t/t1` is negative or
    /// non-finite.
    pub fn relax_all(&mut self, t: f64, t1: f64) -> Result<(), SimError> {
        let p = 1.0 - (-t / t1).exp();
        for q in 0..self.n {
            self.amplitude_damp(q, p)?;
        }
        Ok(())
    }

    /// State fidelity `⟨ψ|ρ|ψ⟩` against a pure reference.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn fidelity(&self, reference: &State) -> f64 {
        assert_eq!(reference.n_qubits(), self.n, "width mismatch");
        let amps = reference.amplitudes();
        let mut acc = C64::ZERO;
        for r in 0..amps.len() {
            for c in 0..amps.len() {
                acc += amps[r].conj() * self.mat[(r, c)] * amps[c];
            }
        }
        acc.re
    }
}

/// Embeds a 2×2 operator on qubit `q` of an `n`-qubit register (qubit 0 is
/// the most-significant bit).
fn embed(op: &CMat, q: usize, n: usize) -> CMat {
    let mut m = CMat::identity(1);
    let id2 = CMat::identity(2);
    for i in 0..n {
        m = m.kron(if i == q { op } else { &id2 });
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradrive_circuit::{benchmarks, Circuit, OneQ};

    fn excited(n: usize) -> State {
        let mut c = Circuit::new(n);
        for q in 0..n {
            c.push_1q(OneQ::X, q);
        }
        State::run(&c).unwrap()
    }

    #[test]
    fn damping_rejects_bad_inputs_with_typed_errors() {
        let mut rho = Density::from_state(&State::zero(2));
        assert_eq!(
            rho.amplitude_damp(9, 0.5).unwrap_err(),
            SimError::QubitOutOfRange { qubit: 9, width: 2 }
        );
        assert_eq!(
            rho.amplitude_damp(0, 1.5).unwrap_err(),
            SimError::InvalidProbability(1.5)
        );
        // Rejected operations leave the state untouched.
        assert!((rho.trace() - 1.0).abs() < 1e-12);
        assert!((rho.purity() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pure_state_properties() {
        let rho = Density::from_state(&excited(2));
        assert!((rho.trace() - 1.0).abs() < 1e-12);
        assert!((rho.purity() - 1.0).abs() < 1e-12);
        assert!((rho.fidelity(&excited(2)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn damping_preserves_trace_and_reduces_purity() {
        let mut c = Circuit::new(2);
        c.push_1q(OneQ::H, 0);
        c.push_1q(OneQ::X, 1);
        let mut rho = Density::from_state(&State::run(&c).unwrap());
        rho.amplitude_damp(0, 0.3).unwrap();
        rho.amplitude_damp(1, 0.3).unwrap();
        assert!((rho.trace() - 1.0).abs() < 1e-10);
        assert!(rho.purity() < 1.0);
    }

    #[test]
    fn amplitude_damping_is_trace_preserving_everywhere() {
        // The Kraus pair must satisfy K0†K0 + K1†K1 = I, so tr(ρ) stays 1
        // for every damping strength, qubit, width and input state —
        // including entangled (GHZ) and locally rotated ones.
        let states: Vec<State> = vec![State::run(&benchmarks::ghz(3)).unwrap(), excited(3), {
            let mut c = Circuit::new(3);
            c.push_1q(OneQ::H, 0);
            c.push_1q(OneQ::T, 1);
            c.push_1q(OneQ::X, 2);
            State::run(&c).unwrap()
        }];
        for state in &states {
            for p in [0.0, 0.17, 0.5, 0.83, 1.0] {
                let mut rho = Density::from_state(state);
                for q in 0..rho.n_qubits() {
                    rho.amplitude_damp(q, p).unwrap();
                    assert!(
                        (rho.trace() - 1.0).abs() < 1e-12,
                        "trace drifted to {} at p = {p}, qubit {q}",
                        rho.trace()
                    );
                }
            }
        }
        // Repeated relax_all steps keep the trace pinned too.
        let mut rho = Density::from_state(&State::run(&benchmarks::ghz(3)).unwrap());
        for _ in 0..5 {
            rho.relax_all(0.21, 1.0).unwrap();
        }
        assert!((rho.trace() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn full_damping_resets_to_ground() {
        let mut rho = Density::from_state(&excited(2));
        rho.amplitude_damp(0, 1.0).unwrap();
        rho.amplitude_damp(1, 1.0).unwrap();
        let ground = State::zero(2);
        assert!((rho.fidelity(&ground) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn excited_qubit_survival_matches_eq10_exactly() {
        // The paper's F_Q = exp(-D/T1): an excited qubit idling for D under
        // T1 relaxation survives with exactly that probability.
        let reference = excited(1);
        for d_over_t1 in [0.01, 0.1, 0.5] {
            let mut rho = Density::from_state(&reference);
            rho.relax_all(d_over_t1, 1.0).unwrap();
            let f = rho.fidelity(&reference);
            let model = (-d_over_t1_total(d_over_t1)).exp();
            assert!(
                (f - model).abs() < 1e-12,
                "F {f} vs model {model} at D/T1 = {d_over_t1}"
            );
        }
        fn d_over_t1_total(x: f64) -> f64 {
            x
        }
    }

    #[test]
    fn total_fidelity_is_product_over_wires_eq11() {
        // |11…1⟩ on N qubits: F_T = exp(-N·D/T1) exactly (Eq. 11).
        for n in [1usize, 2, 3, 4] {
            let reference = excited(n);
            let mut rho = Density::from_state(&reference);
            let d_over_t1 = 0.2;
            rho.relax_all(d_over_t1, 1.0).unwrap();
            let f = rho.fidelity(&reference);
            let model = (-(n as f64) * d_over_t1).exp();
            assert!(
                (f - model).abs() < 1e-10,
                "n={n}: F {f} vs exp(-N·D/T1) {model}"
            );
        }
    }

    #[test]
    fn superposition_decays_slower_than_excited() {
        // |+⟩ keeps half its population in |0⟩; the paper's model is the
        // worst-case wire. Channel-level fidelity must be ≥ the model.
        let mut c = Circuit::new(1);
        c.push_1q(OneQ::H, 0);
        let plus = State::run(&c).unwrap();
        let mut rho = Density::from_state(&plus);
        rho.relax_all(0.3, 1.0).unwrap();
        let f = rho.fidelity(&plus);
        let model = (-0.3_f64).exp();
        assert!(f > model, "superposition fidelity {f} ≤ model {model}");
    }

    #[test]
    fn ghz_fidelity_decays_with_width_and_time() {
        let mut last_f = 1.0;
        for n in [2usize, 3, 4] {
            let ghz = State::run(&benchmarks::ghz(n)).unwrap();
            let mut rho = Density::from_state(&ghz);
            rho.relax_all(0.2, 1.0).unwrap();
            let f = rho.fidelity(&ghz);
            assert!(f < last_f, "fidelity should drop with width: {f}");
            last_f = f;
        }
        // And with time.
        let ghz = State::run(&benchmarks::ghz(3)).unwrap();
        let mut prev = 1.0;
        for steps in 1..4 {
            let mut rho = Density::from_state(&ghz);
            rho.relax_all(0.15 * steps as f64, 1.0).unwrap();
            let f = rho.fidelity(&ghz);
            assert!(f < prev);
            prev = f;
        }
    }
}
