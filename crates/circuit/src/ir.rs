//! The circuit intermediate representation.

use crate::CircuitError;
use paradrive_linalg::{paulis, CMat, C64};
use paradrive_weyl::{gates, WeylPoint};

/// A qubit index within a circuit.
pub type Qubit = usize;

/// One-qubit gate kinds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OneQ {
    /// Hadamard.
    H,
    /// Pauli X.
    X,
    /// Pauli Y.
    Y,
    /// Pauli Z.
    Z,
    /// Phase gate `S`.
    S,
    /// `S†`.
    Sdg,
    /// `T` gate.
    T,
    /// `T†`.
    Tdg,
    /// Rotation about X.
    Rx(f64),
    /// Rotation about Y.
    Ry(f64),
    /// Rotation about Z.
    Rz(f64),
    /// General Euler-angle unitary `U3(θ, φ, λ)`.
    U3(f64, f64, f64),
}

impl OneQ {
    /// The 2×2 unitary of this gate.
    pub fn unitary(self) -> CMat {
        match self {
            OneQ::H => paulis::h(),
            OneQ::X => paulis::x(),
            OneQ::Y => paulis::y(),
            OneQ::Z => paulis::z(),
            OneQ::S => paulis::s(),
            OneQ::Sdg => paulis::s().adjoint(),
            OneQ::T => paulis::t(),
            OneQ::Tdg => paulis::t().adjoint(),
            OneQ::Rx(t) => paulis::rx(t),
            OneQ::Ry(t) => paulis::ry(t),
            OneQ::Rz(t) => paulis::rz(t),
            OneQ::U3(t, p, l) => paulis::u3(t, p, l),
        }
    }

    /// True for gates that are diagonal in the computational basis and can
    /// be realized as zero-duration virtual-Z frame updates.
    pub fn is_virtual_z(self) -> bool {
        matches!(
            self,
            OneQ::Z | OneQ::S | OneQ::Sdg | OneQ::T | OneQ::Tdg | OneQ::Rz(_)
        )
    }
}

/// Two-qubit gate kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum TwoQ {
    /// CNOT with the first operand as control.
    Cx,
    /// Controlled-Z.
    Cz,
    /// Controlled phase `diag(1,1,1,e^{iθ})`.
    CPhase(f64),
    /// `RZZ(θ) = exp(-i θ/2 Z⊗Z)` — the QAOA cost-layer gate.
    Rzz(f64),
    /// SWAP.
    Swap,
    /// iSWAP.
    ISwap,
    /// √iSWAP.
    SqrtISwap,
    /// An arbitrary 4×4 unitary (e.g. a Quantum-Volume SU(4) block).
    Unitary(Box<CMat>),
}

impl TwoQ {
    /// The 4×4 unitary of this gate (first operand is the high bit).
    pub fn unitary(&self) -> CMat {
        match self {
            TwoQ::Cx => gates::cnot(),
            TwoQ::Cz => gates::cz(),
            TwoQ::CPhase(t) => gates::cphase(*t),
            TwoQ::Rzz(t) => {
                // exp(-i θ/2 ZZ) = diag(e^{-iθ/2}, e^{iθ/2}, e^{iθ/2}, e^{-iθ/2})
                CMat::diag(&[
                    C64::cis(-t / 2.0),
                    C64::cis(t / 2.0),
                    C64::cis(t / 2.0),
                    C64::cis(-t / 2.0),
                ])
            }
            TwoQ::Swap => gates::swap(),
            TwoQ::ISwap => gates::iswap(),
            TwoQ::SqrtISwap => gates::sqrt_iswap(),
            TwoQ::Unitary(u) => (**u).clone(),
        }
    }

    /// The canonical Weyl-chamber point of this gate.
    ///
    /// # Panics
    ///
    /// Panics if a `Unitary` payload is not a valid 4×4 unitary.
    pub fn weyl_point(&self) -> WeylPoint {
        paradrive_weyl::magic::coordinates(&self.unitary())
            .expect("all IR two-qubit gates are unitary")
    }
}

/// A circuit operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// A one-qubit gate.
    OneQ {
        /// Gate kind.
        gate: OneQ,
        /// Target qubit.
        q: Qubit,
    },
    /// A two-qubit gate.
    TwoQ {
        /// Gate kind.
        gate: TwoQ,
        /// First operand (control where applicable).
        a: Qubit,
        /// Second operand.
        b: Qubit,
    },
}

impl Op {
    /// The qubits this operation touches.
    pub fn qubits(&self) -> Vec<Qubit> {
        match self {
            Op::OneQ { q, .. } => vec![*q],
            Op::TwoQ { a, b, .. } => vec![*a, *b],
        }
    }
}

/// A flat, time-ordered quantum circuit.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Circuit {
    n_qubits: usize,
    ops: Vec<Op>,
}

impl Circuit {
    /// Creates an empty circuit over `n_qubits` qubits.
    pub fn new(n_qubits: usize) -> Self {
        Circuit {
            n_qubits,
            ops: Vec::new(),
        }
    }

    /// Circuit width.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// The operations in time order.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Appends a one-qubit gate.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range (use [`Circuit::try_push_1q`] to handle
    /// the error).
    pub fn push_1q(&mut self, gate: OneQ, q: Qubit) {
        self.try_push_1q(gate, q).expect("qubit out of range");
    }

    /// Appends a one-qubit gate, checking the qubit index.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::QubitOutOfRange`] for a bad index.
    pub fn try_push_1q(&mut self, gate: OneQ, q: Qubit) -> Result<(), CircuitError> {
        if q >= self.n_qubits {
            return Err(CircuitError::QubitOutOfRange {
                qubit: q,
                width: self.n_qubits,
            });
        }
        self.ops.push(Op::OneQ { gate, q });
        Ok(())
    }

    /// Appends a two-qubit gate.
    ///
    /// # Panics
    ///
    /// Panics on a bad qubit pair (use [`Circuit::try_push_2q`] to handle
    /// the error).
    pub fn push_2q(&mut self, gate: TwoQ, a: Qubit, b: Qubit) {
        self.try_push_2q(gate, a, b).expect("invalid qubit pair");
    }

    /// Appends a two-qubit gate, checking the qubit indices.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError`] for out-of-range or duplicate qubits.
    pub fn try_push_2q(&mut self, gate: TwoQ, a: Qubit, b: Qubit) -> Result<(), CircuitError> {
        for q in [a, b] {
            if q >= self.n_qubits {
                return Err(CircuitError::QubitOutOfRange {
                    qubit: q,
                    width: self.n_qubits,
                });
            }
        }
        if a == b {
            return Err(CircuitError::DuplicateQubit(a));
        }
        self.ops.push(Op::TwoQ { gate, a, b });
        Ok(())
    }

    /// Appends all ops of another circuit (widths must match).
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn extend(&mut self, other: &Circuit) {
        assert_eq!(self.n_qubits, other.n_qubits, "width mismatch");
        self.ops.extend(other.ops.iter().cloned());
    }

    /// Number of two-qubit gates.
    pub fn two_q_count(&self) -> usize {
        self.ops
            .iter()
            .filter(|o| matches!(o, Op::TwoQ { .. }))
            .count()
    }

    /// Number of one-qubit gates.
    pub fn one_q_count(&self) -> usize {
        self.ops
            .iter()
            .filter(|o| matches!(o, Op::OneQ { .. }))
            .count()
    }

    /// Circuit depth counting every gate as one layer (greedy ASAP
    /// scheduling over qubit availability).
    pub fn depth(&self) -> usize {
        let mut level = vec![0usize; self.n_qubits];
        let mut depth = 0;
        for op in &self.ops {
            let layer = match *op {
                Op::OneQ { q, .. } => {
                    level[q] += 1;
                    level[q]
                }
                Op::TwoQ { a, b, .. } => {
                    let layer = level[a].max(level[b]) + 1;
                    level[a] = layer;
                    level[b] = layer;
                    layer
                }
            };
            depth = depth.max(layer);
        }
        depth
    }

    /// Histogram of two-qubit Weyl points, bucketed by the named classes of
    /// the paper's Fig. 3b shot chart. Returns `(label, count)` pairs sorted
    /// by descending count.
    pub fn two_q_class_histogram(&self) -> Vec<(String, usize)> {
        let mut counts: std::collections::BTreeMap<String, usize> = Default::default();
        for op in &self.ops {
            if let Op::TwoQ { gate, .. } = op {
                let p = gate.weyl_point();
                let label = classify(p);
                *counts.entry(label).or_insert(0) += 1;
            }
        }
        let mut v: Vec<(String, usize)> = counts.into_iter().collect();
        v.sort_by_key(|(_, count)| std::cmp::Reverse(*count));
        v
    }
}

/// Buckets a Weyl point into a named class label for reporting.
fn classify(p: WeylPoint) -> String {
    const TOL: f64 = 1e-6;
    let named = [
        ("I", WeylPoint::IDENTITY),
        ("CNOT", WeylPoint::CNOT),
        ("iSWAP", WeylPoint::ISWAP),
        ("SWAP", WeylPoint::SWAP),
        ("sqrt_iSWAP", WeylPoint::SQRT_ISWAP),
        ("B", WeylPoint::B),
        ("sqrt_CNOT", WeylPoint::SQRT_CNOT),
    ];
    for (name, q) in named {
        if p.chamber_dist(q) < TOL {
            return name.to_string();
        }
    }
    if p.c3 < TOL && p.c2 < TOL {
        return "CNOT-family".to_string();
    }
    if p.c3 < TOL && (p.c1 - p.c2).abs() < TOL {
        return "iSWAP-family".to_string();
    }
    "other".to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn push_and_counts() {
        let mut c = Circuit::new(3);
        c.push_1q(OneQ::H, 0);
        c.push_2q(TwoQ::Cx, 0, 1);
        c.push_2q(TwoQ::Swap, 1, 2);
        assert_eq!(c.one_q_count(), 1);
        assert_eq!(c.two_q_count(), 2);
    }

    #[test]
    fn bad_indices_rejected() {
        let mut c = Circuit::new(2);
        assert!(matches!(
            c.try_push_1q(OneQ::X, 5),
            Err(CircuitError::QubitOutOfRange { qubit: 5, width: 2 })
        ));
        assert!(matches!(
            c.try_push_2q(TwoQ::Cx, 0, 0),
            Err(CircuitError::DuplicateQubit(0))
        ));
        assert!(c.try_push_2q(TwoQ::Cx, 0, 3).is_err());
    }

    #[test]
    fn depth_computation() {
        let mut c = Circuit::new(3);
        c.push_1q(OneQ::H, 0); // layer 1 on q0
        c.push_1q(OneQ::H, 1); // layer 1 on q1
        c.push_2q(TwoQ::Cx, 0, 1); // layer 2
        c.push_1q(OneQ::X, 2); // layer 1 on q2
        assert_eq!(c.depth(), 2);
    }

    /// The depth algorithm as it stood before `depth` matched on [`Op`]:
    /// each op lands one layer above the latest of the qubits it touches.
    fn reference_depth(c: &Circuit) -> usize {
        let mut level = vec![0usize; c.n_qubits()];
        let mut depth = 0;
        for op in c.ops() {
            let qs = op.qubits();
            let start = qs.iter().map(|&q| level[q]).max().unwrap_or(0);
            for &q in &qs {
                level[q] = start + 1;
            }
            depth = depth.max(start + 1);
        }
        depth
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// `depth` gives the reference algorithm's integer on random
        /// circuits of 1–9 qubits and 0–80 ops, mixing 1Q and 2Q gates.
        #[test]
        fn depth_matches_the_reference(n in 1usize..10, len in 0usize..81, seed in 0u64..u64::MAX) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut c = Circuit::new(n);
            for _ in 0..len {
                let a = rng.gen_range(0..n);
                let b = rng.gen_range(0..n);
                if a == b || rng.gen_range(0..3) == 0 {
                    c.push_1q(OneQ::H, a);
                } else {
                    c.push_2q(TwoQ::Cx, a, b);
                }
            }
            proptest::prop_assert_eq!(c.depth(), reference_depth(&c));
        }
    }

    #[test]
    fn gate_unitaries_are_unitary() {
        for g in [
            TwoQ::Cx,
            TwoQ::Cz,
            TwoQ::CPhase(0.3),
            TwoQ::Rzz(1.1),
            TwoQ::Swap,
            TwoQ::ISwap,
            TwoQ::SqrtISwap,
        ] {
            assert!(g.unitary().is_unitary(1e-12), "{g:?}");
        }
        for g in [
            OneQ::H,
            OneQ::S,
            OneQ::T,
            OneQ::Rx(0.7),
            OneQ::U3(0.1, 0.2, 0.3),
        ] {
            assert!(g.unitary().is_unitary(1e-12), "{g:?}");
        }
    }

    #[test]
    fn weyl_points_of_ir_gates() {
        assert!(TwoQ::Cx.weyl_point().approx_eq(WeylPoint::CNOT, 1e-8));
        assert!(TwoQ::Cz.weyl_point().approx_eq(WeylPoint::CNOT, 1e-8));
        assert!(TwoQ::Swap.weyl_point().approx_eq(WeylPoint::SWAP, 1e-8));
        assert!(TwoQ::ISwap.weyl_point().approx_eq(WeylPoint::ISWAP, 1e-8));
        // CP(π) ≅ CZ ≅ CNOT; CP(π/2) is half way down the CNOT family ray.
        assert!(TwoQ::CPhase(PI)
            .weyl_point()
            .approx_eq(WeylPoint::CNOT, 1e-8));
        assert!(TwoQ::CPhase(FRAC_PI_2)
            .weyl_point()
            .approx_eq(WeylPoint::SQRT_CNOT, 1e-8));
        // RZZ(θ) ≅ CAN(θ, 0, 0): RZZ(π/2) is the CNOT class (≅ CZ up to
        // local Z rotations), RZZ(π/4) is √CNOT.
        assert!(TwoQ::Rzz(FRAC_PI_2)
            .weyl_point()
            .approx_eq(WeylPoint::CNOT, 1e-8));
        assert!(TwoQ::Rzz(FRAC_PI_2 / 2.0)
            .weyl_point()
            .approx_eq(WeylPoint::SQRT_CNOT, 1e-8));
    }

    #[test]
    fn virtual_z_classification() {
        assert!(OneQ::Rz(0.3).is_virtual_z());
        assert!(OneQ::S.is_virtual_z());
        assert!(!OneQ::H.is_virtual_z());
        assert!(!OneQ::Rx(0.2).is_virtual_z());
    }

    #[test]
    fn class_histogram() {
        let mut c = Circuit::new(4);
        c.push_2q(TwoQ::Cx, 0, 1);
        c.push_2q(TwoQ::Cz, 1, 2);
        c.push_2q(TwoQ::Swap, 2, 3);
        let h = c.two_q_class_histogram();
        assert_eq!(h[0], ("CNOT".to_string(), 2));
        assert_eq!(h[1], ("SWAP".to_string(), 1));
    }

    #[test]
    fn extend_concatenates() {
        let mut a = Circuit::new(2);
        a.push_1q(OneQ::H, 0);
        let mut b = Circuit::new(2);
        b.push_2q(TwoQ::Cx, 0, 1);
        a.extend(&b);
        assert_eq!(a.ops().len(), 2);
    }
}
