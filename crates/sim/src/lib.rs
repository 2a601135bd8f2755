//! Exact statevector simulation of the circuit IR.
//!
//! The transpiler's passes (routing, consolidation) claim to preserve
//! circuit semantics up to a final qubit permutation; this crate provides
//! the oracle that *checks* those claims, plus the ideal-distribution
//! analysis used by Quantum Volume workloads (heavy-output probability).
//!
//! Conventions: qubit 0 is the most-significant bit of the state index, so
//! a two-qubit gate on `(a, b)` treats `a` as the high bit — matching
//! [`paradrive_circuit::TwoQ::unitary`].
//!
//! # Example
//!
//! ```
//! use paradrive_circuit::{Circuit, OneQ, TwoQ};
//! use paradrive_sim::State;
//!
//! // A Bell pair: H on qubit 0, then CX(0 → 1).
//! let mut c = Circuit::new(2);
//! c.push_1q(OneQ::H, 0);
//! c.push_2q(TwoQ::Cx, 0, 1);
//! let state = State::run(&c)?;
//! let p = state.probabilities();
//! assert!((p[0b00] - 0.5).abs() < 1e-12);
//! assert!((p[0b11] - 0.5).abs() < 1e-12);
//! # Ok::<(), paradrive_sim::SimError>(())
//! ```
// Deny rather than forbid: the kernel module's AVX dispatch carries the
// crate's one sanctioned `unsafe` (a feature-checked call to a
// `#[target_feature]` function); see `kernels::avx`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod density;
pub mod kernels;
pub mod mps;
mod state;

pub use density::Density;
pub use kernels::{lanes_available, KernelPath};
pub use mps::{MpsOptions, MpsState};
pub use state::{circuit_unitary, heavy_output_probability, State, MAX_STATE_QUBITS};

/// Errors produced by the simulator.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// The circuit is wider than this operation supports.
    TooWide {
        /// Requested width.
        qubits: usize,
        /// Maximum width supported by the operation.
        max: usize,
    },
    /// A permutation did not cover every qubit exactly once.
    BadPermutation,
    /// A gate addressed a qubit outside the register.
    QubitOutOfRange {
        /// The offending qubit index.
        qubit: usize,
        /// The register width.
        width: usize,
    },
    /// A two-qubit gate addressed the same qubit twice.
    DuplicateQubit(usize),
    /// A circuit was applied to a register of a different width.
    WidthMismatch {
        /// Circuit width.
        circuit: usize,
        /// Register width.
        state: usize,
    },
    /// A channel probability fell outside `[0, 1]`.
    InvalidProbability(f64),
    /// An MPS truncation pushed the cumulative discarded weight past the
    /// configured budget ([`MpsOptions::trunc_tol`](mps::MpsOptions)).
    TruncationBudgetExceeded {
        /// Cumulative discarded weight `Σ ε_i` at the failing update.
        discarded: f64,
        /// The configured budget it exceeded.
        budget: f64,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::TooWide { qubits, max } => {
                write!(
                    f,
                    "circuit width {qubits} exceeds the supported maximum {max}"
                )
            }
            SimError::BadPermutation => write!(f, "invalid qubit permutation"),
            SimError::QubitOutOfRange { qubit, width } => {
                write!(f, "qubit {qubit} out of range for width {width}")
            }
            SimError::DuplicateQubit(q) => {
                write!(f, "two-qubit gate addresses qubit {q} twice")
            }
            SimError::WidthMismatch { circuit, state } => {
                write!(
                    f,
                    "circuit width {circuit} does not match register width {state}"
                )
            }
            SimError::InvalidProbability(p) => {
                write!(f, "probability {p} outside [0, 1]")
            }
            SimError::TruncationBudgetExceeded { discarded, budget } => {
                write!(
                    f,
                    "MPS truncation budget exceeded: discarded weight {discarded:.3e} > {budget:.3e}"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}
