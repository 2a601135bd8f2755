//! Transpilation passes for basis-gate codesign studies.
//!
//! The pipeline mirrors the paper's Section IV-B flow:
//!
//! 1. **Routing** ([`routing::route`]) — map a logical circuit onto a
//!    coupling topology (the paper's 4×4 square lattice,
//!    [`topology::CouplingMap::grid`]), inserting SWAPs with a
//!    lookahead heuristic; best-of-N seeds as in the paper.
//! 2. **Consolidation** ([`consolidate::consolidate`]) — merge runs of
//!    gates on the same qubit pair into unitary blocks and extract each
//!    block's Weyl-chamber target point (a CNOT followed by a SWAP on the
//!    same pair collapses into an iSWAP-class block, the paper's footnote).
//! 3. **Scheduling** ([`schedule::schedule`]) — charge every block its
//!    decomposition cost from a [`CostModel`] and compute the circuit
//!    duration (Eq. 8) with 1Q-layer merging between adjacent blocks.
//! 4. **Fidelity** ([`fidelity::FidelityModel`]) — the decoherence model of
//!    Eqs. 10–11: `F_Q = exp(-D/T1)`, `F_T = Π F_Q`.
//!
//! The [`CostModel`] trait is the seam where `paradrive-core` plugs in the
//! baseline (√iSWAP analytic) and optimized (parallel-drive) decomposition
//! rules.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calibration;
pub mod consolidate;
pub mod fidelity;
pub mod routing;
pub mod schedule;
pub mod topology;

use paradrive_weyl::WeylPoint;

/// The decomposition cost of realizing one two-qubit target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateCost {
    /// Total two-qubit pulse time, in normalized iSWAP-pulse units.
    pub two_q_time: f64,
    /// Number of 1Q gate layers the template needs (interior plus
    /// exterior; the generic template of Eq. 7 uses `K + 1`).
    pub one_q_layers: usize,
}

/// A decomposition cost model: what does it cost to realize a target
/// two-qubit class on this hardware with this basis?
pub trait CostModel {
    /// Cost of one two-qubit target class.
    fn cost(&self, target: WeylPoint) -> GateCost;

    /// Duration of one 1Q gate layer (normalized iSWAP-pulse units).
    fn d_1q(&self) -> f64;

    /// Name for reports.
    fn name(&self) -> &str {
        "cost-model"
    }
}

/// Errors produced by transpilation passes.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TranspileError {
    /// The circuit is wider than the coupling map.
    TooManyQubits {
        /// Circuit width.
        circuit: usize,
        /// Device size.
        device: usize,
    },
    /// A qubit index fell outside the device a calibration covers.
    QubitOutOfRange {
        /// The offending qubit index.
        qubit: usize,
        /// Number of qubits the calibration covers.
        device: usize,
    },
    /// The coupling graph is disconnected, so routing cannot succeed.
    DisconnectedTopology,
    /// An edge list names a self-loop or an endpoint outside `0..n`.
    InvalidEdge {
        /// First endpoint.
        a: usize,
        /// Second endpoint.
        b: usize,
        /// Number of qubits in the map under construction.
        n: usize,
    },
    /// A topology constructor was given inconsistent parameters.
    InvalidTopology(String),
    /// The router failed to make progress on a gate (a topology whose
    /// SWAP heuristic oscillates, or a noise-aware route on a device whose
    /// healthy edges no longer connect the operands).
    RoutingStuck {
        /// Index of the gate the router could not legalize.
        gate_index: usize,
    },
    /// A consolidated block failed Weyl-coordinate extraction.
    Weyl(String),
    /// A fidelity-model timing parameter was zero, negative or non-finite.
    InvalidFidelity {
        /// Which parameter was rejected.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A calibration generator was given inconsistent parameters, or a
    /// calibration's values overflowed so a job scored a non-finite
    /// duration or fidelity under it.
    InvalidCalibration(String),
    /// A job's calibration was built for a different device size than its
    /// coupling map.
    CalibrationMismatch {
        /// Qubits in the calibration.
        cal: usize,
        /// Qubits in the coupling map.
        device: usize,
    },
}

impl std::fmt::Display for TranspileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TranspileError::TooManyQubits { circuit, device } => {
                write!(f, "circuit has {circuit} qubits but device has {device}")
            }
            TranspileError::QubitOutOfRange { qubit, device } => {
                write!(
                    f,
                    "qubit {qubit} is out of range for a {device}-qubit calibration"
                )
            }
            TranspileError::DisconnectedTopology => {
                write!(f, "coupling topology is disconnected")
            }
            TranspileError::InvalidEdge { a, b, n } => {
                write!(f, "invalid edge ({a},{b}) for a {n}-qubit coupling map")
            }
            TranspileError::InvalidTopology(why) => write!(f, "invalid topology: {why}"),
            TranspileError::RoutingStuck { gate_index } => {
                write!(f, "router failed to converge on gate {gate_index}")
            }
            TranspileError::Weyl(e) => write!(f, "Weyl extraction failed: {e}"),
            TranspileError::InvalidFidelity { what, value } => {
                write!(f, "fidelity model rejects {what} = {value}")
            }
            TranspileError::InvalidCalibration(why) => {
                write!(f, "invalid calibration: {why}")
            }
            TranspileError::CalibrationMismatch { cal, device } => {
                write!(
                    f,
                    "calibration covers {cal} qubits but the device has {device}"
                )
            }
        }
    }
}

impl std::error::Error for TranspileError {}
