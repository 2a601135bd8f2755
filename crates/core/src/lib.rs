//! The paper's headline methodology, end to end.
//!
//! `paradrive-core` glues the substrate crates into the two flows the paper
//! evaluates:
//!
//! - **Codesign** ([`codesign`]): given a speed limit function and a 1Q gate
//!   duration, score candidate basis gates by `E[D[Haar]]`, `D[CNOT]`,
//!   `D[SWAP]` and the workload-weighted `D[W(λ)]` (Eqs. 5–7, Tables II–III,
//!   Figs. 5–6), and pick the best drive ratio.
//! - **Transpilation** ([`flow`]): charge each consolidated 2Q block of a
//!   routed circuit either the baseline analytic √iSWAP decomposition or
//!   the parallel-drive optimized rules ([`rules`]), then compare
//!   durations and fidelities (Tables VI–VII). The batch engine
//!   (`paradrive-engine`) routes and consolidates the suite and scores
//!   every circuit this way.
//!
//! # Example
//!
//! ```
//! use paradrive_core::rules::{BaselineSqrtIswap, ParallelDriveRules};
//! use paradrive_transpiler::CostModel;
//! use paradrive_weyl::WeylPoint;
//!
//! let baseline = BaselineSqrtIswap::new(0.25);
//! let optimized = ParallelDriveRules::new(0.25);
//! // Parallel drive turns CNOT from 2 pulses + 3 layers into 1 pulse + 2.
//! let b = baseline.cost(WeylPoint::CNOT);
//! let o = optimized.cost(WeylPoint::CNOT);
//! assert!(o.two_q_time + 2.0 * 0.25 < b.two_q_time + 3.0 * 0.25);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod baked;
pub mod codesign;
pub mod flow;
pub mod rules;
pub mod scoring;

/// Errors produced by the codesign flow.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// A coverage computation failed.
    Coverage(String),
    /// A speed-limit computation failed.
    SpeedLimit(String),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::Coverage(e) => write!(f, "coverage failure: {e}"),
            CoreError::SpeedLimit(e) => write!(f, "speed-limit failure: {e}"),
        }
    }
}

impl std::error::Error for CoreError {}
