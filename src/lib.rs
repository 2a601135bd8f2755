//! `paradrive` — speed-limit-aware basis-gate codesign and parallel-drive
//! transpilation for parametrically coupled quantum computers.
//!
//! This facade crate re-exports the `paradrive` workspace: a from-scratch
//! Rust reproduction of *"Parallel Driving for Fast Quantum Computing Under
//! Speed Limits"* (McKinney, Zhou, Xia, Hatridge, Jones — ISCA 2023).
//!
//! # What's inside
//!
//! | Module | Contents |
//! |---|---|
//! | [`linalg`] | complex matrices, `expm`, eigensolvers, Haar-random unitaries |
//! | [`weyl`] | Weyl-chamber coordinates, Makhlin invariants, the 2Q gate zoo |
//! | [`hamiltonian`] | conversion–gain coupler drives and parallel 1Q drives |
//! | [`speedlimit`] | speed-limit functions and Algorithm-1 duration scaling |
//! | [`optimizer`] | Nelder–Mead template synthesis onto target gate classes |
//! | [`coverage`] | template coverage sets, `K`/`D` decomposition scores |
//! | [`circuit`] | circuit IR and the 16-qubit benchmark suite |
//! | [`sim`] | exact statevector simulation and Quantum-Volume analysis |
//! | [`transpiler`] | topology zoo, device calibration, (noise-aware) routing, consolidation, scheduling, fidelity |
//! | [`core`] | baseline vs parallel-drive cost models, codesign, scoring a transpiled circuit |
//! | [`engine`] | the Table VII pipeline: batched multi-threaded transpilation with a decomposition cache |
//! | [`verify`] | semantic equivalence oracles: exact up-to-permutation and Monte-Carlo |
//! | [`obs`] | deterministic tracing/metrics: per-stage spans, counters, Chrome-trace export |
//!
//! # Quickstart
//!
//! ```
//! use paradrive::weyl::{magic::coordinates, WeylPoint};
//! use paradrive::hamiltonian::ConversionGain;
//! use std::f64::consts::FRAC_PI_4;
//!
//! // Drive conversion and gain at equal strength: the pulse lands on the
//! // CNOT local-equivalence class (the paper's Eq. 4).
//! let pulse = ConversionGain::new(FRAC_PI_4, FRAC_PI_4).unitary(1.0);
//! let point = coordinates(&pulse)?;
//! assert!(point.approx_eq(WeylPoint::CNOT, 1e-9));
//! # Ok::<(), paradrive::weyl::WeylError>(())
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use paradrive_circuit as circuit;
pub use paradrive_core as core;
pub use paradrive_coverage as coverage;
pub use paradrive_engine as engine;
pub use paradrive_hamiltonian as hamiltonian;
pub use paradrive_linalg as linalg;
pub use paradrive_obs as obs;
pub use paradrive_optimizer as optimizer;
pub use paradrive_sim as sim;
pub use paradrive_speedlimit as speedlimit;
pub use paradrive_transpiler as transpiler;
pub use paradrive_verify as verify;
pub use paradrive_weyl as weyl;
