//! Semantic equivalence oracles for the transpiler pipeline.
//!
//! Every pass in the pipeline — routing, consolidation, calibrated
//! scheduling — claims to preserve circuit semantics up to the final qubit
//! permutation the router reports. This crate *checks* those claims at
//! three rigor levels, scaled to the circuit width:
//!
//! - **Exact** ([`VerifyLevel::Exact`]): full unitary equivalence up to the
//!   output permutation, built column by column with
//!   [`paradrive_sim::circuit_unitary`]-style basis runs. The physical
//!   circuit is first *compacted* onto its qubit support — the logical
//!   wires plus every physical qubit a SWAP ever touches — so a small
//!   circuit routed on a big device stays tractable. Practical up to
//!   [`VerifyConfig::max_exact_qubits`] support qubits; beyond that the
//!   exact level transparently escalates down the ladder.
//! - **Mps** ([`VerifyLevel::Mps`]): a matrix-product-state oracle for
//!   wide circuits ([`paradrive_sim::MpsState`]). Both the original and
//!   the transpiled program evolve as MPS with bond dimension capped at
//!   [`VerifyConfig::max_bond`]; the verdict is the squared overlap under
//!   the router's permutation, judged against [`VerifyConfig::mps_tol`]
//!   *plus a certified truncation bound* derived from the cumulative
//!   discarded Schmidt weight, so bond truncation can never convert a
//!   correct transpilation into a spurious failure. Statevector width
//!   limits do not apply — this is the only oracle that truly checks
//!   50–100-qubit routes.
//! - **Sampled** ([`VerifyLevel::Sampled`]): a seeded Monte-Carlo oracle
//!   for wide circuits. `K` random product states (Haar-ish `U3` per
//!   logical qubit) run through the original and the transpiled circuit;
//!   output amplitudes are compared under the router's permutation with
//!   ancilla wires required back in `|0⟩`.
//!
//! The escalation ladder: `Exact` uses the dense oracle up to
//! [`VerifyConfig::max_exact_qubits`] support qubits, the MPS oracle
//! beyond that, and the sampled oracle only when the MPS run aborts with
//! `TruncationBudgetExceeded` (entanglement past [`MPS_DISCARD_CAP`],
//! where the certified bound would be too weak to mean anything); `Mps`
//! starts at the MPS rung of the same ladder.
//!
//! A check can also be prepared once and run unit by unit
//! ([`PreparedCheck`]): one unit per Monte-Carlo sample at the sampled
//! rung, one unit otherwise, each in a reusable [`RegisterPair`], so a
//! worker pool can spread one circuit's samples across threads.
//! [`verify`] is that split run sequentially, and the folded verdict is
//! the same bit for bit in any unit order.
//!
//! The physical side can be a routed [`Circuit`] or its consolidated
//! [`Item`](paradrive_transpiler::consolidate::Item) stream — in the latter
//! case every consolidated two-qubit block is applied as a single fused
//! 4×4 unitary (and every merged 1Q run as one 2×2), which both exercises
//! consolidation itself and is the fast path the batch engine uses.
//!
//! # Tolerance policy
//!
//! All oracles compare *fidelities*, not raw amplitudes, so the checks
//! are insensitive to global phase. The exact oracle computes the process
//! fidelity `|tr(W† P U)|² / d²` and requires an infidelity below
//! [`TolerancePolicy::exact_infidelity`] (default `1e-9` — pure
//! accumulation of floating-point error over thousands of gates). The
//! sampled oracle requires every sample's state fidelity within
//! [`TolerancePolicy::sampled_infidelity`] of 1 (default `1e-7`, looser
//! because a single statevector run concentrates rounding error in fewer
//! terms than the full-unitary trace averages over). The MPS oracle
//! requires the overlap infidelity below [`VerifyConfig::mps_tol`]
//! (default `1e-6` — the swap-transport networks of a wide route run
//! orders of magnitude more SVD splits than the dense paths run gates)
//! *plus* the run's certified truncation bound, so only error beyond
//! what truncation can explain fails the check. All verdicts are pure
//! functions of their inputs — bit-identical across thread counts.
//!
//! # Example
//!
//! ```
//! use paradrive_circuit::benchmarks;
//! use paradrive_transpiler::routing::route;
//! use paradrive_transpiler::topology::CouplingMap;
//! use paradrive_verify::{verify, Physical, VerifyConfig, VerifyLevel};
//!
//! let c = benchmarks::ghz(5);
//! let map = CouplingMap::ring(6);
//! let routed = route(&c, &map, 0)?;
//! let outcome = verify(
//!     &c,
//!     &Physical::Circuit(&routed.circuit),
//!     &routed.layout,
//!     &VerifyConfig::default().level(VerifyLevel::Exact),
//! )?;
//! assert!(!outcome.failed());
//! assert_eq!(outcome.method(), "exact");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod check;
mod oracle;
mod physical;

pub use check::{PreparedCheck, RegisterPair, UnitOutcome};
pub use physical::Physical;

use paradrive_circuit::Circuit;
use paradrive_sim::SimError;
use std::fmt;

/// How much verification a pipeline run performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VerifyLevel {
    /// No verification.
    #[default]
    Off,
    /// The seeded Monte-Carlo oracle on every circuit.
    Sampled,
    /// The matrix-product-state overlap oracle at any width
    /// ([`VerifyConfig::max_bond`]), Monte-Carlo only if the MPS run
    /// exhausts its truncation budget.
    Mps,
    /// Exact unitary equivalence where the support fits
    /// ([`VerifyConfig::max_exact_qubits`]), escalating to the MPS and
    /// then the Monte-Carlo oracle beyond it.
    Exact,
}

impl VerifyLevel {
    /// The lowercase label used by CLIs and reports.
    pub fn label(self) -> &'static str {
        match self {
            VerifyLevel::Off => "off",
            VerifyLevel::Sampled => "sampled",
            VerifyLevel::Mps => "mps",
            VerifyLevel::Exact => "exact",
        }
    }
}

impl fmt::Display for VerifyLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for VerifyLevel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "off" => Ok(VerifyLevel::Off),
            "sampled" => Ok(VerifyLevel::Sampled),
            "mps" => Ok(VerifyLevel::Mps),
            "exact" => Ok(VerifyLevel::Exact),
            other => Err(format!(
                "unknown verify level `{other}` (expected off, sampled, mps, or exact)"
            )),
        }
    }
}

/// Pass/fail thresholds for the two oracles (see the crate docs for the
/// rationale behind the defaults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TolerancePolicy {
    /// Maximum process infidelity `1 − |tr(W† P U)|²/d²` the exact oracle
    /// accepts.
    pub exact_infidelity: f64,
    /// Maximum per-sample state infidelity the Monte-Carlo oracle accepts.
    pub sampled_infidelity: f64,
}

impl Default for TolerancePolicy {
    fn default() -> Self {
        TolerancePolicy {
            exact_infidelity: 1e-9,
            sampled_infidelity: 1e-7,
        }
    }
}

/// Configuration for one equivalence check.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VerifyConfig {
    /// Rigor level (`Off` short-circuits to [`Verification::Skipped`]).
    pub level: VerifyLevel,
    /// Random product-state inputs per circuit for the Monte-Carlo oracle.
    pub samples: u32,
    /// Base seed for the Monte-Carlo input states; sample `k` derives its
    /// own deterministic stream from `(seed, k)`.
    pub seed: u64,
    /// Pass/fail thresholds.
    pub tolerance: TolerancePolicy,
    /// Largest qubit *support* the exact oracle handles before escalating
    /// to the MPS oracle (the dense unitary is `4^support` entries).
    pub max_exact_qubits: usize,
    /// Bond-dimension cap for the MPS oracle; every Schmidt cut past it
    /// is truncated and its discarded weight charged to the certified
    /// bound.
    pub max_bond: usize,
    /// Maximum overlap infidelity — *beyond* the certified truncation
    /// bound — the MPS oracle accepts.
    pub mps_tol: f64,
}

impl Default for VerifyConfig {
    fn default() -> Self {
        VerifyConfig {
            level: VerifyLevel::Sampled,
            samples: 8,
            seed: 2023,
            tolerance: TolerancePolicy::default(),
            max_exact_qubits: 10,
            max_bond: 64,
            mps_tol: 1e-6,
        }
    }
}

impl VerifyConfig {
    /// Sets the rigor level.
    #[must_use]
    pub fn level(mut self, level: VerifyLevel) -> Self {
        self.level = level;
        self
    }

    /// Sets the Monte-Carlo sample count.
    #[must_use]
    pub fn samples(mut self, samples: u32) -> Self {
        self.samples = samples;
        self
    }

    /// Sets the Monte-Carlo base seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the MPS oracle's bond-dimension cap.
    #[must_use]
    pub fn max_bond(mut self, max_bond: usize) -> Self {
        self.max_bond = max_bond;
        self
    }

    /// Sets the MPS oracle's overlap-infidelity tolerance.
    #[must_use]
    pub fn mps_tol(mut self, mps_tol: f64) -> Self {
        self.mps_tol = mps_tol;
        self
    }
}

/// The most cumulative Schmidt weight either MPS run may discard before
/// the oracle gives up and escalates to sampling. Past this point the
/// certified bound is so wide the verdict would accept almost anything —
/// escalation is the honest answer. The cap is also what makes
/// [`SimError::TruncationBudgetExceeded`] fire at a *documented*
/// threshold rather than an incidental one.
pub const MPS_DISCARD_CAP: f64 = 0.05;

/// The outcome of one equivalence check.
#[derive(Debug, Clone, PartialEq)]
pub enum Verification {
    /// Full unitary equivalence up to the output permutation.
    Exact {
        /// Process fidelity `|tr(W† P U)|² / d²` over the compact support.
        fidelity: f64,
        /// Basis columns checked (`2^support`).
        columns: usize,
        /// Compact support width actually simulated.
        width: usize,
        /// Whether the infidelity stayed within policy.
        passed: bool,
    },
    /// Matrix-product-state overlap equivalence with a certified
    /// truncation bound.
    Mps {
        /// Squared MPS overlap `|⟨ψ_logical|P·ψ_physical⟩|²`.
        fidelity: f64,
        /// Certified bound on how far truncation alone can have pushed
        /// the measured fidelity from the true one (`0` when neither run
        /// ever truncated); the verdict's *certified fidelity* is
        /// `fidelity − trunc_bound`.
        trunc_bound: f64,
        /// Largest bond dimension either run reached.
        max_bond_used: usize,
        /// Compact support width simulated.
        width: usize,
        /// Whether the infidelity stayed within policy plus the bound.
        passed: bool,
    },
    /// Seeded Monte-Carlo equivalence on random product inputs.
    Sampled {
        /// Worst state fidelity observed across the samples.
        min_fidelity: f64,
        /// Number of random inputs checked.
        samples: usize,
        /// Compact support width actually simulated.
        width: usize,
        /// Whether every sample stayed within policy.
        passed: bool,
    },
    /// No oracle ran (level off, or the circuit is beyond even the
    /// statevector simulator). A deliberate policy outcome — not a
    /// failure.
    Skipped {
        /// Why verification did not run.
        reason: String,
    },
    /// Verification was requested but the oracle could not run at all
    /// (malformed inputs — a broken invariant in the caller). Counts as a
    /// **failure**: a run that asked for verification and did not get it
    /// must never report success.
    Error {
        /// What went wrong.
        reason: String,
    },
}

impl Verification {
    /// True when an oracle rejected the equivalence — or was requested
    /// but could not run at all ([`Verification::Error`]).
    pub fn failed(&self) -> bool {
        matches!(
            self,
            Verification::Exact { passed: false, .. }
                | Verification::Mps { passed: false, .. }
                | Verification::Sampled { passed: false, .. }
                | Verification::Error { .. }
        )
    }

    /// The oracle that produced this verdict: `exact`, `mps`, `sampled`,
    /// `skip`, `error`.
    pub fn method(&self) -> &'static str {
        match self {
            Verification::Exact { .. } => "exact",
            Verification::Mps { .. } => "mps",
            Verification::Sampled { .. } => "sampled",
            Verification::Skipped { .. } => "skip",
            Verification::Error { .. } => "error",
        }
    }

    /// The fidelity the oracle measured (`None` when skipped or errored).
    /// For the MPS oracle this is the raw overlap, not the certified
    /// lower bound — subtract
    /// [`trunc_bound`](Verification::Mps::trunc_bound) for the
    /// certificate.
    pub fn fidelity(&self) -> Option<f64> {
        match self {
            Verification::Exact { fidelity, .. } => Some(*fidelity),
            Verification::Mps { fidelity, .. } => Some(*fidelity),
            Verification::Sampled { min_fidelity, .. } => Some(*min_fidelity),
            Verification::Skipped { .. } | Verification::Error { .. } => None,
        }
    }
}

impl fmt::Display for Verification {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verification::Exact {
                fidelity,
                columns,
                width,
                passed,
            } => write!(
                f,
                "exact {} F={fidelity:.9} ({columns} columns, {width}q)",
                if *passed { "ok" } else { "FAIL" }
            ),
            Verification::Mps {
                fidelity,
                trunc_bound,
                max_bond_used,
                width,
                passed,
            } => write!(
                f,
                "mps {} F={fidelity:.9} (trunc bound {trunc_bound:.3e}, bond {max_bond_used}, {width}q)",
                if *passed { "ok" } else { "FAIL" }
            ),
            Verification::Sampled {
                min_fidelity,
                samples,
                width,
                passed,
            } => write!(
                f,
                "sampled {} F>={min_fidelity:.9} ({samples} samples, {width}q)",
                if *passed { "ok" } else { "FAIL" }
            ),
            Verification::Skipped { reason } => write!(f, "skip ({reason})"),
            Verification::Error { reason } => write!(f, "ERROR ({reason})"),
        }
    }
}

/// Errors from malformed verification inputs (as opposed to a *failed*
/// equivalence, which is a [`Verification`] verdict).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum VerifyError {
    /// A simulator error surfaced mid-oracle.
    Sim(SimError),
    /// The layout is not a permutation of the physical qubits.
    BadLayout,
    /// The logical circuit is wider than the physical one.
    WidthMismatch {
        /// Logical circuit width.
        logical: usize,
        /// Physical circuit width.
        physical: usize,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::Sim(e) => write!(f, "simulator error: {e}"),
            VerifyError::BadLayout => write!(f, "layout is not a permutation"),
            VerifyError::WidthMismatch { logical, physical } => write!(
                f,
                "logical circuit ({logical}q) wider than physical ({physical}q)"
            ),
        }
    }
}

impl std::error::Error for VerifyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            VerifyError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for VerifyError {
    fn from(e: SimError) -> Self {
        VerifyError::Sim(e)
    }
}

/// Checks that `physical`, run from `|0…0⟩` (ancillas included) and read
/// out under `layout` (the router's final logical→physical map), is
/// equivalent to `original`.
///
/// The oracle is chosen by [`VerifyConfig::level`] and the escalation
/// ladder: `Exact` degrades to the MPS oracle when the circuit's qubit
/// support exceeds [`VerifyConfig::max_exact_qubits`], `Mps` (and an
/// escalated `Exact`) degrades to the Monte-Carlo oracle when the MPS
/// run exhausts its truncation budget ([`MPS_DISCARD_CAP`]), and the
/// Monte-Carlo rung reports [`Verification::Skipped`] when even the
/// statevector simulator cannot hold the circuit.
///
/// # Errors
///
/// Returns [`VerifyError`] only for malformed inputs (bad layout, logical
/// circuit wider than the device) — a failed equivalence is a
/// [`Verification`] verdict, not an error.
///
/// This is [`PreparedCheck`] run sequentially: prepare, run every unit in
/// order on one [`RegisterPair`], fold.
pub fn verify(
    original: &Circuit,
    physical: &Physical<'_>,
    layout: &[usize],
    config: &VerifyConfig,
) -> Result<Verification, VerifyError> {
    let check = PreparedCheck::prepare(original, physical, layout, config)?;
    let mut registers = RegisterPair::default();
    check.fold((0..check.units()).map(|unit| check.run_unit(unit, &mut registers)))
}
