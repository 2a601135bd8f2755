//! One equivalence check, prepared once and run unit by unit.
//!
//! [`verify`](crate::verify) runs a check sequentially: prepare, run every
//! unit in order on one [`RegisterPair`], fold. A worker pool runs the
//! same units on any threads, each with its own register pair, and folds
//! their outcomes in unit order — the verdict is the same either way, bit
//! for bit.

use crate::oracle;
use crate::physical::{self, CompactProgram, Physical};
use crate::{Verification, VerifyConfig, VerifyError, VerifyLevel};
use paradrive_circuit::Circuit;
use paradrive_linalg::C64;
use paradrive_sim::{SimError, State, MAX_STATE_QUBITS};

/// The oracle a check runs, fixed when it is prepared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rung {
    /// Verification off: nothing runs.
    Off,
    /// The Monte-Carlo rung past the statevector limit: nothing runs.
    TooWide,
    /// The Monte-Carlo oracle, one unit per sample.
    Sampled,
    /// The dense oracle.
    Exact,
    /// The MPS oracle, escalating to the Monte-Carlo rung inside the same
    /// unit when either run exhausts its truncation budget.
    Mps,
}

/// An equivalence check with its physical program compacted once,
/// split into units that can run in any order on any thread.
///
/// A check at the sampled rung has one unit per Monte-Carlo sample
/// ([`PreparedCheck::is_sampled`]); every other rung — exact, MPS with
/// its escalation, or a skip — is one unit. [`PreparedCheck::fold`]
/// combines the units' outcomes, given in unit order, into the verdict
/// [`verify`](crate::verify) returns for the same inputs.
#[derive(Debug)]
pub struct PreparedCheck<'a> {
    original: &'a Circuit,
    prog: CompactProgram,
    config: VerifyConfig,
    rung: Rung,
}

/// What one unit of a [`PreparedCheck`] produced, for
/// [`PreparedCheck::fold`].
#[derive(Debug, Clone, PartialEq)]
pub struct UnitOutcome(Outcome);

#[derive(Debug, Clone, PartialEq)]
enum Outcome {
    /// One Monte-Carlo sample's state fidelity.
    Sample(f64),
    /// A one-unit rung's whole verdict.
    Verdict(Verification),
}

/// The two statevector registers (logical and compact physical) and the
/// product-state factors a Monte-Carlo sample runs in, reusable across
/// samples and checks.
///
/// Empty until the first sample; resized only when a sample needs other
/// widths, dropping the old pair before allocating the new one, so a
/// holder never keeps more than one pair alive.
#[derive(Debug, Default)]
pub struct RegisterPair {
    factors: Vec<C64>,
    pair: Option<(State, State)>,
}

impl RegisterPair {
    /// The factor buffer and the `(logical, physical)` registers at the
    /// given widths, allocating only when the widths changed.
    pub(crate) fn ready(
        &mut self,
        n_logical: usize,
        width: usize,
    ) -> (&mut [C64], &mut State, &mut State) {
        let fits = self
            .pair
            .as_ref()
            .is_some_and(|(orig, phys)| orig.n_qubits() == n_logical && phys.n_qubits() == width);
        if !fits {
            self.pair = None;
            self.pair = Some((State::zero(n_logical), State::zero(width)));
        }
        self.factors.resize(2 * n_logical, C64::ZERO);
        let (orig, phys) = self.pair.as_mut().expect("registers sized above");
        (&mut self.factors, orig, phys)
    }
}

impl<'a> PreparedCheck<'a> {
    /// Prepares the check [`verify`](crate::verify) would run: compacts
    /// `physical` onto its qubit support under `layout` and picks the
    /// rung from [`VerifyConfig::level`] and the support width. With
    /// verification off nothing is compacted.
    ///
    /// # Errors
    ///
    /// As [`verify`](crate::verify): [`VerifyError`] for a bad layout or
    /// a logical circuit wider than the device.
    pub fn prepare(
        original: &'a Circuit,
        physical: &Physical<'_>,
        layout: &[usize],
        config: &VerifyConfig,
    ) -> Result<Self, VerifyError> {
        let prog = if config.level == VerifyLevel::Off {
            CompactProgram::default()
        } else {
            physical::compact(original, physical, layout)?
        };
        let rung = match config.level {
            VerifyLevel::Off => Rung::Off,
            VerifyLevel::Sampled => sampled_or_skip(prog.width),
            VerifyLevel::Mps => Rung::Mps,
            VerifyLevel::Exact if prog.width <= config.max_exact_qubits => Rung::Exact,
            VerifyLevel::Exact => Rung::Mps,
        };
        Ok(PreparedCheck {
            original,
            prog,
            config: *config,
            rung,
        })
    }

    /// True when the units are Monte-Carlo samples (one per configured
    /// sample); false when the check is one unit.
    pub fn is_sampled(&self) -> bool {
        self.rung == Rung::Sampled
    }

    /// The number of units: the sample count at the sampled rung, else 1.
    pub fn units(&self) -> usize {
        units_of(self.rung, &self.config)
    }

    /// Runs unit `unit` in `registers` (sized on first use). Units are
    /// independent: any order, any thread, one register pair per thread.
    ///
    /// # Errors
    ///
    /// [`VerifyError::Sim`] when the simulator rejects the replay (a
    /// broken engine invariant, not a failed equivalence).
    ///
    /// # Panics
    ///
    /// Panics if `unit` is not below [`PreparedCheck::units`].
    pub fn run_unit(
        &self,
        unit: usize,
        registers: &mut RegisterPair,
    ) -> Result<UnitOutcome, VerifyError> {
        assert!(
            unit < self.units(),
            "unit {unit} of a {}-unit check",
            self.units()
        );
        self.run(self.rung, unit, registers).map(UnitOutcome)
    }

    /// The verdict from every unit's outcome, given in unit order. At the
    /// sampled rung it is the minimum fidelity over the samples, folded in
    /// sample order; if a sample failed, the error of the lowest-numbered
    /// failing sample is returned.
    ///
    /// # Errors
    ///
    /// The first error among `outcomes`.
    ///
    /// # Panics
    ///
    /// Panics unless `outcomes` holds exactly [`PreparedCheck::units`]
    /// entries from this check's [`PreparedCheck::run_unit`].
    pub fn fold(
        &self,
        outcomes: impl IntoIterator<Item = Result<UnitOutcome, VerifyError>>,
    ) -> Result<Verification, VerifyError> {
        self.fold_rung(self.rung, outcomes.into_iter().map(|o| o.map(|o| o.0)))
    }

    /// Runs every unit of `rung` in order on one register pair and folds
    /// them: the MPS rung's escalation to sampling.
    fn run_in_order(
        &self,
        rung: Rung,
        registers: &mut RegisterPair,
    ) -> Result<Verification, VerifyError> {
        self.fold_rung(
            rung,
            (0..units_of(rung, &self.config)).map(|unit| self.run(rung, unit, registers)),
        )
    }

    fn run(
        &self,
        rung: Rung,
        unit: usize,
        registers: &mut RegisterPair,
    ) -> Result<Outcome, VerifyError> {
        let (prog, config) = (&self.prog, &self.config);
        let verdict = match rung {
            Rung::Sampled => {
                return oracle::sample(self.original, prog, unit, config.seed, registers)
                    .map(Outcome::Sample)
            }
            Rung::Off => Verification::Skipped {
                reason: "verification off".to_string(),
            },
            Rung::TooWide => Verification::Skipped {
                reason: format!(
                    "support width {} exceeds the statevector limit {}",
                    prog.width, MAX_STATE_QUBITS
                ),
            },
            Rung::Exact => oracle::exact(self.original, prog, config.tolerance.exact_infidelity)?,
            // The MPS rung of the ladder: run the overlap oracle; if the
            // state is too entangled for the bond cap (truncation budget
            // exhausted at MPS_DISCARD_CAP), escalate to the Monte-Carlo
            // oracle rather than report a vacuously wide certificate.
            Rung::Mps => match oracle::mps(self.original, prog, config.max_bond, config.mps_tol) {
                Err(VerifyError::Sim(SimError::TruncationBudgetExceeded { .. })) => {
                    self.run_in_order(sampled_or_skip(prog.width), registers)?
                }
                other => other?,
            },
        };
        Ok(Outcome::Verdict(verdict))
    }

    fn fold_rung(
        &self,
        rung: Rung,
        outcomes: impl Iterator<Item = Result<Outcome, VerifyError>>,
    ) -> Result<Verification, VerifyError> {
        let units = units_of(rung, &self.config);
        let mut seen = 0;
        let mut min_fidelity = f64::INFINITY;
        let mut verdict = None;
        for outcome in outcomes {
            seen += 1;
            match outcome? {
                Outcome::Sample(f) if rung == Rung::Sampled => min_fidelity = min_fidelity.min(f),
                Outcome::Verdict(v) if rung != Rung::Sampled => verdict = Some(v),
                other => panic!("{other:?} is not an outcome of a {rung:?} check"),
            }
        }
        assert_eq!(seen, units, "a {rung:?} check folds {units} outcome(s)");
        Ok(match verdict {
            Some(verdict) => verdict,
            None => Verification::Sampled {
                min_fidelity,
                samples: units,
                width: self.prog.width,
                passed: 1.0 - min_fidelity <= self.config.tolerance.sampled_infidelity,
            },
        })
    }
}

/// The Monte-Carlo rung at `width`, or a skip past the statevector limit.
fn sampled_or_skip(width: usize) -> Rung {
    if width <= MAX_STATE_QUBITS {
        Rung::Sampled
    } else {
        Rung::TooWide
    }
}

/// Units of a check at `rung`: one per sample at the sampled rung (at
/// least one), else one.
fn units_of(rung: Rung, config: &VerifyConfig) -> usize {
    if rung == Rung::Sampled {
        config.samples.max(1) as usize
    } else {
        1
    }
}
