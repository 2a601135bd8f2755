//! The decoherence fidelity model of Eqs. 10–11.
//!
//! Fidelity decays exponentially with the ratio of circuit duration to the
//! qubit lifetime `T1`: `F_Q = exp(-D/T1)` per qubit wire, and the total
//! circuit fidelity is the product over all qubits, `F_T = Π F_Q` —
//! exponential in the number of qubits, which is why small duration savings
//! cascade (Table VII's `F_T` column).

use crate::TranspileError;

/// Physical timing assumptions converting normalized pulse units to time.
///
/// The paper's choices: `D[iSWAP] = 100 ns`, `D[1Q] = 25 ns`,
/// `T1 = 100 µs` — consistent with transmons on a SNAIL modulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FidelityModel {
    /// Duration of one full iSWAP pulse, in nanoseconds.
    pub iswap_ns: f64,
    /// Qubit relaxation time `T1`, in nanoseconds.
    pub t1_ns: f64,
}

impl FidelityModel {
    /// The paper's Table VI/VII parameters.
    pub fn paper() -> Self {
        FidelityModel {
            iswap_ns: 100.0,
            t1_ns: 100_000.0,
        }
    }

    /// Creates a model from explicit timings.
    ///
    /// ```
    /// use paradrive_transpiler::fidelity::FidelityModel;
    /// use paradrive_transpiler::TranspileError;
    ///
    /// let fast = FidelityModel::new(60.0, 200_000.0)?;
    /// assert!(fast.qubit_fidelity(1.0) > FidelityModel::paper().qubit_fidelity(1.0));
    /// // Non-physical timings are typed errors, not panics.
    /// assert!(matches!(
    ///     FidelityModel::new(-1.0, 200_000.0),
    ///     Err(TranspileError::InvalidFidelity { what: "iswap_ns", .. })
    /// ));
    /// # Ok::<(), TranspileError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`TranspileError::InvalidFidelity`] unless both timings are
    /// positive and finite.
    pub fn new(iswap_ns: f64, t1_ns: f64) -> Result<Self, TranspileError> {
        if !(iswap_ns > 0.0 && iswap_ns.is_finite()) {
            return Err(TranspileError::InvalidFidelity {
                what: "iswap_ns",
                value: iswap_ns,
            });
        }
        if !(t1_ns > 0.0 && t1_ns.is_finite()) {
            return Err(TranspileError::InvalidFidelity {
                what: "t1_ns",
                value: t1_ns,
            });
        }
        Ok(FidelityModel { iswap_ns, t1_ns })
    }

    /// Converts a normalized duration (iSWAP pulses) to nanoseconds.
    pub fn to_ns(&self, pulses: f64) -> f64 {
        pulses * self.iswap_ns
    }

    /// Per-qubit wire fidelity `F_Q = exp(-D/T1)` (Eq. 10) for a duration
    /// in normalized pulse units.
    pub fn qubit_fidelity(&self, duration_pulses: f64) -> f64 {
        (-self.to_ns(duration_pulses) / self.t1_ns).exp()
    }

    /// Total circuit fidelity `F_T = F_Q^N` (Eq. 11) for `n_qubits` wires
    /// all spanning the circuit duration.
    pub fn total_fidelity(&self, duration_pulses: f64, n_qubits: usize) -> f64 {
        self.qubit_fidelity(duration_pulses).powi(n_qubits as i32)
    }

    /// Gate infidelity `1 − F_Q` of a single decomposed gate — the Table VI
    /// metric.
    pub fn gate_infidelity(&self, duration_pulses: f64) -> f64 {
        1.0 - self.qubit_fidelity(duration_pulses)
    }
}

/// Relative percentage improvement from `baseline` to `optimized`
/// (positive when optimized is better for "larger is better" quantities).
pub fn relative_improvement_pct(baseline: f64, optimized: f64) -> f64 {
    (optimized - baseline) / baseline * 100.0
}

/// Relative percentage *reduction* from `baseline` to `optimized`
/// (positive when optimized is smaller — used for durations).
pub fn relative_reduction_pct(baseline: f64, optimized: f64) -> f64 {
    (baseline - optimized) / baseline * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_parameters() {
        let m = FidelityModel::paper();
        assert_eq!(m.to_ns(1.0), 100.0);
        // One CNOT via the paper's baseline: duration 3.5 pulses = 350 ns
        // on T1 = 100 µs → F ≈ e^{-0.0035} ≈ 0.99651 → infidelity ≈ 0.0035
        // (the Table VI baseline CNOT row).
        let inf = m.gate_infidelity(3.5);
        assert!((inf - 0.0035).abs() < 2e-4, "infidelity {inf}");
    }

    #[test]
    fn fidelity_monotone_in_duration() {
        let m = FidelityModel::paper();
        assert!(m.qubit_fidelity(1.0) > m.qubit_fidelity(2.0));
        assert!(m.qubit_fidelity(0.0) == 1.0);
    }

    #[test]
    fn total_fidelity_is_power() {
        let m = FidelityModel::paper();
        let fq = m.qubit_fidelity(10.0);
        let ft = m.total_fidelity(10.0, 16);
        assert!((ft - fq.powi(16)).abs() < 1e-15);
        assert!(ft < fq);
    }

    #[test]
    fn bad_timings_are_typed_errors() {
        for bad in [0.0, -3.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                FidelityModel::new(bad, 100_000.0),
                Err(TranspileError::InvalidFidelity {
                    what: "iswap_ns",
                    ..
                })
            ));
            assert!(matches!(
                FidelityModel::new(100.0, bad),
                Err(TranspileError::InvalidFidelity { what: "t1_ns", .. })
            ));
        }
        let ok = FidelityModel::new(100.0, 100_000.0).unwrap();
        assert_eq!(ok, FidelityModel::paper());
        let msg = FidelityModel::new(100.0, -1.0).unwrap_err().to_string();
        assert!(msg.contains("t1_ns") && msg.contains("-1"), "{msg}");
    }

    #[test]
    fn improvement_helpers() {
        assert!((relative_reduction_pct(100.0, 80.0) - 20.0).abs() < 1e-12);
        assert!((relative_improvement_pct(0.8, 0.9) - 12.5).abs() < 1e-12);
    }

    #[test]
    fn small_duration_gains_cascade_exponentially() {
        // The paper's observation: a 1.5% path-fidelity gain becomes ~20%+
        // in total fidelity at 16 qubits when fidelities are low.
        let m = FidelityModel::paper();
        let base_d = 133.0; // QV baseline duration in pulses
        let opt_d = 118.4;
        let fq_gain = relative_improvement_pct(m.qubit_fidelity(base_d), m.qubit_fidelity(opt_d));
        let ft_gain =
            relative_improvement_pct(m.total_fidelity(base_d, 16), m.total_fidelity(opt_d, 16));
        assert!(fq_gain > 1.0 && fq_gain < 3.0, "FQ gain {fq_gain}");
        assert!(ft_gain > 20.0 && ft_gain < 35.0, "FT gain {ft_gain}");
    }
}
