//! Gate-score tables: speed-limit-scaled decomposition durations
//! (Tables II, III and V) and the weighted `W(λ)` metric of Eqs. 5–6.

use crate::CoreError;
use paradrive_coverage::PAPER_LAMBDA;
use paradrive_speedlimit::{DurationScale, SpeedLimit};
use paradrive_weyl::WeylPoint;

/// A candidate basis gate with its decomposition-count facts (Table I).
#[derive(Debug, Clone)]
pub struct BasisSpec {
    /// Display name.
    pub name: String,
    /// Chamber point of the basis gate.
    pub point: WeylPoint,
    /// `K[CNOT]`.
    pub k_cnot: usize,
    /// `K[SWAP]`.
    pub k_swap: usize,
    /// `E[K[Haar]]`.
    pub e_k_haar: f64,
}

/// The six comparative bases with the paper's Table I counts.
pub fn paper_bases() -> Vec<BasisSpec> {
    let spec = |name: &str, point, k_cnot, k_swap, e_k_haar| BasisSpec {
        name: name.to_string(),
        point,
        k_cnot,
        k_swap,
        e_k_haar,
    };
    vec![
        spec("iSWAP", WeylPoint::ISWAP, 2, 3, 3.00),
        spec("sqrt_iSWAP", WeylPoint::SQRT_ISWAP, 2, 3, 2.21),
        spec("CNOT", WeylPoint::CNOT, 1, 3, 3.00),
        spec("sqrt_CNOT", WeylPoint::SQRT_CNOT, 2, 6, 3.54),
        spec("B", WeylPoint::B, 2, 2, 2.00),
        spec("sqrt_B", WeylPoint::SQRT_B, 2, 4, 2.50),
    ]
}

/// One row of a duration table (Tables II / III).
#[derive(Debug, Clone)]
pub struct DurationRow {
    /// Basis name.
    pub basis: String,
    /// Normalized single-pulse duration under the SLF (`D_Basis`).
    pub d_basis: f64,
    /// `D[CNOT]` (Eq. 7).
    pub d_cnot: f64,
    /// `D[SWAP]`.
    pub d_swap: f64,
    /// `E[D[Haar]]`.
    pub e_d_haar: f64,
    /// `D[W(λ)]`.
    pub d_w: f64,
}

/// Eq. 7 with a real-valued (expected) `K`.
fn eq7(k: f64, d_basis: f64, d_1q: f64) -> f64 {
    k * d_basis + (k + 1.0) * d_1q
}

/// Computes the speed-limit-scaled duration table for the six paper bases
/// under a given SLF and 1Q layer duration (`d_1q = 0` reproduces
/// Table II; `0.25` with the linear SLF reproduces Table III).
///
/// # Errors
///
/// Returns [`CoreError::SpeedLimit`] if a basis pulse duration cannot be
/// computed under the SLF.
pub fn duration_table(
    slf: &dyn SpeedLimit,
    d_1q: f64,
    lambda: f64,
) -> Result<Vec<DurationRow>, CoreError> {
    let scale = DurationScale::new(slf);
    paper_bases()
        .into_iter()
        .map(|b| {
            let d_basis = scale
                .pulse_duration(b.point)
                .map_err(|e| CoreError::SpeedLimit(e.to_string()))?;
            let d_cnot = eq7(b.k_cnot as f64, d_basis, d_1q);
            let d_swap = eq7(b.k_swap as f64, d_basis, d_1q);
            let e_d_haar = eq7(b.e_k_haar, d_basis, d_1q);
            Ok(DurationRow {
                basis: b.name,
                d_basis,
                d_cnot,
                d_swap,
                e_d_haar,
                d_w: lambda * d_cnot + (1.0 - lambda) * d_swap,
            })
        })
        .collect()
}

/// The extended (parallel-drive) `K` counts of Table IV.
pub fn paper_table4_reference() -> Vec<(&'static str, usize, usize, f64, f64)> {
    // (basis, K'[CNOT], K'[SWAP], E[K'[Haar]], K'[W(.47)])
    vec![
        ("iSWAP", 1, 2, 1.35, 1.53),
        ("sqrt_iSWAP", 2, 3, 2.17, 2.53),
        ("CNOT", 1, 3, 2.33, 2.06),
        ("sqrt_CNOT", 2, 6, 3.52, 3.65),
        ("B", 1, 2, 1.75, 1.53),
        ("sqrt_B", 2, 4, 2.50, 3.06),
    ]
}

/// The parallel-drive duration costs of Table V (`D[1Q] = 0.25`, linear
/// SLF, joint fractional templates).
pub fn paper_table5_reference() -> Vec<(&'static str, f64, f64, f64, f64)> {
    // (basis, D[CNOT], D[SWAP], E[D[Haar]], D[W(.47)])
    vec![
        ("iSWAP", 1.5, 2.75, 1.94, 2.16),
        ("sqrt_iSWAP", 1.5, 2.25, 1.71, 1.90),
        ("CNOT", 1.5, 4.0, 3.16, 2.83),
        ("sqrt_CNOT", 1.5, 4.0, 2.88, 2.83),
        ("B", 1.5, 2.75, 2.44, 2.16),
        ("sqrt_B", 1.5, 2.75, 2.06, 2.16),
    ]
}

/// The basis minimizing a column of the duration table; used to summarize
/// Fig. 5 ("which basis wins for each metric under each SLF?").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Expected Haar-random target duration.
    Haar,
    /// CNOT target duration.
    Cnot,
    /// SWAP target duration.
    Swap,
    /// Workload-weighted duration `D[W(λ)]`.
    W,
}

/// Returns the best basis name for the metric.
pub fn best_basis(rows: &[DurationRow], metric: Metric) -> &str {
    let value = |r: &DurationRow| match metric {
        Metric::Haar => r.e_d_haar,
        Metric::Cnot => r.d_cnot,
        Metric::Swap => r.d_swap,
        Metric::W => r.d_w,
    };
    &rows
        .iter()
        .min_by(|a, b| value(a).total_cmp(&value(b)))
        .expect("table is non-empty")
        .basis
}

/// The default λ of the paper's workload fit.
pub fn paper_lambda() -> f64 {
    PAPER_LAMBDA
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradrive_speedlimit::{Characterized, Linear, Squared};

    fn row<'a>(rows: &'a [DurationRow], name: &str) -> &'a DurationRow {
        rows.iter().find(|r| r.basis == name).unwrap()
    }

    #[test]
    fn table2_linear_rows() {
        let slf = Linear::normalized();
        let rows = duration_table(&slf, 0.0, PAPER_LAMBDA).unwrap();
        let s = row(&rows, "sqrt_iSWAP");
        assert!((s.d_basis - 0.5).abs() < 1e-9);
        assert!((s.d_cnot - 1.0).abs() < 1e-9);
        assert!((s.d_swap - 1.5).abs() < 1e-9);
        assert!((s.e_d_haar - 1.105).abs() < 0.01); // paper: 1.05–1.11
        assert!((s.d_w - 1.27).abs() < 0.01);
        let b = row(&rows, "B");
        assert!((b.e_d_haar - 2.0).abs() < 1e-9);
        assert!((b.d_w - 2.0).abs() < 1e-9);
    }

    #[test]
    fn table2_squared_rows() {
        let slf = Squared::normalized();
        let rows = duration_table(&slf, 0.0, PAPER_LAMBDA).unwrap();
        let c = row(&rows, "CNOT");
        assert!((c.d_basis - 0.71).abs() < 0.005);
        assert!((c.d_cnot - 0.71).abs() < 0.005);
        assert!((c.d_swap - 2.12).abs() < 0.01);
        let sb = row(&rows, "sqrt_B");
        assert!((sb.e_d_haar - 0.99).abs() < 0.01);
        assert!((sb.d_w - 1.21).abs() < 0.01);
    }

    #[test]
    fn table2_snail_rows() {
        let slf = Characterized::snail();
        let rows = duration_table(&slf, 0.0, PAPER_LAMBDA).unwrap();
        let c = row(&rows, "CNOT");
        assert!((c.d_basis - 1.8).abs() < 0.01);
        assert!((c.d_swap - 5.35).abs() < 0.06, "D[SWAP] = {}", c.d_swap);
        let b = row(&rows, "B");
        assert!((b.d_basis - 1.4).abs() < 0.01);
        assert!((b.e_d_haar - 2.81).abs() < 0.03);
    }

    #[test]
    fn table3_linear_rows() {
        let slf = Linear::normalized();
        let rows = duration_table(&slf, 0.25, PAPER_LAMBDA).unwrap();
        let i = row(&rows, "iSWAP");
        assert!((i.d_cnot - 2.75).abs() < 1e-9);
        assert!((i.d_swap - 4.0).abs() < 1e-9);
        assert!((i.e_d_haar - 4.0).abs() < 1e-9);
        assert!((i.d_w - 3.41).abs() < 0.01);
        let s = row(&rows, "sqrt_iSWAP");
        assert!((s.e_d_haar - 1.91).abs() < 0.01);
        assert!((s.d_w - 2.15).abs() < 0.01);
        let sc = row(&rows, "sqrt_CNOT");
        assert!((sc.d_swap - 4.75).abs() < 1e-9);
    }

    #[test]
    fn sqrt_iswap_wins_haar_with_appreciable_1q() {
        // The paper's core claim: with D[1Q] = 0.25 under the linear SLF,
        // √iSWAP is the duration-optimal basis for Haar and W.
        let slf = Linear::normalized();
        let rows = duration_table(&slf, 0.25, PAPER_LAMBDA).unwrap();
        assert_eq!(best_basis(&rows, Metric::Haar), "sqrt_iSWAP");
        assert_eq!(best_basis(&rows, Metric::W), "sqrt_iSWAP");
    }

    #[test]
    fn b_family_wins_haar_on_squared_slf_without_1q() {
        // Table II squared: √B has the best Haar score (0.99).
        let slf = Squared::normalized();
        let rows = duration_table(&slf, 0.0, PAPER_LAMBDA).unwrap();
        assert_eq!(best_basis(&rows, Metric::Haar), "sqrt_B");
    }

    #[test]
    fn snail_pins_everything_to_iswap_family() {
        // On the characterized SLF, conversion is cheap and the iSWAP
        // family dominates every metric.
        let slf = Characterized::snail();
        let rows = duration_table(&slf, 0.0, PAPER_LAMBDA).unwrap();
        for m in [Metric::Haar, Metric::Cnot, Metric::Swap, Metric::W] {
            let best = best_basis(&rows, m);
            assert!(
                best.contains("iSWAP"),
                "{m:?} won by {best}, expected an iSWAP-family basis"
            );
        }
    }

    #[test]
    fn reference_tables_internally_consistent() {
        for (name, kc, ks, _e, kw) in paper_table4_reference() {
            // The paper's Table IV √CNOT row reports K[W] = 3.65, which only
            // matches the λ-mix with K[CNOT] = 1 — an inconsistency in the
            // published table (its own K[CNOT] column says 2). We keep the
            // published value and skip the consistency check for that row.
            if name == "sqrt_CNOT" {
                continue;
            }
            let mix = PAPER_LAMBDA * kc as f64 + (1.0 - PAPER_LAMBDA) * ks as f64;
            assert!((mix - kw).abs() < 0.02, "{name}: {mix} vs {kw}");
        }
    }
}
