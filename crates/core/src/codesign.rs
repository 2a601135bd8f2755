//! Codesign sweeps: which basis gate should a modulator calibrate?
//!
//! Two studies from the paper:
//!
//! - [`fig5_summary`] — for each SLF and 1Q duration, the winning basis per
//!   metric (the information content of Fig. 5's intersection plots).
//! - [`fractional_iswap_curve`] — the Fig. 6 study: expected Haar duration
//!   of the fractional basis `iSWAP^(1/x)` as the fraction shrinks, for
//!   several 1Q durations; the optimum moves from near-identity pulses at
//!   `D[1Q] = 0` to √iSWAP at appreciable 1Q cost.

use crate::scoring::{best_basis, duration_table, DurationRow, Metric};
use crate::CoreError;
use paradrive_coverage::scores::{build_stack, BuildOptions, CONTAINMENT_TOL};
use paradrive_optimizer::TemplateSpec;
use paradrive_speedlimit::StandardSlf;
use paradrive_weyl::WeylPoint;
use rand::Rng;
use std::f64::consts::FRAC_PI_2;

/// One cell of the Fig. 5 summary: the winning basis for a metric under an
/// SLF at a 1Q duration.
#[derive(Debug, Clone)]
pub struct Fig5Cell {
    /// Speed-limit name.
    pub slf: String,
    /// 1Q gate duration as a fraction of a full pulse.
    pub d_1q: f64,
    /// The metric.
    pub metric: Metric,
    /// The winning basis.
    pub best: String,
    /// The winning duration value.
    pub value: f64,
}

/// Computes the Fig. 5 summary over the standard SLFs and the paper's
/// `D[1Q] ∈ {0, 0.1, 0.25}` grid.
///
/// # Errors
///
/// Propagates duration-table failures.
pub fn fig5_summary(lambda: f64) -> Result<Vec<Fig5Cell>, CoreError> {
    let mut cells = Vec::new();
    for slf in StandardSlf::all() {
        for &d1q in &[0.0, 0.1, 0.25] {
            let rows = duration_table(slf.as_slf(), d1q, lambda)?;
            for metric in [Metric::Haar, Metric::Cnot, Metric::Swap, Metric::W] {
                let best = best_basis(&rows, metric).to_string();
                let value = metric_value(&rows, &best, metric);
                cells.push(Fig5Cell {
                    slf: slf.as_slf().name().to_string(),
                    d_1q: d1q,
                    metric,
                    best,
                    value,
                });
            }
        }
    }
    Ok(cells)
}

fn metric_value(rows: &[DurationRow], basis: &str, metric: Metric) -> f64 {
    let r = rows
        .iter()
        .find(|r| r.basis == basis)
        .expect("basis exists");
    match metric {
        Metric::Haar => r.e_d_haar,
        Metric::Cnot => r.d_cnot,
        Metric::Swap => r.d_swap,
        Metric::W => r.d_w,
    }
}

/// One point of the Fig. 6 curve.
#[derive(Debug, Clone)]
pub struct Fig6Point {
    /// The basis fraction `1/x` (basis is `iSWAP^(1/x)`).
    pub fraction: f64,
    /// Measured `E[K[Haar]]` for this fractional basis.
    pub e_k_haar: f64,
    /// `E[D[Haar]]` per 1Q duration, in the same order as the input list.
    pub e_d_haar: Vec<f64>,
}

/// Builds the Fig. 6 study: for each fraction, Monte-Carlo the coverage
/// stack of the plain `iSWAP^f` basis, measure `E[K[Haar]]` against a
/// shared Haar sample, and convert to durations for each 1Q cost
/// (linear-SLF pulse duration of `iSWAP^f` is `f`).
///
/// # Errors
///
/// Propagates coverage-construction failures.
pub fn fractional_iswap_curve<R: Rng + ?Sized>(
    fractions: &[f64],
    d1q_values: &[f64],
    samples_per_k: usize,
    haar_n: usize,
    rng: &mut R,
) -> Result<Vec<Fig6Point>, CoreError> {
    let haar = paradrive_weyl::haar::sample_points(haar_n, rng);
    let mut out = Vec::with_capacity(fractions.len());
    for &f in fractions {
        assert!(f > 0.0 && f <= 1.0, "fraction must be in (0, 1]");
        let max_k = ((3.2 / f).ceil() as usize).clamp(3, 14);
        let stack = build_stack(
            &format!("iSWAP^{f:.3}"),
            WeylPoint::new(f * FRAC_PI_2, f * FRAC_PI_2, 0.0),
            |k| TemplateSpec::for_basis_angles(f * FRAC_PI_2, 0.0, k).without_parallel_drive(),
            BuildOptions {
                max_k,
                samples_per_k,
                exterior_restarts: 0,
                full_coverage_probe: 50,
            },
            rng,
        )
        .map_err(|e| CoreError::Coverage(e.to_string()))?;
        let e_k = haar
            .iter()
            .map(|p| {
                stack
                    .min_k(*p, CONTAINMENT_TOL)
                    .unwrap_or(stack.max_k() + 1) as f64
            })
            .sum::<f64>()
            / haar.len() as f64;
        let e_d = d1q_values
            .iter()
            .map(|&d1q| e_k * f + (e_k + 1.0) * d1q)
            .collect();
        out.push(Fig6Point {
            fraction: f,
            e_k_haar: e_k,
            e_d_haar: e_d,
        });
    }
    Ok(out)
}

/// Finds the fraction minimizing `E[D[Haar]]` for a given 1Q index into
/// the curve's `d1q_values`.
pub fn optimal_fraction(curve: &[Fig6Point], d1q_index: usize) -> f64 {
    curve
        .iter()
        .min_by(|a, b| a.e_d_haar[d1q_index].total_cmp(&b.e_d_haar[d1q_index]))
        .expect("curve non-empty")
        .fraction
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradrive_coverage::PAPER_LAMBDA;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fig5_summary_covers_grid() {
        let cells = fig5_summary(PAPER_LAMBDA).unwrap();
        // 3 SLFs × 3 d1q × 4 metrics.
        assert_eq!(cells.len(), 36);
        // With appreciable 1Q cost on the linear SLF, √iSWAP wins Haar.
        let cell = cells
            .iter()
            .find(|c| c.slf == "linear" && c.d_1q == 0.25 && c.metric == Metric::Haar)
            .unwrap();
        assert_eq!(cell.best, "sqrt_iSWAP");
    }

    #[test]
    fn fig6_fractional_curve_shape() {
        let mut rng = StdRng::seed_from_u64(77);
        let fractions = [1.0, 0.5, 0.25];
        let curve = fractional_iswap_curve(&fractions, &[0.0, 0.25], 250, 120, &mut rng).unwrap();
        assert_eq!(curve.len(), 3);
        // Full iSWAP: E[K] = 3 (base plane at K=2 has Haar measure zero);
        // MC hulls at modest sample counts slightly overestimate.
        assert!(
            (curve[0].e_k_haar - 3.0).abs() < 0.35,
            "{}",
            curve[0].e_k_haar
        );
        // Smaller fractions need more applications.
        assert!(curve[2].e_k_haar > curve[1].e_k_haar);
        // At D[1Q] = 0, fractional pulses are not worse than the full pulse
        // (they waste less computing power).
        assert!(curve[1].e_d_haar[0] <= curve[0].e_d_haar[0] + 0.1);
        // At D[1Q] = 0.25, the many-application small fraction pays a large
        // 1Q overhead: √iSWAP (0.5) beats iSWAP^(1/4).
        assert!(
            curve[1].e_d_haar[1] < curve[2].e_d_haar[1],
            "sqrt {} vs quarter {}",
            curve[1].e_d_haar[1],
            curve[2].e_d_haar[1]
        );
    }

    #[test]
    fn optimal_fraction_moves_with_1q_cost() {
        let curve = vec![
            Fig6Point {
                fraction: 1.0,
                e_k_haar: 3.0,
                e_d_haar: vec![3.0, 4.0],
            },
            Fig6Point {
                fraction: 0.5,
                e_k_haar: 2.2,
                e_d_haar: vec![1.1, 1.9],
            },
            Fig6Point {
                fraction: 0.125,
                e_k_haar: 8.0,
                e_d_haar: vec![1.0, 3.25],
            },
        ];
        assert_eq!(optimal_fraction(&curve, 0), 0.125); // free 1Q → tiny pulses
        assert_eq!(optimal_fraction(&curve, 1), 0.5); // costly 1Q → √iSWAP
    }
}
