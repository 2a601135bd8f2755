//! Decomposition scores: `K` counts, Haar expectations, the weighted `W(λ)`
//! metric and the speed-limit-scaled duration costs of Eq. 7.

use crate::region::{CoverageSet, CoverageStack};
use crate::sampler::{exterior_queries, sample_template_points};
use crate::CoverageError;
use paradrive_optimizer::TemplateSpec;
use paradrive_weyl::WeylPoint;
use rand::Rng;

/// The paper's CNOT:SWAP mix fitted from benchmark workloads (Section II-B):
/// `λ = 731/(731+828) ≈ 0.47`.
pub const PAPER_LAMBDA: f64 = 731.0 / (731.0 + 828.0);

/// Duration of a `K`-template under Eq. 7:
/// `D = K·D_basis + (K+1)·D[1Q]`.
pub fn duration_cost(k: usize, d_basis: f64, d_1q: f64) -> f64 {
    k as f64 * d_basis + (k + 1) as f64 * d_1q
}

/// Containment tolerance used when testing chamber points against hulls.
pub const CONTAINMENT_TOL: f64 = 2e-3;

/// Options controlling coverage-stack construction.
#[derive(Debug, Clone, Copy)]
pub struct BuildOptions {
    /// Largest template size to build.
    pub max_k: usize,
    /// Random samples per template size (the paper uses 3000).
    pub samples_per_k: usize,
    /// Optimizer restarts per exterior target (0 disables the exterior
    /// stage).
    pub exterior_restarts: usize,
    /// Stop growing `K` once a Haar probe of this size is fully covered
    /// (0 disables early stopping).
    pub full_coverage_probe: usize,
}

impl Default for BuildOptions {
    fn default() -> Self {
        BuildOptions {
            max_k: 6,
            samples_per_k: 3000,
            exterior_restarts: 6,
            full_coverage_probe: 200,
        }
    }
}

/// Builds the per-`K` coverage stack for a template family (the paper's
/// Algorithm 2): random sampling, exterior-point optimization, convex hulls.
///
/// `spec_for_k` must return the template spec for a given `K` (this lets
/// callers toggle parallel drive or interleaving per size).
///
/// # Errors
///
/// Propagates sampling failures as [`CoverageError`].
pub fn build_stack<R: Rng + ?Sized>(
    name: &str,
    basis_point: WeylPoint,
    spec_for_k: impl Fn(usize) -> TemplateSpec,
    options: BuildOptions,
    rng: &mut R,
) -> Result<CoverageStack, CoverageError> {
    let mut sets = Vec::with_capacity(options.max_k);
    let mut probe: Vec<WeylPoint> = Vec::new();
    if options.full_coverage_probe > 0 {
        probe = paradrive_weyl::haar::sample_points(options.full_coverage_probe, rng);
    }
    for k in 1..=options.max_k {
        let spec = spec_for_k(k);
        let mut pts = sample_template_points(&spec, options.samples_per_k, rng)?;
        if options.exterior_restarts > 0 {
            for q in exterior_queries(&spec, options.exterior_restarts, rng) {
                if q.reachable {
                    pts.push(q.best_point);
                }
            }
        }
        let set = CoverageSet::from_points(&pts);
        // Stop early only when the Haar probe is covered AND the SWAP
        // vertex is inside — SWAP is always the last gate to be reached
        // (Section III-C), and it carries zero Haar mass.
        let full = !probe.is_empty()
            && probe.iter().all(|p| set.contains(*p, CONTAINMENT_TOL))
            && set.contains(WeylPoint::SWAP, CONTAINMENT_TOL);
        sets.push(set);
        if full {
            break;
        }
    }
    Ok(CoverageStack::new(name, basis_point, sets))
}

/// The `K`-count scores of Table I / Table IV.
#[derive(Debug, Clone)]
pub struct KScores {
    /// Basis name.
    pub basis: String,
    /// `K[CNOT]` — template size to reach the CNOT class.
    pub k_cnot: Option<usize>,
    /// `K[SWAP]`.
    pub k_swap: Option<usize>,
    /// `E[K[Haar]]` — expected size over Haar-random targets.
    pub e_k_haar: f64,
    /// `K[W(λ)] = λ·K[CNOT] + (1−λ)·K[SWAP]`.
    pub k_w: f64,
}

/// Computes the `K` scores of a coverage stack against a shared Haar sample.
///
/// Haar targets not covered at the stack's maximum size are charged
/// `max_k + 1` (they would need at least one more application).
pub fn k_scores(stack: &CoverageStack, haar: &[WeylPoint], lambda: f64) -> KScores {
    let k_cnot = stack.min_k(WeylPoint::CNOT, CONTAINMENT_TOL);
    let k_swap = stack.min_k(WeylPoint::SWAP, CONTAINMENT_TOL);
    let e_k_haar = if haar.is_empty() {
        f64::NAN
    } else {
        haar.iter()
            .map(|p| {
                stack
                    .min_k(*p, CONTAINMENT_TOL)
                    .unwrap_or(stack.max_k() + 1) as f64
            })
            .sum::<f64>()
            / haar.len() as f64
    };
    let k_w = match (k_cnot, k_swap) {
        (Some(c), Some(s)) => lambda * c as f64 + (1.0 - lambda) * s as f64,
        _ => f64::NAN,
    };
    KScores {
        basis: stack.name().to_string(),
        k_cnot,
        k_swap,
        e_k_haar,
        k_w,
    }
}

/// The duration scores of Tables II / III / V.
#[derive(Debug, Clone)]
pub struct DScores {
    /// Basis name.
    pub basis: String,
    /// Normalized pulse duration of one basis application (`D_Basis`).
    pub d_basis: f64,
    /// `D[CNOT]` under Eq. 7.
    pub d_cnot: f64,
    /// `D[SWAP]`.
    pub d_swap: f64,
    /// `E[D[Haar]]`.
    pub e_d_haar: f64,
    /// `D[W(λ)]`.
    pub d_w: f64,
}

/// Computes duration scores from `K` data via Eq. 7.
///
/// For targets identical to stacked copies of the basis itself (e.g. iSWAP
/// from two √iSWAPs) the caller should instead use the fractional-stacking
/// rules in `paradrive-core`; this function charges the generic template
/// costs of the paper's Tables II–III.
pub fn d_scores(
    stack: &CoverageStack,
    haar: &[WeylPoint],
    d_basis: f64,
    d_1q: f64,
    lambda: f64,
) -> DScores {
    let charge = |k: Option<usize>| -> f64 {
        k.map(|k| duration_cost(k, d_basis, d_1q))
            .unwrap_or(f64::NAN)
    };
    let d_cnot = charge(stack.min_k(WeylPoint::CNOT, CONTAINMENT_TOL));
    let d_swap = charge(stack.min_k(WeylPoint::SWAP, CONTAINMENT_TOL));
    let e_d_haar = if haar.is_empty() {
        f64::NAN
    } else {
        haar.iter()
            .map(|p| {
                let k = stack
                    .min_k(*p, CONTAINMENT_TOL)
                    .unwrap_or(stack.max_k() + 1);
                duration_cost(k, d_basis, d_1q)
            })
            .sum::<f64>()
            / haar.len() as f64
    };
    let d_w = if d_cnot.is_nan() || d_swap.is_nan() {
        f64::NAN
    } else {
        lambda * d_cnot + (1.0 - lambda) * d_swap
    };
    DScores {
        basis: stack.name().to_string(),
        d_basis,
        d_cnot,
        d_swap,
        e_d_haar,
        d_w,
    }
}

/// A coverage set paired with known analytic facts, used as a cross-check
/// oracle in tests and reports: the paper's Table I values.
pub fn paper_table1_reference() -> Vec<(&'static str, usize, usize, f64, f64)> {
    // (basis, K[CNOT], K[SWAP], E[K[Haar]], K[W(.47)])
    vec![
        ("iSWAP", 2, 3, 3.00, 2.53),
        ("sqrt_iSWAP", 2, 3, 2.21, 2.53),
        ("CNOT", 1, 3, 3.00, 2.06),
        ("sqrt_CNOT", 2, 6, 3.54, 4.12),
        ("B", 2, 2, 2.00, 2.00),
        ("sqrt_B", 2, 4, 2.50, 3.06),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn quick_options() -> BuildOptions {
        BuildOptions {
            max_k: 3,
            samples_per_k: 250,
            exterior_restarts: 5,
            full_coverage_probe: 60,
        }
    }

    #[test]
    fn lambda_matches_paper() {
        assert!((PAPER_LAMBDA - 0.47).abs() < 0.005);
    }

    #[test]
    fn duration_cost_formula() {
        // Table III spot check: iSWAP D[CNOT] with D[1Q]=0.25 and K=2:
        // 2·1 + 3·0.25 = 2.75.
        assert!((duration_cost(2, 1.0, 0.25) - 2.75).abs() < 1e-12);
        // √iSWAP K=3 SWAP: 3·0.5 + 4·0.25 = 2.5.
        assert!((duration_cost(3, 0.5, 0.25) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn iswap_stack_k_scores() {
        let mut rng = StdRng::seed_from_u64(10);
        let stack = build_stack(
            "iSWAP",
            WeylPoint::ISWAP,
            |k| TemplateSpec::iswap_basis(k).without_parallel_drive(),
            quick_options(),
            &mut rng,
        )
        .unwrap();
        let haar = paradrive_weyl::haar::sample_points(150, &mut rng);
        let s = k_scores(&stack, &haar, PAPER_LAMBDA);
        assert_eq!(s.k_cnot, Some(2), "K[CNOT] for iSWAP");
        assert_eq!(s.k_swap, Some(3), "K[SWAP] for iSWAP");
        // E[K[Haar]] = 3 exactly (base plane has Haar measure zero).
        assert!(
            (s.e_k_haar - 3.0).abs() < 0.15,
            "E[K[Haar]] = {}",
            s.e_k_haar
        );
    }

    #[test]
    fn sqrt_iswap_stack_k_scores() {
        let mut rng = StdRng::seed_from_u64(11);
        let stack = build_stack(
            "sqrt_iSWAP",
            WeylPoint::SQRT_ISWAP,
            |k| TemplateSpec::sqrt_iswap_basis(k).without_parallel_drive(),
            quick_options(),
            &mut rng,
        )
        .unwrap();
        let haar = paradrive_weyl::haar::sample_points(200, &mut rng);
        let s = k_scores(&stack, &haar, PAPER_LAMBDA);
        assert_eq!(s.k_cnot, Some(2));
        assert_eq!(s.k_swap, Some(3));
        // Paper: 2.21. MC hulls give a slight overestimate; accept a band.
        assert!(
            (2.0..2.6).contains(&s.e_k_haar),
            "E[K[Haar]] = {}",
            s.e_k_haar
        );
        // And the W score: 0.47·2 + 0.53·3 ≈ 2.53.
        assert!((s.k_w - 2.53).abs() < 0.02, "K[W] = {}", s.k_w);
    }

    #[test]
    fn d_scores_from_stack() {
        let mut rng = StdRng::seed_from_u64(12);
        let stack = build_stack(
            "iSWAP",
            WeylPoint::ISWAP,
            |k| TemplateSpec::iswap_basis(k).without_parallel_drive(),
            quick_options(),
            &mut rng,
        )
        .unwrap();
        let haar = paradrive_weyl::haar::sample_points(100, &mut rng);
        // Linear SLF: D_basis(iSWAP) = 1.0, D[1Q] = 0.25 → Table III row.
        let d = d_scores(&stack, &haar, 1.0, 0.25, PAPER_LAMBDA);
        assert!((d.d_cnot - 2.75).abs() < 1e-9);
        assert!((d.d_swap - 4.0).abs() < 1e-9);
        assert!((d.e_d_haar - 4.0).abs() < 0.3);
        assert!((d.d_w - 3.41).abs() < 0.02);
    }

    #[test]
    fn reference_table_is_consistent() {
        for (basis, kc, ks, _e, kw) in paper_table1_reference() {
            let expect = PAPER_LAMBDA * kc as f64 + (1.0 - PAPER_LAMBDA) * ks as f64;
            assert!(
                (expect - kw).abs() < 0.02,
                "{basis}: λ-mix {expect} vs table {kw}"
            );
        }
    }
}
