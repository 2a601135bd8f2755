//! Decomposition cost models: the baseline analytic √iSWAP flow and the
//! parallel-drive optimized rules (Section IV, Figs. 10–12, Table V).
//!
//! Both models implement [`CostModel`] so the transpiler can schedule the
//! same consolidated circuit under either and compare (Table VII).
//!
//! Costs are expressed in normalized iSWAP-pulse units (`D[iSWAP] = 1`),
//! assuming the linear speed limit of the paper's evaluation section, i.e.
//! `D[√iSWAP] = 0.5`.
//!
//! General-class targets are looked up in three Monte-Carlo coverage
//! stacks. Building them is the paper's Algorithm 2, an offline step:
//! [`bake_hull_stacks`] runs it, `crates/core/src/baked.rs` holds its
//! exact output, and the first lookup in a process decodes that table.

use crate::baked;
use paradrive_coverage::scores::{build_stack, BuildOptions};
use paradrive_coverage::CoverageStack;
use paradrive_optimizer::{TemplateSpec, TemplateSynthesizer};
use paradrive_transpiler::{CostModel, GateCost};
use paradrive_weyl::WeylPoint;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::f64::consts::FRAC_PI_2;
use std::fmt::Write as _;
use std::sync::OnceLock;

const CLASS_TOL: f64 = 1e-6;

/// True for base-plane CNOT-family points `(θ, 0, 0)`.
pub fn is_cnot_family(p: WeylPoint) -> bool {
    p.c2.abs() < CLASS_TOL && p.c3.abs() < CLASS_TOL
}

/// True for base-plane iSWAP-family points `(θ, θ, 0)`.
pub fn is_iswap_family(p: WeylPoint) -> bool {
    (p.c1 - p.c2).abs() < CLASS_TOL && p.c3.abs() < CLASS_TOL && p.c1 > CLASS_TOL
}

/// True for the identity class.
pub fn is_identity(p: WeylPoint) -> bool {
    p.chamber_dist(WeylPoint::IDENTITY) < CLASS_TOL
}

/// True for the SWAP class.
pub fn is_swap(p: WeylPoint) -> bool {
    p.chamber_dist(WeylPoint::SWAP) < CLASS_TOL
}

/// One coverage stack behind hull costing: the Algorithm-2 inputs that
/// build it, and the `baked.rs` static holding that build's words.
struct StackDef {
    name: &'static str,
    basis_point: WeylPoint,
    seed: u64,
    spec_for_k: fn(usize) -> TemplateSpec,
    options: BuildOptions,
    /// The static's identifier in `baked.rs`, and the static itself.
    ident: &'static str,
    baked: &'static [u64],
}

impl StackDef {
    /// Runs Algorithm 2 from the fixed seed: the slow, offline step.
    fn build(&self) -> CoverageStack {
        let mut rng = StdRng::seed_from_u64(self.seed);
        build_stack(
            self.name,
            self.basis_point,
            self.spec_for_k,
            self.options,
            &mut rng,
        )
        .unwrap_or_else(|e| panic!("{} stack construction failed: {e}", self.name))
    }

    /// The stack as baked: the same bits [`StackDef::build`] produced.
    fn decode(&self) -> CoverageStack {
        CoverageStack::decode(self.name, self.basis_point, self.baked)
            .unwrap_or_else(|| panic!("baked.rs holds no valid {} stack", self.ident))
    }
}

/// The stacks hull costing queries, in `baked.rs` order: the baseline's
/// plain √iSWAP stack, then the parallel-driven iSWAP and √iSWAP stacks
/// the optimized rules query jointly.
static STACK_DEFS: [StackDef; 3] = [
    StackDef {
        name: "sqrt_iSWAP",
        basis_point: WeylPoint::SQRT_ISWAP,
        seed: 0x5157_1547,
        spec_for_k: |k| TemplateSpec::sqrt_iswap_basis(k).without_parallel_drive(),
        options: BuildOptions {
            max_k: 3,
            samples_per_k: 1600,
            exterior_restarts: 4,
            full_coverage_probe: 0,
        },
        ident: "BASELINE",
        baked: &baked::BASELINE,
    },
    StackDef {
        name: "iSWAP+PD",
        basis_point: WeylPoint::ISWAP,
        seed: 0x1547_9d00,
        spec_for_k: TemplateSpec::iswap_basis,
        options: BuildOptions {
            max_k: 2,
            samples_per_k: 1200,
            exterior_restarts: 4,
            full_coverage_probe: 0,
        },
        ident: "ISWAP_PD",
        baked: &baked::ISWAP_PD,
    },
    StackDef {
        name: "sqrt_iSWAP+PD",
        basis_point: WeylPoint::SQRT_ISWAP,
        seed: 0x5153_9d00,
        spec_for_k: TemplateSpec::sqrt_iswap_basis,
        options: BuildOptions {
            max_k: 3,
            samples_per_k: 1200,
            exterior_restarts: 4,
            full_coverage_probe: 0,
        },
        ident: "SQRT_ISWAP_PD",
        baked: &baked::SQRT_ISWAP_PD,
    },
];

/// The stacks of [`STACK_DEFS`], decoded from `baked.rs` on first use.
fn stacks() -> &'static [CoverageStack; 3] {
    static STACKS: OnceLock<[CoverageStack; 3]> = OnceLock::new();
    STACKS.get_or_init(|| STACK_DEFS.each_ref().map(StackDef::decode))
}

/// The shell steps that regenerate `crates/core/src/baked.rs`. The binary
/// is built first: `cargo run` behind the redirect would truncate the
/// file before compiling the crate that includes it.
const BAKE_STEPS: [&str; 2] = [
    "cargo build --release -p paradrive-repro --bin bake_hulls",
    "target/release/bake_hulls > crates/core/src/baked.rs",
];

/// Rebuilds the hull-costing stacks from their fixed seeds and renders
/// them as the source of `crates/core/src/baked.rs`, the table
/// [`BaselineSqrtIswap`] and [`ParallelDriveRules`] decode at runtime.
///
/// This runs the paper's Algorithm 2, the offline step (tens of seconds),
/// on one scoped thread per stack; each stack owns its seeded RNG, so the
/// bits do not depend on scheduling. The `bake_hulls` binary prints it.
pub fn bake_hull_stacks() -> String {
    render_baked(&build_stacks())
}

fn build_stacks() -> [CoverageStack; 3] {
    std::thread::scope(|scope| {
        STACK_DEFS
            .each_ref()
            .map(|def| scope.spawn(move || def.build()))
            .map(|handle| handle.join().expect("a stack build panicked"))
    })
}

/// `baked.rs` for builds of [`STACK_DEFS`]: one `#[rustfmt::skip]` static
/// of [`CoverageStack::encode`] words per stack, four to a line.
fn render_baked(stacks: &[CoverageStack; 3]) -> String {
    let mut out = String::from(
        "//! The coverage stacks behind hull costing, baked from the paper's Algorithm 2.\n\
         //!\n\
         //! Generated file: do not edit by hand. Each static holds the\n\
         //! `CoverageStack::encode` words of one stack as `rules.rs` builds it from\n\
         //! its seed and options, and a test there rebuilds all three and compares\n\
         //! this file byte for byte. Regenerate with:\n\
         //!\n\
         //! ```sh\n",
    );
    for step in BAKE_STEPS {
        let _ = writeln!(out, "//! {step}");
    }
    out.push_str("//! ```\n");
    for (def, stack) in STACK_DEFS.iter().zip(stacks) {
        let words = stack.encode();
        let _ = writeln!(
            out,
            "\n/// `{}`: seed {:#x}, K up to {}.",
            def.name,
            def.seed,
            stack.max_k()
        );
        out.push_str("#[rustfmt::skip]\n");
        let _ = writeln!(
            out,
            "pub(crate) static {}: [u64; {}] = [",
            def.ident,
            words.len()
        );
        for line in words.chunks(4) {
            let line: Vec<String> = line.iter().map(|w| format!("{w:#018x},")).collect();
            let _ = writeln!(out, "    {}", line.join(" "));
        }
        out.push_str("];\n");
    }
    out
}

/// The baseline: analytic √iSWAP decomposition without parallel drive
/// (the previously derived rules the paper compares against, Huang et al.).
///
/// Known classes get their analytic `K`; everything else queries the
/// Monte-Carlo coverage stack (K = 2 where covered, else the universal
/// K = 3).
#[derive(Debug, Clone, Copy)]
pub struct BaselineSqrtIswap {
    d_1q: f64,
}

impl BaselineSqrtIswap {
    /// Creates the model with the given 1Q layer duration (the paper's
    /// evaluation uses `0.25`).
    pub fn new(d_1q: f64) -> Self {
        BaselineSqrtIswap { d_1q }
    }

    fn k_of(&self, target: WeylPoint) -> usize {
        if target.chamber_dist(WeylPoint::SQRT_ISWAP) < CLASS_TOL {
            return 1;
        }
        if is_cnot_family(target) || is_iswap_family(target) {
            return 2;
        }
        if is_swap(target) {
            return 3;
        }
        let [baseline, _, _] = stacks();
        baseline
            .min_k(target, paradrive_coverage::scores::CONTAINMENT_TOL)
            .unwrap_or(3)
            .min(3)
    }
}

impl CostModel for BaselineSqrtIswap {
    fn cost(&self, target: WeylPoint) -> GateCost {
        if is_identity(target) {
            return GateCost {
                two_q_time: 0.0,
                one_q_layers: 0,
            };
        }
        let k = self.k_of(target);
        GateCost {
            two_q_time: k as f64 * 0.5,
            one_q_layers: k + 1,
        }
    }

    fn d_1q(&self) -> f64 {
        self.d_1q
    }

    fn name(&self) -> &str {
        "baseline-sqrt-iswap"
    }
}

/// The optimized parallel-drive rules (Figs. 10–12):
///
/// - CNOT-family targets ride a fractional parallel-driven iSWAP pulse of
///   matching duration with no interior 1Q layers (Fig. 10 / Fig. 12),
/// - iSWAP-family targets are direct fractional pulses,
/// - SWAP uses the Fig. 11 template (1.5 pulses, one interior layer),
/// - everything else takes the cheapest covering template from the joint
///   parallel-driven iSWAP / √iSWAP stacks.
#[derive(Debug, Clone, Copy)]
pub struct ParallelDriveRules {
    d_1q: f64,
}

impl ParallelDriveRules {
    /// Creates the model with the given 1Q layer duration.
    pub fn new(d_1q: f64) -> Self {
        ParallelDriveRules { d_1q }
    }
}

impl CostModel for ParallelDriveRules {
    fn cost(&self, target: WeylPoint) -> GateCost {
        if is_identity(target) {
            return GateCost {
                two_q_time: 0.0,
                one_q_layers: 0,
            };
        }
        // Fractional families: the 2Q time is bounded below by the
        // computational invariant (1 full pulse for CNOT, 1.5 for SWAP) and
        // parallel drive removes all interior steering.
        if is_cnot_family(target) || is_iswap_family(target) {
            return GateCost {
                two_q_time: (target.c1 / FRAC_PI_2).min(1.0),
                one_q_layers: 2,
            };
        }
        if is_swap(target) {
            return GateCost {
                two_q_time: 1.5,
                one_q_layers: 3,
            };
        }
        // Joint stacks: cheapest covering template.
        let tol = paradrive_coverage::scores::CONTAINMENT_TOL;
        let mut best = GateCost {
            two_q_time: 1.5,
            one_q_layers: 4,
        }; // universal fallback: K = 3 √iSWAP
        let mut best_d = best.two_q_time + best.one_q_layers as f64 * self.d_1q;
        let [_, iswap_pd, sqrt_pd] = stacks();
        let candidates = [(iswap_pd, 1.0_f64), (sqrt_pd, 0.5_f64)];
        for (stack, t_basis) in candidates {
            if let Some(k) = stack.min_k(target, tol) {
                let cost = GateCost {
                    two_q_time: k as f64 * t_basis,
                    one_q_layers: k + 1,
                };
                let d = cost.two_q_time + cost.one_q_layers as f64 * self.d_1q;
                if d < best_d {
                    best_d = d;
                    best = cost;
                }
            }
        }
        best
    }

    fn d_1q(&self) -> f64 {
        self.d_1q
    }

    fn name(&self) -> &str {
        "parallel-drive"
    }
}

/// Total Eq.-7 duration of a cost (2Q time plus 1Q layers).
pub fn total_duration(cost: GateCost, d_1q: f64) -> f64 {
    cost.two_q_time + cost.one_q_layers as f64 * d_1q
}

/// Parallel-drive costing by **per-target template synthesis** — the
/// paper's Algorithm-1 discipline applied to every block, rather than the
/// precomputed Monte-Carlo coverage hulls [`ParallelDriveRules`] queries.
///
/// Named classes keep their analytic fast paths (they are exact), but any
/// general target is costed by actually running multi-start Nelder–Mead
/// synthesis of the candidate templates, cheapest first, until one
/// converges onto the target's local-equivalence class. That makes each
/// general-class query *milliseconds* instead of nanoseconds — faithful to
/// what a calibration-grade transpiler pays per block, and exactly the
/// workload the engine crate's decomposition cache exists to amortize
/// across circuits.
///
/// Deterministic: the synthesis RNG is seeded from the target's quantized
/// [`WeylKey`](paradrive_weyl::WeylKey), so the same target always costs
/// the same — on any thread, in any order.
#[derive(Debug, Clone, Copy)]
pub struct SynthesizedParallelDrive {
    d_1q: f64,
    seed: u64,
    restarts: usize,
    max_iter: usize,
}

impl SynthesizedParallelDrive {
    /// Creates the model with the given 1Q layer duration and a default
    /// synthesis budget (2 restarts × 400 iterations per candidate).
    pub fn new(d_1q: f64) -> Self {
        SynthesizedParallelDrive {
            d_1q,
            seed: 0x5044_a1b0,
            restarts: 2,
            max_iter: 400,
        }
    }

    /// Overrides the per-candidate synthesis budget.
    #[must_use]
    pub fn with_budget(mut self, restarts: usize, max_iter: usize) -> Self {
        self.restarts = restarts.max(1);
        self.max_iter = max_iter.max(1);
        self
    }

    /// A per-target RNG seed: a pure function of the quantized target, so
    /// costing is order- and thread-independent.
    fn target_seed(&self, target: WeylPoint) -> u64 {
        let [a, b, c] = paradrive_weyl::WeylKey::new(target).as_lattice();
        let mut h = self.seed;
        for v in [a, b, c] {
            h ^= v as u64;
            h = h.wrapping_mul(0x100_0000_01b3); // FNV-style mix
        }
        h
    }
}

impl CostModel for SynthesizedParallelDrive {
    fn cost(&self, target: WeylPoint) -> GateCost {
        if is_identity(target) {
            return GateCost {
                two_q_time: 0.0,
                one_q_layers: 0,
            };
        }
        if is_cnot_family(target) || is_iswap_family(target) {
            return GateCost {
                two_q_time: (target.c1 / FRAC_PI_2).min(1.0),
                one_q_layers: 2,
            };
        }
        if is_swap(target) {
            return GateCost {
                two_q_time: 1.5,
                one_q_layers: 3,
            };
        }
        // General class: synthesize candidate templates cheapest-first.
        // (K applications of √iSWAP cost 0.5 each, of iSWAP 1.0 each; a
        // template of K applications uses K + 1 layers.)
        let candidates = [
            (TemplateSpec::sqrt_iswap_basis(1), 0.5, 2usize),
            (TemplateSpec::iswap_basis(1), 1.0, 2),
            (TemplateSpec::sqrt_iswap_basis(2), 1.0, 3),
            (TemplateSpec::sqrt_iswap_basis(3), 1.5, 4),
        ];
        let mut rng = StdRng::seed_from_u64(self.target_seed(target));
        for (spec, two_q_time, one_q_layers) in candidates {
            let synth = TemplateSynthesizer::new(spec)
                .with_restarts(self.restarts)
                .with_options(paradrive_optimizer::Options {
                    max_iter: self.max_iter,
                    ..Default::default()
                });
            if let Ok(outcome) = synth.synthesize_to_point(target, &mut rng) {
                if outcome.converged {
                    return GateCost {
                        two_q_time,
                        one_q_layers,
                    };
                }
            }
        }
        // Universal fallback: the K = 3 √iSWAP template covers the chamber.
        GateCost {
            two_q_time: 1.5,
            one_q_layers: 4,
        }
    }

    fn d_1q(&self) -> f64 {
        self.d_1q
    }

    fn name(&self) -> &str {
        "synthesized-parallel-drive"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const D1Q: f64 = 0.25;

    #[test]
    fn class_predicates() {
        assert!(is_cnot_family(WeylPoint::CNOT));
        assert!(is_cnot_family(WeylPoint::SQRT_CNOT));
        assert!(!is_cnot_family(WeylPoint::B));
        assert!(is_iswap_family(WeylPoint::ISWAP));
        assert!(is_iswap_family(WeylPoint::SQRT_ISWAP));
        assert!(!is_iswap_family(WeylPoint::IDENTITY));
        assert!(is_swap(WeylPoint::SWAP));
        assert!(is_identity(WeylPoint::IDENTITY));
    }

    #[test]
    fn baseline_reference_durations() {
        // Table III, √iSWAP column (linear SLF, D[1Q] = 0.25):
        // D[CNOT] = 1.75, D[SWAP] = 2.5.
        let m = BaselineSqrtIswap::new(D1Q);
        let cnot = total_duration(m.cost(WeylPoint::CNOT), D1Q);
        assert!((cnot - 1.75).abs() < 1e-9, "D[CNOT] = {cnot}");
        let swap = total_duration(m.cost(WeylPoint::SWAP), D1Q);
        assert!((swap - 2.5).abs() < 1e-9, "D[SWAP] = {swap}");
        // The basis itself costs one pulse: 0.5 + 2·0.25 = 1.0.
        let self_cost = total_duration(m.cost(WeylPoint::SQRT_ISWAP), D1Q);
        assert!((self_cost - 1.0).abs() < 1e-9);
    }

    #[test]
    fn optimized_reference_durations() {
        // Table V (D[1Q] = 0.25): D[CNOT] = 1.5, D[SWAP] = 2.25.
        let m = ParallelDriveRules::new(D1Q);
        let cnot = total_duration(m.cost(WeylPoint::CNOT), D1Q);
        assert!((cnot - 1.5).abs() < 1e-9, "D[CNOT] = {cnot}");
        let swap = total_duration(m.cost(WeylPoint::SWAP), D1Q);
        assert!((swap - 2.25).abs() < 1e-9, "D[SWAP] = {swap}");
    }

    #[test]
    fn fractional_cnot_family_scales() {
        // A QFT-style small controlled phase: CAN(π/8, 0, 0) costs a
        // quarter pulse of 2Q time under parallel drive.
        let m = ParallelDriveRules::new(D1Q);
        let p = WeylPoint::new(FRAC_PI_2 / 4.0, 0.0, 0.0);
        let c = m.cost(p);
        assert!((c.two_q_time - 0.25).abs() < 1e-9);
        assert_eq!(c.one_q_layers, 2);
        // The baseline charges the full 2-application template.
        let b = BaselineSqrtIswap::new(D1Q).cost(p);
        assert!((b.two_q_time - 1.0).abs() < 1e-9);
        assert_eq!(b.one_q_layers, 3);
    }

    #[test]
    fn identity_is_free_for_both() {
        for model in [
            &BaselineSqrtIswap::new(D1Q) as &dyn CostModel,
            &ParallelDriveRules::new(D1Q) as &dyn CostModel,
        ] {
            let c = model.cost(WeylPoint::IDENTITY);
            assert_eq!(c.two_q_time, 0.0);
            assert_eq!(c.one_q_layers, 0);
        }
    }

    #[test]
    fn optimized_never_slower_on_named_gates() {
        let b = BaselineSqrtIswap::new(D1Q);
        let o = ParallelDriveRules::new(D1Q);
        for p in [
            WeylPoint::CNOT,
            WeylPoint::SQRT_CNOT,
            WeylPoint::ISWAP,
            WeylPoint::SQRT_ISWAP,
            WeylPoint::SWAP,
        ] {
            let bd = total_duration(b.cost(p), D1Q);
            let od = total_duration(o.cost(p), D1Q);
            assert!(od <= bd + 1e-9, "{p}: optimized {od} > baseline {bd}");
        }
    }

    #[test]
    fn synthesized_model_matches_analytic_fast_paths() {
        let s = SynthesizedParallelDrive::new(D1Q);
        let p = ParallelDriveRules::new(D1Q);
        for point in [
            WeylPoint::IDENTITY,
            WeylPoint::CNOT,
            WeylPoint::SQRT_CNOT,
            WeylPoint::ISWAP,
            WeylPoint::SQRT_ISWAP,
            WeylPoint::SWAP,
        ] {
            assert_eq!(s.cost(point), p.cost(point), "{point}");
        }
    }

    #[test]
    fn synthesized_general_target_is_deterministic_and_bounded() {
        let s = SynthesizedParallelDrive::new(D1Q).with_budget(2, 300);
        let p = WeylPoint::new(1.2, 0.6, 0.3);
        let first = s.cost(p);
        let again = s.cost(p);
        assert_eq!(first, again, "synthesis costing must be deterministic");
        let d = total_duration(first, D1Q);
        assert!((1.0..=2.5 + 1e-9).contains(&d), "cost {d}");
    }

    /// The one test that runs Algorithm 2 for the hull-costing stacks: a
    /// fresh build from [`STACK_DEFS`] must match every baked `K` word for
    /// word and render `baked.rs` byte for byte.
    #[test]
    fn baked_stacks_match_a_fresh_build() {
        let rebake = BAKE_STEPS.join(" && ");
        let built = build_stacks();
        for (def, fresh) in STACK_DEFS.iter().zip(&built) {
            let baked = def.decode();
            assert_eq!(
                baked.max_k(),
                fresh.max_k(),
                "{}: baked K range differs from a fresh build; regenerate with `{rebake}`",
                def.name
            );
            for k in 1..=fresh.max_k() {
                let words = |stack: &CoverageStack| {
                    CoverageStack::new(def.name, def.basis_point, vec![stack.set(k).clone()])
                        .encode()
                };
                assert!(
                    words(&baked) == words(fresh),
                    "{} K = {k}: baked words differ from a fresh build; regenerate with `{rebake}`",
                    def.name
                );
            }
        }
        assert!(
            render_baked(&built) == include_str!("baked.rs"),
            "baked.rs differs from its rendering; regenerate with `{rebake}`"
        );
    }

    #[test]
    fn general_target_costs_are_bounded() {
        // Haar-ish interior point must cost at most the universal fallback.
        let m = ParallelDriveRules::new(D1Q);
        let p = WeylPoint::new(1.2, 0.6, 0.3);
        let d = total_duration(m.cost(p), D1Q);
        assert!(d <= 2.5 + 1e-9, "cost {d}");
        assert!(d >= 1.0, "cost {d} suspiciously cheap");
    }
}
