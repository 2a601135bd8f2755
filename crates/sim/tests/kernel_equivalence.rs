//! The kernels' correctness contract: the lane-parallel kernels are
//! **bit-identical** to the scalar reference on random circuits across
//! every register width.
//!
//! Exact `to_bits` comparison, not an epsilon: both engines must compute
//! the identical floating-point expression per amplitude, which is what
//! keeps the repo's 1-vs-N-thread bit-identical-report discipline intact
//! no matter which engine a host selects.

use paradrive_circuit::{Circuit, OneQ, TwoQ};
use paradrive_linalg::qr::random_unitary;
use paradrive_linalg::C64;
use paradrive_sim::{KernelPath, State};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seeded random circuit drawing from the full 1Q/2Q gate alphabet.
/// CX, CZ, CPhase, Rzz, iSWAP, X, S, T and Rz are monomial, which both
/// paths apply with shared code. H, Ry and the fused CX·(Ry⊗Ry) blocks
/// are real, and Rx, U3, √iSWAP and the Haar-random 4×4s are dense: each
/// of those shapes has a Scalar body and a Lanes body.
fn random_circuit(n: usize, ops: usize, seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::new(n);
    for _ in 0..ops {
        let two_q = n >= 2 && rng.gen_bool(0.5);
        if two_q {
            let a = rng.gen_range(0..n);
            let mut b = rng.gen_range(0..n - 1);
            if b >= a {
                b += 1;
            }
            let theta = rng.gen_range(-3.0..3.0);
            let gate = match rng.gen_range(0..8u32) {
                0 => TwoQ::Cx,
                1 => TwoQ::Cz,
                2 => TwoQ::CPhase(theta),
                3 => TwoQ::Rzz(theta),
                4 => TwoQ::ISwap,
                5 => TwoQ::SqrtISwap,
                6 => {
                    let phi = rng.gen_range(-3.0..3.0);
                    let ry_ry = OneQ::Ry(theta).unitary().kron(&OneQ::Ry(phi).unitary());
                    TwoQ::Unitary(Box::new(TwoQ::Cx.unitary().mul(&ry_ry)))
                }
                _ => TwoQ::Unitary(Box::new(random_unitary(4, &mut rng))),
            };
            c.push_2q(gate, a, b);
        } else {
            let q = rng.gen_range(0..n);
            let theta = rng.gen_range(-3.0..3.0);
            let gate = match rng.gen_range(0..8u32) {
                0 => OneQ::H,
                1 => OneQ::X,
                2 => OneQ::S,
                3 => OneQ::T,
                4 => OneQ::Rx(theta),
                5 => OneQ::Ry(theta),
                6 => OneQ::Rz(theta),
                _ => OneQ::U3(theta, rng.gen_range(-3.0..3.0), rng.gen_range(-3.0..3.0)),
            };
            c.push_1q(gate, q);
        }
    }
    c
}

fn assert_bit_identical(a: &[C64], b: &[C64], context: &str) {
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
            "{context}: amplitude {i} differs: scalar {x:?} vs lanes {y:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `State::run` amplitudes agree bitwise between engines on widths
    /// 1–12 — covering every lane regime: narrow fallbacks, the strided
    /// small-bit patterns, and the contiguous-run paths.
    #[test]
    fn state_run_is_bit_identical_across_paths(
        n in 1usize..=12,
        seed in 0u64..10_000,
    ) {
        let c = random_circuit(n, 24.min(4 * n), seed);
        let scalar = State::run_with(&c, KernelPath::Scalar).unwrap();
        let lanes = State::run_with(&c, KernelPath::Lanes).unwrap();
        assert_bit_identical(
            scalar.amplitudes(),
            lanes.amplitudes(),
            &format!("n={n} seed={seed}"),
        );
    }

    /// The in-place permutation is engine-independent and matches the
    /// allocating wrapper.
    #[test]
    fn permute_agrees_with_permuted_on_both_paths(
        n in 1usize..=10,
        seed in 0u64..10_000,
    ) {
        let c = random_circuit(n, 16, seed);
        // A seeded permutation: rotate by a seed-dependent offset.
        let shift = (seed as usize) % n;
        let perm: Vec<usize> = (0..n).map(|q| (q + shift) % n).collect();
        for path in [KernelPath::Scalar, KernelPath::Lanes] {
            let st = State::run_with(&c, path).unwrap();
            let via_wrapper = st.permuted(&perm).unwrap();
            let mut in_place = st.clone();
            in_place.permute(&perm).unwrap();
            assert_bit_identical(
                via_wrapper.amplitudes(),
                in_place.amplitudes(),
                &format!("n={n} seed={seed} path={path:?}"),
            );
        }
    }
}
