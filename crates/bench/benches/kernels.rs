//! Micro-kernels underpinning every experiment: matrix exponentials,
//! Weyl-coordinate extraction, Haar sampling, simplex steps — and the
//! statevector gate-apply kernels, measured on both engines so the
//! scalar-vs-lanes speedup of the dense and real kernels is part of the
//! tracked perf trajectory.

use criterion::{criterion_group, criterion_main, Criterion};
use paradrive_circuit::{Circuit, OneQ, TwoQ};
use paradrive_linalg::expm::expm;
use paradrive_linalg::qr::random_unitary;
use paradrive_linalg::{paulis, C64};
use paradrive_optimizer::{NelderMead, Options};
use paradrive_sim::{KernelPath, State};
use paradrive_weyl::magic::coordinates;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_expm(c: &mut Criterion) {
    let h = paulis::xx()
        .scale(C64::real(0.7))
        .add(&paulis::yy().scale(C64::real(0.3)))
        .scale(C64::new(0.0, -1.0));
    c.bench_function("kernels/expm_4x4", |b| b.iter(|| expm(black_box(&h))));
}

fn bench_coordinates(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let u = random_unitary(4, &mut rng);
    c.bench_function("kernels/weyl_coordinates", |b| {
        b.iter(|| coordinates(black_box(&u)).unwrap())
    });
}

fn bench_haar(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    c.bench_function("kernels/haar_random_unitary", |b| {
        b.iter(|| random_unitary(4, &mut rng))
    });
}

fn bench_nelder_mead(c: &mut Criterion) {
    let f = |x: &[f64]| x.iter().map(|v| (v - 0.3) * (v - 0.3)).sum::<f64>();
    let nm = NelderMead::new(Options {
        max_iter: 200,
        ..Options::default()
    });
    c.bench_function("kernels/nelder_mead_10d", |b| {
        b.iter(|| nm.minimize(&f, black_box(&[1.0; 10])))
    });
}

/// A 20-qubit apply-heavy layer spanning every kernel regime: contiguous
/// high-bit 1Q/2Q runs, the strided low-bit 1Q patterns, and a low-bit 2Q
/// block — 17 gates, all unitary, so repeated application is stable.
/// CX, Rz and iSWAP are monomial, so both paths run the same shaped
/// kernels for them; H is real and takes the lanes body on the lanes
/// path.
fn apply_heavy_20q() -> Circuit {
    let n = 20;
    let mut c = Circuit::new(n);
    for q in (0..n).step_by(3) {
        c.push_1q(OneQ::H, q);
    }
    for a in [0, 5, 9, 13, 17] {
        c.push_2q(TwoQ::Cx, a, a + 1);
    }
    for q in (1..n).step_by(5) {
        c.push_1q(OneQ::Rz(0.3), q);
    }
    c.push_2q(TwoQ::ISwap, 18, 19);
    c
}

/// The same regimes as [`apply_heavy_20q`] in the gates of a
/// consolidated VQE ansatz layer: Ry rotations and real fused
/// CX·(Ry⊗Ry) blocks, so every apply runs the real kernels of the chosen
/// path.
fn apply_real_20q() -> Circuit {
    let n = 20;
    let block = |theta: f64, phi: f64| {
        let ry_ry = OneQ::Ry(theta).unitary().kron(&OneQ::Ry(phi).unitary());
        TwoQ::Unitary(Box::new(TwoQ::Cx.unitary().mul(&ry_ry)))
    };
    let mut c = Circuit::new(n);
    for q in (0..n).step_by(3) {
        c.push_1q(OneQ::Ry(0.3), q);
    }
    for a in [0, 5, 9, 13, 17] {
        c.push_2q(block(0.4, -1.3), a, a + 1);
    }
    for q in (1..n).step_by(5) {
        c.push_1q(OneQ::Ry(-0.7), q);
    }
    c.push_2q(block(1.1, 0.2), 18, 19);
    c
}

/// The same regimes as [`apply_heavy_20q`], in gates with no shape: U3
/// rotations and seeded Haar-random 4×4 blocks, so every apply runs the
/// dense kernels of the chosen path.
fn apply_dense_20q() -> Circuit {
    let n = 20;
    let mut rng = StdRng::seed_from_u64(3);
    let mut c = Circuit::new(n);
    for q in (0..n).step_by(3) {
        c.push_1q(OneQ::U3(0.3, 0.5, 0.7), q);
    }
    for a in [0, 5, 9, 13, 17] {
        c.push_2q(
            TwoQ::Unitary(Box::new(random_unitary(4, &mut rng))),
            a,
            a + 1,
        );
    }
    for q in (1..n).step_by(5) {
        c.push_1q(OneQ::U3(1.1, -0.4, 0.2), q);
    }
    c.push_2q(TwoQ::Unitary(Box::new(random_unitary(4, &mut rng))), 18, 19);
    c
}

/// The 20-qubit workloads through the scalar reference kernels and the
/// lane-parallel engine. On `apply_dense_20q` the tracked expectation is
/// lanes ≥ 1.5× scalar on AVX2 hosts; `apply_real_20q` tracks the real
/// lanes body, and `apply_heavy_20q` a mix that is mostly monomial.
fn bench_statevector_apply(c: &mut Criterion) {
    let mut st = State::zero(20);
    for (name, circuit) in [
        ("apply_heavy_20q", apply_heavy_20q()),
        ("apply_real_20q", apply_real_20q()),
        ("apply_dense_20q", apply_dense_20q()),
    ] {
        for (path, label) in [(KernelPath::Scalar, "scalar"), (KernelPath::Lanes, "lanes")] {
            // Warm once so the register (and any lazily-built state)
            // exists before timing starts.
            st.apply_circuit_with(&circuit, path).unwrap();
            c.bench_function(&format!("kernels/{name}/{label}"), |b| {
                b.iter(|| st.apply_circuit_with(black_box(&circuit), path).unwrap())
            });
        }
    }
}

criterion_group!(
    benches,
    bench_expm,
    bench_coordinates,
    bench_haar,
    bench_nelder_mead,
    bench_statevector_apply
);
criterion_main!(benches);
