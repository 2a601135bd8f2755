//! The paper's benchmark workload suite (Section IV-B, Table VII).
//!
//! All generators target 16 qubits by default — the size the paper maps
//! onto its 4×4 square-lattice topology — but accept arbitrary widths for
//! testing. Gate-level constructions follow the standard textbook circuits;
//! Toffolis are emitted pre-decomposed into {CX, H, T} so the IR stays
//! strictly 1Q + 2Q.

use crate::ir::{Circuit, OneQ, Qubit, TwoQ};
use paradrive_linalg::qr::random_unitary;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::f64::consts::PI;

/// Quantum Fourier Transform with final bit-reversal SWAPs.
pub fn qft(n: usize) -> Circuit {
    let mut c = Circuit::new(n);
    for i in 0..n {
        c.push_1q(OneQ::H, i);
        for j in (i + 1)..n {
            let theta = PI / (1u64 << (j - i)) as f64;
            c.push_2q(TwoQ::CPhase(theta), j, i);
        }
    }
    for i in 0..n / 2 {
        c.push_2q(TwoQ::Swap, i, n - 1 - i);
    }
    c
}

/// GHZ-state preparation: `H` then a CX chain.
pub fn ghz(n: usize) -> Circuit {
    let mut c = Circuit::new(n);
    c.push_1q(OneQ::H, 0);
    for i in 0..n - 1 {
        c.push_2q(TwoQ::Cx, i, i + 1);
    }
    c
}

/// QAOA for MaxCut on a random 3-regular-ish graph (ring plus random
/// chords), with `p` alternating cost/mixer layers.
pub fn qaoa(n: usize, p: usize, seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges: Vec<(Qubit, Qubit)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    // Random chords to approximate degree 3.
    let mut chords = 0;
    let mut guard = 0;
    while chords < n / 2 && guard < 10 * n {
        guard += 1;
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a != b && !edges.contains(&(a, b)) && !edges.contains(&(b, a)) {
            edges.push((a.min(b), a.max(b)));
            chords += 1;
        }
    }

    let mut c = Circuit::new(n);
    for q in 0..n {
        c.push_1q(OneQ::H, q);
    }
    for layer in 0..p {
        let gamma = 0.4 + 0.17 * layer as f64;
        let beta = 0.9 - 0.23 * layer as f64;
        for &(a, b) in &edges {
            c.push_2q(TwoQ::Rzz(2.0 * gamma), a, b);
        }
        for q in 0..n {
            c.push_1q(OneQ::Rx(2.0 * beta), q);
        }
    }
    c
}

/// Hidden Linear Function: `H⊗n · U_q · H⊗n` where `U_q` applies CZ on the
/// edges of a random symmetric adjacency and `S` on a random diagonal.
pub fn hidden_linear_function(n: usize, seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.push_1q(OneQ::H, q);
    }
    for a in 0..n {
        for b in (a + 1)..n {
            if rng.gen_bool(0.25) {
                c.push_2q(TwoQ::Cz, a, b);
            }
        }
    }
    for q in 0..n {
        if rng.gen_bool(0.5) {
            c.push_1q(OneQ::S, q);
        }
    }
    for q in 0..n {
        c.push_1q(OneQ::H, q);
    }
    c
}

/// Emits a Toffoli (CCX) decomposed into the standard 6-CX network.
fn push_toffoli(c: &mut Circuit, ctrl1: Qubit, ctrl2: Qubit, target: Qubit) {
    c.push_1q(OneQ::H, target);
    c.push_2q(TwoQ::Cx, ctrl2, target);
    c.push_1q(OneQ::Tdg, target);
    c.push_2q(TwoQ::Cx, ctrl1, target);
    c.push_1q(OneQ::T, target);
    c.push_2q(TwoQ::Cx, ctrl2, target);
    c.push_1q(OneQ::Tdg, target);
    c.push_2q(TwoQ::Cx, ctrl1, target);
    c.push_1q(OneQ::T, ctrl2);
    c.push_1q(OneQ::T, target);
    c.push_1q(OneQ::H, target);
    c.push_2q(TwoQ::Cx, ctrl1, ctrl2);
    c.push_1q(OneQ::T, ctrl1);
    c.push_1q(OneQ::Tdg, ctrl2);
    c.push_2q(TwoQ::Cx, ctrl1, ctrl2);
}

/// Cuccaro ripple-carry adder on two `k`-bit registers with carry-in and
/// carry-out, totalling `2k + 2` qubits (`k = 7` gives the 16-qubit
/// benchmark).
///
/// Layout: `[cin, a0, b0, a1, b1, …, a(k-1), b(k-1), cout]`.
pub fn adder(k: usize) -> Circuit {
    let n = 2 * k + 2;
    let mut c = Circuit::new(n);
    let a = |i: usize| 1 + 2 * i;
    let b = |i: usize| 2 + 2 * i;
    let cin = 0;
    let cout = n - 1;

    // MAJ cascade.
    let maj = |c: &mut Circuit, x: Qubit, y: Qubit, z: Qubit| {
        c.push_2q(TwoQ::Cx, z, y);
        c.push_2q(TwoQ::Cx, z, x);
        push_toffoli(c, x, y, z);
    };
    let uma = |c: &mut Circuit, x: Qubit, y: Qubit, z: Qubit| {
        push_toffoli(c, x, y, z);
        c.push_2q(TwoQ::Cx, z, x);
        c.push_2q(TwoQ::Cx, x, y);
    };

    maj(&mut c, cin, b(0), a(0));
    for i in 1..k {
        maj(&mut c, a(i - 1), b(i), a(i));
    }
    c.push_2q(TwoQ::Cx, a(k - 1), cout);
    for i in (1..k).rev() {
        uma(&mut c, a(i - 1), b(i), a(i));
    }
    uma(&mut c, cin, b(0), a(0));
    c
}

/// QFT-based multiplier: `out += a × b` with `a`, `b` of `k` bits and a
/// `2k`-bit product register (`k = 4` gives the 16-qubit benchmark).
///
/// Doubly-controlled phases are decomposed into five 2Q controlled-phase
/// gates and two CX — the deep, CPhase-heavy workload of the paper's
/// Table VII.
pub fn multiplier(k: usize) -> Circuit {
    let n = 4 * k;
    let mut c = Circuit::new(n);
    let a = |i: usize| i;
    let b = |i: usize| k + i;
    let out = |i: usize| 2 * k + i;
    let out_bits = 2 * k;

    // QFT on the product register (no swaps needed for the arithmetic).
    for i in 0..out_bits {
        c.push_1q(OneQ::H, out(i));
        for j in (i + 1)..out_bits {
            let theta = PI / (1u64 << (j - i)) as f64;
            c.push_2q(TwoQ::CPhase(theta), out(j), out(i));
        }
    }

    // Doubly-controlled phase rotations: for each partial product a_i·b_j,
    // rotate out bit m by π·2^{i+j-m}·... (standard weighted phase ladder).
    let ccphase = |c: &mut Circuit, theta: f64, c1: Qubit, c2: Qubit, t: Qubit| {
        c.push_2q(TwoQ::CPhase(theta / 2.0), c2, t);
        c.push_2q(TwoQ::Cx, c1, c2);
        c.push_2q(TwoQ::CPhase(-theta / 2.0), c2, t);
        c.push_2q(TwoQ::Cx, c1, c2);
        c.push_2q(TwoQ::CPhase(theta / 2.0), c1, t);
    };
    for i in 0..k {
        for j in 0..k {
            let weight = i + j;
            for m in weight..out_bits {
                let theta = PI / (1u64 << (m - weight)) as f64;
                ccphase(&mut c, theta, a(i), b(j), out(m));
            }
        }
    }

    // Inverse QFT on the product register.
    for i in (0..out_bits).rev() {
        for j in ((i + 1)..out_bits).rev() {
            let theta = -PI / (1u64 << (j - i)) as f64;
            c.push_2q(TwoQ::CPhase(theta), out(j), out(i));
        }
        c.push_1q(OneQ::H, out(i));
    }
    c
}

/// Hardware-efficient VQE ansatz with linear-chain entanglement.
pub fn vqe_linear(n: usize, layers: usize, seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::new(n);
    for _ in 0..layers {
        for q in 0..n {
            c.push_1q(OneQ::Ry(rng.gen_range(0.0..PI)), q);
        }
        for q in 0..n - 1 {
            c.push_2q(TwoQ::Cx, q, q + 1);
        }
    }
    for q in 0..n {
        c.push_1q(OneQ::Ry(rng.gen_range(0.0..PI)), q);
    }
    c
}

/// Hardware-efficient VQE ansatz with full (all-to-all) entanglement.
pub fn vqe_full(n: usize, layers: usize, seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::new(n);
    for _ in 0..layers {
        for q in 0..n {
            c.push_1q(OneQ::Ry(rng.gen_range(0.0..PI)), q);
        }
        for a in 0..n {
            for b in (a + 1)..n {
                c.push_2q(TwoQ::Cx, a, b);
            }
        }
    }
    for q in 0..n {
        c.push_1q(OneQ::Ry(rng.gen_range(0.0..PI)), q);
    }
    c
}

/// Quantum Volume model circuit: `depth` layers of a random qubit
/// permutation followed by Haar-random SU(4) blocks on adjacent pairs.
pub fn quantum_volume(n: usize, depth: usize, seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::new(n);
    for _ in 0..depth {
        let mut perm: Vec<Qubit> = (0..n).collect();
        // Fisher–Yates shuffle.
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            perm.swap(i, j);
        }
        for pair in perm.chunks_exact(2) {
            let u = random_unitary(4, &mut rng);
            c.push_2q(TwoQ::Unitary(Box::new(u)), pair[0], pair[1]);
        }
    }
    c
}

/// QAOA for MaxCut on a *star* graph: every cost edge couples the hub
/// (qubit 0) to one leaf, so almost every two-qubit gate is long-range on
/// any planar topology — the stress case for swap networks and for the
/// MPS oracle's transport cost. The star is also what keeps wide
/// instances *verifiable*: conditioned on the hub the cost layer is a
/// product of single-qubit phases, so the state's Schmidt rank stays ≤ 2
/// across **any** bipartition — including the scrambled positional cuts a
/// routed layout induces — no matter how wide the register. Per-edge
/// angles are seed-jittered so no two edges commute to the same phase.
pub fn long_range_qaoa(n: usize, p: usize, seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.push_1q(OneQ::H, q);
    }
    for layer in 0..p {
        let gamma = 0.4 + 0.17 * layer as f64;
        let beta = 0.9 - 0.23 * layer as f64;
        for leaf in 1..n {
            let jitter = rng.gen_range(-0.05..0.05);
            c.push_2q(TwoQ::Rzz(2.0 * gamma + jitter), 0, leaf);
        }
        for q in 0..n {
            c.push_1q(OneQ::Rx(2.0 * beta), q);
        }
    }
    c
}

/// One benchmark instance: a name and its circuit.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// Display name matching the paper's Table VII rows.
    pub name: &'static str,
    /// The generated circuit.
    pub circuit: Circuit,
}

/// A named benchmark generator: the suite name and the circuit it builds
/// from a suite seed.
type Generator = (&'static str, fn(u64) -> Circuit);

/// Every named benchmark, in suite order: the paper's Table VII suite at
/// 16 qubits (the first [`STANDARD`] entries), then the wide family. The
/// suites and [`by_name`] all read this one table.
const GENERATORS: [Generator; 11] = [
    ("QV", |seed| quantum_volume(16, 16, seed)),
    ("VQE_L", |seed| vqe_linear(16, 1, seed)),
    ("GHZ", |_| ghz(16)),
    ("HLF", |seed| hidden_linear_function(16, seed)),
    ("QFT", |_| qft(16)),
    ("Adder", |_| adder(7)),
    ("QAOA", |seed| qaoa(16, 2, seed)),
    ("VQE_F", |seed| vqe_full(16, 2, seed)),
    ("Multiplier", |_| multiplier(4)),
    ("QFT_64", |_| qft(64)),
    ("QAOA_LR", |seed| long_range_qaoa(64, 1, seed)),
];

/// How many of [`GENERATORS`] make up the standard suite.
const STANDARD: usize = 9;

/// Builds every benchmark of `generators` at suite seed `seed`.
fn suite(generators: &[Generator], seed: u64) -> Vec<Benchmark> {
    generators
        .iter()
        .map(|&(name, build)| Benchmark {
            name,
            circuit: build(seed),
        })
        .collect()
}

/// The paper's Table VII workload suite at 16 qubits.
pub fn standard_suite(seed: u64) -> Vec<Benchmark> {
    suite(&GENERATORS[..STANDARD], seed)
}

/// The wide-circuit family: 64-qubit workloads far beyond the dense
/// oracle's reach, exercised by the matrix-product-state verification
/// path. `QFT_64` is bond-trivial from `|0…0⟩` but swap-heavy once
/// routed; `QAOA_LR` forces long-range entangling gates across the whole
/// register.
pub fn wide_suite(seed: u64) -> Vec<Benchmark> {
    suite(&GENERATORS[STANDARD..], seed)
}

/// Every name [`by_name`] knows: the standard suite's, then the wide
/// family's, in suite order.
pub fn names() -> impl Iterator<Item = &'static str> {
    GENERATORS.iter().map(|&(name, _)| name)
}

/// The benchmark named `name` (ASCII case-insensitive) at suite seed
/// `seed`, exactly the circuit its suite builds at that seed, built
/// alone; `None` for a name [`names`] does not list.
pub fn by_name(name: &str, seed: u64) -> Option<Benchmark> {
    GENERATORS
        .iter()
        .find(|(known, _)| known.eq_ignore_ascii_case(name))
        .map(|&(name, build)| Benchmark {
            name,
            circuit: build(seed),
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qft_structure() {
        let c = qft(5);
        // 5 H, C(5,2)=10 CPhase, 2 SWAPs.
        assert_eq!(c.one_q_count(), 5);
        assert_eq!(c.two_q_count(), 10 + 2);
    }

    #[test]
    fn ghz_structure() {
        let c = ghz(16);
        assert_eq!(c.one_q_count(), 1);
        assert_eq!(c.two_q_count(), 15);
        assert_eq!(c.depth(), 16);
    }

    #[test]
    fn qaoa_has_cost_and_mixer_layers() {
        let c = qaoa(8, 2, 1);
        // Ring has 8 edges; plus up to 4 chords; times 2 layers.
        assert!(c.two_q_count() >= 16);
        // Mixer RX gates: 8 per layer plus initial 8 H.
        assert!(c.one_q_count() >= 24);
    }

    #[test]
    fn adder_is_16_qubits_at_k7() {
        let c = adder(7);
        assert_eq!(c.n_qubits(), 16);
        // Each MAJ/UMA has a Toffoli (6 CX) + 2 CX → 8 CX; 2k blocks + 1.
        assert!(c.two_q_count() >= 7 * 2 * 8);
    }

    #[test]
    fn multiplier_is_16_qubits_at_k4() {
        let c = multiplier(4);
        assert_eq!(c.n_qubits(), 16);
        // Deep CPhase-heavy circuit, the paper's heaviest workload.
        assert!(c.two_q_count() > 400, "count {}", c.two_q_count());
    }

    #[test]
    fn vqe_variants_scale() {
        let lin = vqe_linear(16, 1, 3);
        let full = vqe_full(16, 2, 3);
        assert_eq!(lin.two_q_count(), 15);
        assert_eq!(full.two_q_count(), 2 * (16 * 15) / 2);
        assert!(full.two_q_count() > lin.two_q_count());
    }

    #[test]
    fn quantum_volume_blocks() {
        let c = quantum_volume(16, 16, 9);
        assert_eq!(c.two_q_count(), 16 * 8);
        // All blocks are valid unitaries (checked on push via weyl_point).
        for op in c.ops() {
            if let crate::ir::Op::TwoQ { gate, .. } = op {
                assert!(gate.unitary().is_unitary(1e-9));
            }
        }
    }

    #[test]
    fn standard_suite_shape() {
        let suite = standard_suite(7);
        assert_eq!(suite.len(), 9);
        for b in &suite {
            assert_eq!(b.circuit.n_qubits(), 16, "{} has wrong width", b.name);
            assert!(b.circuit.two_q_count() > 0);
        }
        // Multiplier is the deepest workload, as in the paper.
        let count = |name: &str| {
            suite
                .iter()
                .find(|b| b.name == name)
                .unwrap()
                .circuit
                .two_q_count()
        };
        assert!(count("Multiplier") > count("QFT"));
        assert!(count("VQE_F") > count("VQE_L"));
    }

    /// Each name builds, alone, exactly the circuit its suite builds (the
    /// debug form shows every angle's exact digits and the sign of every
    /// zero), whatever the name's case.
    #[test]
    fn by_name_builds_exactly_the_suite_circuit() {
        for seed in [7, 11] {
            let suites: Vec<Benchmark> = standard_suite(seed)
                .into_iter()
                .chain(wide_suite(seed))
                .collect();
            assert_eq!(
                names().collect::<Vec<_>>(),
                suites.iter().map(|b| b.name).collect::<Vec<_>>()
            );
            for b in &suites {
                for asked in [b.name.to_string(), b.name.to_ascii_lowercase()] {
                    let got = by_name(&asked, seed).expect("a suite name");
                    assert_eq!(got.name, b.name);
                    assert_eq!(got.circuit, b.circuit, "{asked} at seed {seed}");
                    assert_eq!(format!("{:?}", got.circuit), format!("{:?}", b.circuit));
                }
            }
        }
        assert!(by_name("NOPE", 7).is_none());
    }

    #[test]
    fn long_range_qaoa_spans_the_register() {
        let c = long_range_qaoa(64, 1, 7);
        assert_eq!(c.n_qubits(), 64);
        // Star: one hub edge per leaf per layer.
        assert_eq!(c.two_q_count(), 63);
        // Most edges are genuinely long-range (span > half the register).
        let long = c
            .ops()
            .iter()
            .filter(|op| match op {
                crate::ir::Op::TwoQ { a, b, .. } => a.abs_diff(*b) > 32,
                _ => false,
            })
            .count();
        assert!(long >= 31, "only {long} long-range edges in the cost graph");
    }

    #[test]
    fn wide_suite_shape() {
        let suite = wide_suite(7);
        assert_eq!(suite.len(), 2);
        for b in &suite {
            assert_eq!(b.circuit.n_qubits(), 64, "{} has wrong width", b.name);
            assert!(b.circuit.two_q_count() > 0);
        }
    }

    #[test]
    fn toffoli_decomposition_is_correct() {
        // Verify the 6-CX Toffoli against the exact CCX unitary on 3 qubits
        // by brute-force simulation of the small circuit.
        use paradrive_linalg::{CMat, C64};
        let mut c = Circuit::new(3);
        push_toffoli(&mut c, 0, 1, 2);
        // Simulate: embed each op into 8x8.
        let mut u = CMat::identity(8);
        for op in c.ops() {
            let full = match op {
                crate::ir::Op::OneQ { gate, q } => embed1(&gate.unitary(), *q),
                crate::ir::Op::TwoQ { gate, a, b } => embed2(&gate.unitary(), *a, *b),
            };
            u = full.mul(&u);
        }
        // CCX on (0,1 controls, 2 target), qubit 0 = MSB.
        let mut ccx = CMat::identity(8);
        ccx[(6, 6)] = C64::ZERO;
        ccx[(7, 7)] = C64::ZERO;
        ccx[(6, 7)] = C64::ONE;
        ccx[(7, 6)] = C64::ONE;
        let f = paradrive_linalg::mat::process_fidelity(&u, &ccx);
        assert!(f > 1.0 - 1e-9, "Toffoli fidelity {f}");

        fn embed1(g: &CMat, q: usize) -> CMat {
            let id2 = CMat::identity(2);
            let mut m = CMat::identity(1);
            for i in 0..3 {
                m = m.kron(if i == q { g } else { &id2 });
            }
            m
        }
        fn embed2(g: &CMat, a: usize, b: usize) -> CMat {
            // Build by summing basis projections: for 3 qubits only.
            let mut m = CMat::zeros(8, 8);
            for row in 0..8usize {
                for col in 0..8usize {
                    // Extract bits of a,b and the spectator.
                    let bits = |x: usize, q: usize| (x >> (2 - q)) & 1;
                    let spect: Vec<usize> = (0..3).filter(|&q| q != a && q != b).collect();
                    let s = spect[0];
                    if bits(row, s) != bits(col, s) {
                        continue;
                    }
                    let gr = (bits(row, a) << 1) | bits(row, b);
                    let gc = (bits(col, a) << 1) | bits(col, b);
                    m[(row, col)] = g[(gr, gc)];
                }
            }
            m
        }
    }
}
