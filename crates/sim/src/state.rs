//! The statevector and gate application kernels.

use crate::kernels::{self, KernelPath};
use crate::SimError;
use paradrive_circuit::{Circuit, Op};
use paradrive_linalg::{CMat, C64};
use rand::Rng;

/// An `n`-qubit pure state of `2^n` complex amplitudes.
///
/// Qubit 0 is the most-significant index bit.
///
/// The register owns a scratch buffer so the in-place permutation path
/// ([`State::permute`]) allocates nothing after its first use. Scratch is
/// invisible: it never participates in equality and is not carried by
/// clones.
#[derive(Debug)]
pub struct State {
    n: usize,
    amps: Vec<C64>,
    scratch: Vec<C64>,
}

impl Clone for State {
    fn clone(&self) -> Self {
        State {
            n: self.n,
            amps: self.amps.clone(),
            scratch: Vec::new(),
        }
    }
}

impl PartialEq for State {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.amps == other.amps
    }
}

/// Widest register [`State`] will allocate (`2^26` amplitudes ≈ 1 GiB).
pub const MAX_STATE_QUBITS: usize = 26;

impl State {
    /// The all-zeros computational basis state `|0…0⟩`.
    pub fn zero(n: usize) -> Self {
        assert!(
            n <= MAX_STATE_QUBITS,
            "statevector width limited to {MAX_STATE_QUBITS} qubits"
        );
        let mut amps = vec![C64::ZERO; 1 << n];
        amps[0] = C64::ONE;
        State {
            n,
            amps,
            scratch: Vec::new(),
        }
    }

    /// The computational basis state `|index⟩` over `n` qubits.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds [`MAX_STATE_QUBITS`] or `index ≥ 2^n`.
    pub fn basis(n: usize, index: usize) -> Self {
        let mut s = State::zero(n);
        assert!(index < s.amps.len(), "basis index out of range");
        s.amps[0] = C64::ZERO;
        s.amps[index] = C64::ONE;
        s
    }

    /// Builds a state from explicit amplitudes.
    ///
    /// # Panics
    ///
    /// Panics unless the length is a power of two.
    pub fn from_amplitudes(amps: Vec<C64>) -> Self {
        let n = amps.len().trailing_zeros() as usize;
        assert_eq!(1usize << n, amps.len(), "length must be a power of two");
        State {
            n,
            amps,
            scratch: Vec::new(),
        }
    }

    /// Number of qubits.
    pub fn n_qubits(&self) -> usize {
        self.n
    }

    /// The amplitudes, indexed by computational basis state.
    pub fn amplitudes(&self) -> &[C64] {
        &self.amps
    }

    /// Applies a 2×2 unitary to qubit `q` via the process-default
    /// [`KernelPath`].
    ///
    /// Each amplitude pair is mixed exactly once, in ascending memory
    /// order; the scalar and lane engines are bit-identical (see
    /// [`crate::kernels`]).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::QubitOutOfRange`] for a bad index.
    ///
    /// # Panics
    ///
    /// Panics if `g` is not 2×2.
    pub fn apply_1q(&mut self, g: &CMat, q: usize) -> Result<(), SimError> {
        self.apply_1q_with(g, q, KernelPath::detected())
    }

    /// [`State::apply_1q`] on an explicit kernel path.
    ///
    /// # Errors
    ///
    /// As [`State::apply_1q`].
    pub fn apply_1q_with(&mut self, g: &CMat, q: usize, path: KernelPath) -> Result<(), SimError> {
        if q >= self.n {
            return Err(SimError::QubitOutOfRange {
                qubit: q,
                width: self.n,
            });
        }
        assert_eq!((g.rows(), g.cols()), (2, 2));
        let bit = 1usize << (self.n - 1 - q);
        let g = [g[(0, 0)], g[(0, 1)], g[(1, 0)], g[(1, 1)]];
        kernels::apply_1q(path, &mut self.amps, bit, g);
        Ok(())
    }

    /// Applies a 4×4 unitary to qubits `(a, b)` with `a` as the high bit,
    /// via the process-default [`KernelPath`].
    ///
    /// The 4-amplitude blocks are enumerated directly (two zero-bit
    /// insertions per iteration) with the 16 matrix entries in registers;
    /// both engines are bit-identical (see [`crate::kernels`]).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::QubitOutOfRange`] or [`SimError::DuplicateQubit`]
    /// for bad indices.
    ///
    /// # Panics
    ///
    /// Panics if `g` is not 4×4.
    pub fn apply_2q(&mut self, g: &CMat, a: usize, b: usize) -> Result<(), SimError> {
        self.apply_2q_with(g, a, b, KernelPath::detected())
    }

    /// [`State::apply_2q`] on an explicit kernel path.
    ///
    /// # Errors
    ///
    /// As [`State::apply_2q`].
    pub fn apply_2q_with(
        &mut self,
        g: &CMat,
        a: usize,
        b: usize,
        path: KernelPath,
    ) -> Result<(), SimError> {
        for q in [a, b] {
            if q >= self.n {
                return Err(SimError::QubitOutOfRange {
                    qubit: q,
                    width: self.n,
                });
            }
        }
        if a == b {
            return Err(SimError::DuplicateQubit(a));
        }
        assert_eq!((g.rows(), g.cols()), (4, 4));
        let bit_a = 1usize << (self.n - 1 - a);
        let bit_b = 1usize << (self.n - 1 - b);
        let mut m = [[C64::ZERO; 4]; 4];
        for (r, row) in m.iter_mut().enumerate() {
            for (c, cell) in row.iter_mut().enumerate() {
                *cell = g[(r, c)];
            }
        }
        kernels::apply_2q(path, &mut self.amps, bit_a, bit_b, &m);
        Ok(())
    }

    /// Runs a circuit from `|0…0⟩`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::TooWide`] beyond [`MAX_STATE_QUBITS`] qubits and
    /// propagates gate-application errors (which cannot occur for circuits
    /// built through the checked [`Circuit`] API).
    pub fn run(circuit: &Circuit) -> Result<State, SimError> {
        State::run_with(circuit, KernelPath::detected())
    }

    /// [`State::run`] on an explicit kernel path.
    ///
    /// # Errors
    ///
    /// As [`State::run`].
    pub fn run_with(circuit: &Circuit, path: KernelPath) -> Result<State, SimError> {
        let n = circuit.n_qubits();
        if n > MAX_STATE_QUBITS {
            return Err(SimError::TooWide {
                qubits: n,
                max: MAX_STATE_QUBITS,
            });
        }
        let mut s = State::zero(n);
        s.apply_circuit_with(circuit, path)?;
        Ok(s)
    }

    /// Applies every operation of a circuit in order.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::WidthMismatch`] when the circuit's width differs
    /// from the register's, and propagates gate-application errors.
    pub fn apply_circuit(&mut self, circuit: &Circuit) -> Result<(), SimError> {
        self.apply_circuit_with(circuit, KernelPath::detected())
    }

    /// [`State::apply_circuit`] on an explicit kernel path.
    ///
    /// # Errors
    ///
    /// As [`State::apply_circuit`].
    pub fn apply_circuit_with(
        &mut self,
        circuit: &Circuit,
        path: KernelPath,
    ) -> Result<(), SimError> {
        if circuit.n_qubits() != self.n {
            return Err(SimError::WidthMismatch {
                circuit: circuit.n_qubits(),
                state: self.n,
            });
        }
        for op in circuit.ops() {
            match op {
                Op::OneQ { gate, q } => self.apply_1q_with(&gate.unitary(), *q, path)?,
                Op::TwoQ { gate, a, b } => self.apply_2q_with(&gate.unitary(), *a, *b, path)?,
            }
        }
        Ok(())
    }

    /// Measurement probabilities per basis state.
    pub fn probabilities(&self) -> Vec<f64> {
        self.amps.iter().map(|a| a.norm_sqr()).collect()
    }

    /// State norm (should stay 1 under unitary evolution).
    pub fn norm(&self) -> f64 {
        self.probabilities().iter().sum::<f64>().sqrt()
    }

    /// `|⟨self|other⟩|²`.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn fidelity(&self, other: &State) -> f64 {
        assert_eq!(self.n, other.n, "width mismatch");
        let ip: C64 = self
            .amps
            .iter()
            .zip(&other.amps)
            .map(|(&a, &b)| a.conj() * b)
            .sum();
        ip.norm_sqr()
    }

    /// Expectation of Pauli Z on qubit `q`.
    pub fn expect_z(&self, q: usize) -> f64 {
        let bit = 1usize << (self.n - 1 - q);
        self.amps
            .iter()
            .enumerate()
            .map(|(i, a)| {
                let sign = if i & bit == 0 { 1.0 } else { -1.0 };
                sign * a.norm_sqr()
            })
            .sum()
    }

    /// Samples one measurement outcome in the computational basis.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let r: f64 = rng.gen_range(0.0..1.0);
        let mut acc = 0.0;
        for (i, p) in self.probabilities().into_iter().enumerate() {
            acc += p;
            if r < acc {
                return i;
            }
        }
        self.amps.len() - 1
    }

    /// Relabels qubits in place: `perm[logical] = physical` — the final
    /// layout a router reports. Afterwards logical qubit `l`'s amplitude
    /// pattern sits at position `l` again.
    ///
    /// The shuffle runs through the state-owned scratch buffer, so after
    /// the first call on a given register this allocates nothing.
    /// Destination indices come from per-byte deposit tables on the stack
    /// (one 256-word table per index byte), so each amplitude costs one
    /// table lookup rather than a loop over the qubits. To read a few
    /// amplitudes of the relabeled state without moving the rest, use
    /// [`State::permuted_read`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadPermutation`] if `perm` is not a permutation
    /// of `0..n`; the state is untouched on error.
    pub fn permute(&mut self, perm: &[usize]) -> Result<(), SimError> {
        // Index bit `n-1-perm[l]` (physical position perm[l]) moves to
        // bit `n-1-l`.
        let table = relabel_tables(self.n, perm, |l, p| (p, l))?;
        if self.scratch.len() != self.amps.len() {
            self.scratch.resize(self.amps.len(), C64::ZERO);
        }
        for (c, chunk) in self.amps.chunks(256).enumerate() {
            let high = table[1][c & 0xff] | table[2][c >> 8 & 0xff] | table[3][c >> 16 & 0xff];
            for (&a, &low) in chunk.iter().zip(&table[0]) {
                self.scratch[high | low] = a;
            }
        }
        std::mem::swap(&mut self.amps, &mut self.scratch);
        Ok(())
    }

    /// A read-only view of this register as [`State::permute`]`(perm)`
    /// would leave it, without moving any amplitude: index `i` of the view
    /// reads the amplitude `permute` deposits at `i`, bit for bit.
    ///
    /// Each read inverts `permute`'s per-byte deposit with the same kind
    /// of stack tables, so the view allocates nothing and costs one
    /// lookup per read. The verify oracles read their overlaps through
    /// it, which touches only the amplitudes they project onto.
    ///
    /// # Errors
    ///
    /// As [`State::permute`].
    pub fn permuted_read(&self, perm: &[usize]) -> Result<PermutedRead<'_>, SimError> {
        // The inverse of `permute`'s deposit: bit `n-1-l` of a relabeled
        // index comes from bit `n-1-perm[l]` of the register's index.
        Ok(PermutedRead {
            amps: &self.amps,
            table: relabel_tables(self.n, perm, |l, p| (l, p))?,
        })
    }

    /// Like [`State::permute`], but returns the relabelled state and
    /// leaves `self` untouched (one fresh allocation for the copy).
    ///
    /// # Errors
    ///
    /// As [`State::permute`].
    pub fn permuted(&self, perm: &[usize]) -> Result<State, SimError> {
        let mut out = self.clone();
        out.permute(perm)?;
        Ok(out)
    }

    /// Resets to `|0…0⟩` without reallocating.
    pub fn reset_zero(&mut self) {
        self.amps.fill(C64::ZERO);
        self.amps[0] = C64::ONE;
    }

    /// Resets to the computational basis state `|index⟩` without
    /// reallocating.
    ///
    /// # Panics
    ///
    /// Panics if `index ≥ 2^n` (as [`State::basis`]).
    pub fn reset_basis(&mut self, index: usize) {
        assert!(index < self.amps.len(), "basis index out of range");
        self.amps.fill(C64::ZERO);
        self.amps[index] = C64::ONE;
    }

    /// Resets to the product state `⊗_q (factors[2q]·|0⟩ + factors[2q+1]·|1⟩)`
    /// without reallocating.
    ///
    /// Built by in-place doubling, qubit 0 ending up as the high index
    /// bit. Each amplitude is the same left-to-right factor product the
    /// equivalent sequence of 1Q applies on `|0…0⟩` would compute, so the
    /// construction is bit-identical to that (O(n·2ⁿ) slower) route.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::WidthMismatch`] unless `factors` holds exactly
    /// `2n` entries.
    pub fn reset_product(&mut self, factors: &[C64]) -> Result<(), SimError> {
        if factors.len() != 2 * self.n {
            return Err(SimError::WidthMismatch {
                circuit: factors.len() / 2,
                state: self.n,
            });
        }
        self.amps[0] = C64::ONE;
        let mut len = 1usize;
        for pair in factors.chunks_exact(2) {
            let (v0, v1) = (pair[0], pair[1]);
            for j in (0..len).rev() {
                let base = self.amps[j];
                self.amps[2 * j + 1] = base * v1;
                self.amps[2 * j] = base * v0;
            }
            len *= 2;
        }
        Ok(())
    }

    /// Resets to `logical ⊗ |0…0⟩` — the logical state on the top wires,
    /// every remaining (ancilla) wire in `|0⟩` — without reallocating.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::WidthMismatch`] if `logical` is wider than this
    /// register.
    pub fn reset_embed(&mut self, logical: &State) -> Result<(), SimError> {
        if logical.n > self.n {
            return Err(SimError::WidthMismatch {
                circuit: logical.n,
                state: self.n,
            });
        }
        let anc_bits = self.n - logical.n;
        self.amps.fill(C64::ZERO);
        for (y, &a) in logical.amps.iter().enumerate() {
            self.amps[y << anc_bits] = a;
        }
        Ok(())
    }
}

/// Per-byte bit-deposit tables of a qubit relabeling over `n` qubits:
/// `table[k][v]` is the index bits that byte `k` of an index holding value
/// `v` deposits. `bits(l, p)` names, for each `perm[l] = p`, which qubit
/// position's index bit moves to which: `(from, to)`.
///
/// `State::permute` and `State::permuted_read` both build their tables
/// here, one deposit and its inverse.
fn relabel_tables(
    n: usize,
    perm: &[usize],
    bits: impl Fn(usize, usize) -> (usize, usize),
) -> Result<[[usize; 256]; 4], SimError> {
    if perm.len() != n {
        return Err(SimError::BadPermutation);
    }
    // Duplicate/range check on a bitmask — no allocation (n ≤ 63 for any
    // state that fits in memory).
    let mut seen = 0u64;
    for &p in perm {
        if p >= n || seen >> p & 1 == 1 {
            return Err(SimError::BadPermutation);
        }
        seen |= 1 << p;
    }
    // Four index bytes cover every register that fits in memory (2^33
    // amplitudes would take 128 GiB).
    assert!(n <= 32, "relabeling supports at most 32 qubits");
    let mut dest = [0usize; 32];
    for (l, &p) in perm.iter().enumerate() {
        let (from, to) = bits(l, p);
        dest[n - 1 - from] = 1 << (n - 1 - to);
    }
    let mut table = [[0usize; 256]; 4];
    for (k, t) in table.iter_mut().enumerate().take(n.div_ceil(8)) {
        for v in 1..256usize {
            t[v] = t[v & (v - 1)] | dest[8 * k + v.trailing_zeros() as usize];
        }
    }
    Ok(table)
}

/// A register read through a qubit relabeling, from
/// [`State::permuted_read`].
#[derive(Debug)]
pub struct PermutedRead<'a> {
    amps: &'a [C64],
    table: [[usize; 256]; 4],
}

impl PermutedRead<'_> {
    /// The amplitude at index `i` of the relabeled state.
    ///
    /// # Panics
    ///
    /// Panics if `i` is outside the register.
    #[inline]
    pub fn get(&self, i: usize) -> C64 {
        assert!(i < self.amps.len(), "index {i} outside the register");
        let t = &self.table;
        self.amps
            [t[0][i & 0xff] | t[1][i >> 8 & 0xff] | t[2][i >> 16 & 0xff] | t[3][i >> 24 & 0xff]]
    }
}

/// The full unitary of a circuit, built column by column. Limited to small
/// widths (≤ 10 qubits) since the result is dense.
///
/// # Errors
///
/// Returns [`SimError::TooWide`] beyond 10 qubits.
pub fn circuit_unitary(circuit: &Circuit) -> Result<CMat, SimError> {
    let n = circuit.n_qubits();
    if n > 10 {
        return Err(SimError::TooWide { qubits: n, max: 10 });
    }
    let dim = 1usize << n;
    let mut u = CMat::zeros(dim, dim);
    for col in 0..dim {
        let mut s = State::basis(n, col);
        s.apply_circuit(circuit)?;
        for row in 0..dim {
            u[(row, col)] = s.amplitudes()[row];
        }
    }
    Ok(u)
}

/// Heavy-output probability of a circuit: the total ideal probability of
/// outcomes whose probability exceeds the median — the Quantum Volume
/// success metric (ideal value ≈ (1 + ln 2)/2 ≈ 0.85 for random circuits).
///
/// # Errors
///
/// As [`State::run`].
pub fn heavy_output_probability(circuit: &Circuit) -> Result<f64, SimError> {
    let probs = State::run(circuit)?.probabilities();
    let mut sorted = probs.clone();
    sorted.sort_by(f64::total_cmp);
    let m = sorted.len();
    let median = if m.is_multiple_of(2) {
        0.5 * (sorted[m / 2 - 1] + sorted[m / 2])
    } else {
        sorted[m / 2]
    };
    Ok(probs.into_iter().filter(|&p| p > median).sum())
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradrive_circuit::{benchmarks, OneQ, TwoQ};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zero_state() {
        let s = State::zero(3);
        assert_eq!(s.amplitudes().len(), 8);
        assert!((s.norm() - 1.0).abs() < 1e-15);
        assert_eq!(s.probabilities()[0], 1.0);
    }

    #[test]
    fn x_flips_qubit() {
        let mut c = Circuit::new(2);
        c.push_1q(OneQ::X, 0);
        let s = State::run(&c).unwrap();
        // Qubit 0 is the high bit → |10⟩ = index 2.
        assert!((s.probabilities()[2] - 1.0).abs() < 1e-12);
        assert!((s.expect_z(0) + 1.0).abs() < 1e-12);
        assert!((s.expect_z(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ghz_state_structure() {
        let s = State::run(&benchmarks::ghz(4)).unwrap();
        let p = s.probabilities();
        assert!((p[0] - 0.5).abs() < 1e-12);
        assert!((p[15] - 0.5).abs() < 1e-12);
        assert!(p[1..15].iter().all(|&x| x < 1e-12));
    }

    #[test]
    fn swap_gate_swaps() {
        let mut c = Circuit::new(2);
        c.push_1q(OneQ::X, 1); // |01⟩
        c.push_2q(TwoQ::Swap, 0, 1); // |10⟩
        let s = State::run(&c).unwrap();
        assert!((s.probabilities()[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn circuit_unitary_of_cx() {
        let mut c = Circuit::new(2);
        c.push_2q(TwoQ::Cx, 0, 1);
        let u = circuit_unitary(&c).unwrap();
        assert!(u.approx_eq(&paradrive_weyl::gates::cnot(), 1e-12));
    }

    #[test]
    fn circuit_unitary_orientation() {
        // CX with control on qubit 1 (low bit) is the reversed CNOT.
        let mut c = Circuit::new(2);
        c.push_2q(TwoQ::Cx, 1, 0);
        let u = circuit_unitary(&c).unwrap();
        let s = paradrive_weyl::gates::swap();
        let rev = s.mul(&paradrive_weyl::gates::cnot()).mul(&s);
        assert!(u.approx_eq(&rev, 1e-12));
    }

    #[test]
    fn bad_qubit_indices_are_typed_errors() {
        // Regression: these used to panic via `assert!`; the simulator now
        // reports the crate's typed `SimError` instead.
        let mut s = State::zero(2);
        assert_eq!(
            s.apply_1q(&OneQ::X.unitary(), 5).unwrap_err(),
            SimError::QubitOutOfRange { qubit: 5, width: 2 }
        );
        assert_eq!(
            s.apply_2q(&TwoQ::Cx.unitary(), 0, 3).unwrap_err(),
            SimError::QubitOutOfRange { qubit: 3, width: 2 }
        );
        assert_eq!(
            s.apply_2q(&TwoQ::Cx.unitary(), 1, 1).unwrap_err(),
            SimError::DuplicateQubit(1)
        );
        // The state is untouched by rejected applications.
        assert_eq!(s.probabilities()[0], 1.0);
    }

    #[test]
    fn width_mismatch_is_a_typed_error() {
        let mut s = State::zero(2);
        let c = Circuit::new(3);
        assert_eq!(
            s.apply_circuit(&c).unwrap_err(),
            SimError::WidthMismatch {
                circuit: 3,
                state: 2
            }
        );
        assert!(matches!(
            State::run(&Circuit::new(MAX_STATE_QUBITS + 1)).unwrap_err(),
            SimError::TooWide { qubits, max } if qubits == MAX_STATE_QUBITS + 1 && max == MAX_STATE_QUBITS
        ));
    }

    #[test]
    fn basis_states_are_one_hot() {
        let s = State::basis(3, 5);
        let p = s.probabilities();
        assert_eq!(p[5], 1.0);
        assert!((s.norm() - 1.0).abs() < 1e-15);
        assert_eq!(p.iter().filter(|&&x| x > 0.0).count(), 1);
    }

    #[test]
    fn too_wide_unitary_rejected() {
        let c = Circuit::new(11);
        assert!(matches!(
            circuit_unitary(&c),
            Err(SimError::TooWide {
                qubits: 11,
                max: 10
            })
        ));
    }

    #[test]
    fn qft_preserves_norm_and_spreads() {
        let s = State::run(&benchmarks::qft(6)).unwrap();
        assert!((s.norm() - 1.0).abs() < 1e-10);
        // QFT of |0…0⟩ is uniform.
        for p in s.probabilities() {
            assert!((p - 1.0 / 64.0).abs() < 1e-10);
        }
    }

    #[test]
    fn permutation_round_trip() {
        let mut c = Circuit::new(3);
        c.push_1q(OneQ::H, 0);
        c.push_2q(TwoQ::Cx, 0, 2);
        let s = State::run(&c).unwrap();
        let id: Vec<usize> = (0..3).collect();
        assert!(s.permuted(&id).unwrap().fidelity(&s) > 1.0 - 1e-12);
        // A swap of qubits 0 and 2 twice is the identity.
        let p = vec![2, 1, 0];
        let twice = s.permuted(&p).unwrap().permuted(&p).unwrap();
        assert!(twice.fidelity(&s) > 1.0 - 1e-12);
    }

    #[test]
    fn permute_matches_the_per_bit_definition() {
        // Widths across one, two and three table bytes, each under a
        // reversal and a seeded shuffle.
        let mut rng = StdRng::seed_from_u64(5);
        for n in [1usize, 2, 5, 8, 9, 12, 16, 17] {
            let amps: Vec<C64> = (0..1usize << n)
                .map(|i| C64::new(i as f64, -(i as f64) * 0.5))
                .collect();
            let mut shuffled: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                shuffled.swap(i, rng.gen_range(0..=i));
            }
            for perm in [(0..n).rev().collect::<Vec<_>>(), shuffled] {
                let mut want = vec![C64::ZERO; amps.len()];
                for (i, &a) in amps.iter().enumerate() {
                    let mut j = 0usize;
                    for (l, &p) in perm.iter().enumerate() {
                        j |= (i >> (n - 1 - p) & 1) << (n - 1 - l);
                    }
                    want[j] = a;
                }
                let mut st = State::from_amplitudes(amps.clone());
                st.permute(&perm).unwrap();
                assert_eq!(st.amplitudes(), &want[..], "n={n} perm={perm:?}");
            }
        }
    }

    #[test]
    fn permuted_read_matches_permute_bit_for_bit() {
        // Every width from 1 to 12 qubits, a seeded shuffle each, and
        // 0–3 trailing ancilla wires read as the oracles read them:
        // index `(y << anc) | a`.
        let mut rng = StdRng::seed_from_u64(11);
        for n in 1usize..=12 {
            let amps: Vec<C64> = (0..1usize << n)
                .map(|_| C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
                .collect();
            let mut perm: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                perm.swap(i, rng.gen_range(0..=i));
            }
            let st = State::from_amplitudes(amps);
            let moved = st.permuted(&perm).unwrap();
            let read = st.permuted_read(&perm).unwrap();
            for anc in 0..=3.min(n) {
                for y in 0..1usize << (n - anc) {
                    for a in 0..1usize << anc {
                        let i = y << anc | a;
                        let (got, want) = (read.get(i), moved.amplitudes()[i]);
                        assert_eq!(
                            (got.re.to_bits(), got.im.to_bits()),
                            (want.re.to_bits(), want.im.to_bits()),
                            "n={n} anc={anc} perm={perm:?} index {i}"
                        );
                    }
                }
            }
        }
        assert_eq!(
            State::zero(2).permuted_read(&[1, 1]).unwrap_err(),
            SimError::BadPermutation
        );
    }

    #[test]
    fn bad_permutations_rejected() {
        let s = State::zero(2);
        assert_eq!(s.permuted(&[0]).unwrap_err(), SimError::BadPermutation);
        assert_eq!(s.permuted(&[0, 0]).unwrap_err(), SimError::BadPermutation);
        assert_eq!(s.permuted(&[0, 5]).unwrap_err(), SimError::BadPermutation);
    }

    #[test]
    fn permutation_matches_swap_network() {
        // Applying SWAP(0,1) to the state equals relabelling qubits 0↔1.
        let mut c = Circuit::new(3);
        c.push_1q(OneQ::H, 0);
        c.push_1q(OneQ::T, 1);
        c.push_2q(TwoQ::Cx, 0, 2);
        let s = State::run(&c).unwrap();
        let mut swapped_circuit = c.clone();
        swapped_circuit.push_2q(TwoQ::Swap, 0, 1);
        let via_gate = State::run(&swapped_circuit).unwrap();
        let via_perm = s.permuted(&[1, 0, 2]).unwrap();
        assert!(via_gate.fidelity(&via_perm) > 1.0 - 1e-12);
    }

    #[test]
    fn heavy_output_of_uniform_is_zero() {
        // QFT|0⟩ is uniform: no outcome exceeds the median.
        assert!(heavy_output_probability(&benchmarks::qft(5)).unwrap() < 1e-9);
    }

    #[test]
    fn heavy_output_of_qv_is_near_085() {
        // Ideal QV circuits have heavy-output probability ≈ 0.85.
        let mut acc = 0.0;
        let trials = 5;
        for seed in 0..trials {
            acc += heavy_output_probability(&benchmarks::quantum_volume(8, 8, seed)).unwrap();
        }
        let hop = acc / trials as f64;
        assert!((hop - 0.85).abs() < 0.08, "heavy-output {hop}");
    }

    #[test]
    fn sampling_matches_probabilities() {
        let mut c = Circuit::new(1);
        c.push_1q(OneQ::H, 0);
        let s = State::run(&c).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let ones = (0..2000).filter(|_| s.sample(&mut rng) == 1).count();
        assert!((900..1100).contains(&ones), "{ones} ones");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn prop_random_circuits_preserve_norm(seed in 0u64..200) {
            let c = benchmarks::quantum_volume(5, 4, seed);
            let s = State::run(&c).unwrap();
            prop_assert!((s.norm() - 1.0).abs() < 1e-9);
        }

        #[test]
        fn prop_circuit_unitary_is_unitary(seed in 0u64..100) {
            let c = benchmarks::quantum_volume(4, 3, seed);
            let u = circuit_unitary(&c).unwrap();
            prop_assert!(u.is_unitary(1e-8));
        }
    }
}
