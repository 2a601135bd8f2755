//! The gate-application kernels: shaped kernels for structured matrices,
//! and dense kernels in two bit-identical flavours.
//!
//! # Shapes
//!
//! The two gate dispatchers (`apply_1q`, `apply_2q`) sort each matrix by
//! exact comparison of its entries, before the Scalar/Lanes split:
//!
//! - *Monomial*: every row has exactly one nonzero entry — CZ, CPhase,
//!   Rzz, iSWAP, Rz, S, T, and the permutations CX, SWAP, X and CX·SWAP.
//!   The kernel moves each amplitude into place (runs of eight or more
//!   as whole slices) and multiplies it by its entry unless the entry is
//!   exactly `1+0i`. A permutation therefore only moves amplitudes. Both
//!   paths run the same code.
//! - *Real*: every imaginary part is exactly zero — H, Ry and real fused
//!   blocks. The kernel multiplies real by complex. The Scalar path runs
//!   the shared body one amplitude at a time; the Lanes path streams the
//!   runs through `F64x4` registers (see *Bit identity*), inside the
//!   AVX2 island on x86-64. An x86-64 host without AVX2 keeps the shared
//!   body on both paths.
//! - *Dense*: everything else, on the engine the caller chose.
//!
//! Only exact equality counts: an entry 1e-300 away from zero is nonzero,
//! and a unit entry of `1+ε` is a product like any other.
//!
//! The dense engines: [`KernelPath::Scalar`] is the branch-free
//! reference: zero-bit insertion enumerates each amplitude block once, in
//! ascending memory order, with the matrix entries in locals.
//! [`KernelPath::Lanes`] is the lane-parallel engine: the same block
//! enumeration, but rewritten around the observation that a target bit
//! `b` partitions the register into contiguous *runs* of `b` amplitudes,
//! so the kernel walks pairs (1Q) or quads (2Q) of runs and mixes them
//! four amplitudes at a time with packed `f64x4`-style re/im arithmetic
//! (the crate-private `F64x4`). The shaped kernels walk the same runs.
//!
//! # Bit identity
//!
//! Between the dense engines, every amplitude sees the *identical*
//! floating-point expression — `g00·a + g01·b` evaluated as two complex
//! products summed left to right, each product `(re·re − im·im, re·im +
//! im·re)` — only the *grouping of independent amplitudes into lanes*
//! differs. Rust never contracts separate mul/add into FMA, and IEEE-754
//! `+`/`×` are commutative on the bit level (modulo NaN payloads that
//! unitary evolution never produces), so the two engines agree bit for
//! bit. The `kernel_equivalence` proptest suite asserts exactly that, and
//! the repo's 1-vs-N-thread determinism discipline therefore survives the
//! lane engine unchanged.
//!
//! A shaped kernel builds each output amplitude from the same products
//! as the dense kernel, in the same left-to-right order
//! `((m0·o0 + m1·o1) + m2·o2) + m3·o3`. It leaves out only terms whose
//! matrix entry is exactly zero, and multiplications by exactly one; a
//! real entry's product `r·o` is the dense product without its `0·im`
//! terms. For a finite amplitude every term left out is ±0, and adding
//! ±0 never changes a nonzero value. So every shaped amplitude is `==` to
//! the dense one and can differ only in the sign of a zero. `norm_sqr`
//! squares that sign away, so every fidelity the verify oracles compute
//! keeps its bits. The unit tests below check both claims shape by
//! shape.
//!
//! The Real lanes body computes, in every `f64` lane, the expression the
//! shared body computes for that real or imaginary part, with the same
//! products added in the same order. Only the grouping of independent
//! amplitudes into lanes changes, so the two paths agree bit for bit,
//! signed zeros included, like the dense engines.
//!
//! Lane widths below the packing granularity (a 1Q target in the last two
//! index bits of a < 8-amplitude register, or a 2Q pair whose lower bit
//! sits in the last two positions) fall back to the scalar expression —
//! same arithmetic, different loop shape. The Real lanes body takes 1Q
//! runs of four or more amplitudes and 2Q runs of two or more; shorter
//! runs measured no faster in lanes and keep the shared body.

use paradrive_linalg::C64;
use paradrive_obs::Counter;
use std::sync::OnceLock;

/// Kernel-dispatch counters on the process-global recorder, registered
/// once (indexed `[1q-scalar, 1q-lanes, 2q-scalar, 2q-lanes]`). While the
/// global recorder is disabled — the default — each dispatch pays one
/// relaxed load and a predictable branch, nothing more; `--trace`-style
/// flags turn the mix into exported counters.
fn dispatch_counters() -> &'static [Counter; 4] {
    static CELLS: OnceLock<[Counter; 4]> = OnceLock::new();
    CELLS.get_or_init(|| {
        let g = paradrive_obs::global();
        [
            g.counter("sim.kernel.1q.scalar"),
            g.counter("sim.kernel.1q.lanes"),
            g.counter("sim.kernel.2q.scalar"),
            g.counter("sim.kernel.2q.lanes"),
        ]
    })
}

/// Which kernel engine applies gates to a statevector.
///
/// Both paths produce bit-identical amplitudes; they differ only in
/// speed. [`KernelPath::detected`] picks the default for this process —
/// override it with the `PARADRIVE_SIM_KERNEL` environment variable
/// (`scalar`, `lanes`, or `auto`) to pin a path, e.g. for A/B testing in
/// CI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelPath {
    /// The branch-free scalar reference kernels.
    Scalar,
    /// The lane-parallel (`f64x4`-style) kernels.
    Lanes,
}

impl KernelPath {
    /// The default path for this process, computed once.
    ///
    /// The `PARADRIVE_SIM_KERNEL` environment variable wins when set to
    /// `scalar` or `lanes`; otherwise (`auto` or unset) the runtime
    /// detects whether the target has the lanes: 256-bit vectors on
    /// x86-64 (`avx`), always on aarch64 (NEON is baseline). Targets
    /// without them keep the scalar engine — the lane layout's
    /// deinterleave shuffles only pay for themselves with 4-wide `f64`
    /// hardware. Either way the results are bit-identical; this is purely
    /// a speed policy.
    pub fn detected() -> KernelPath {
        static DETECTED: OnceLock<KernelPath> = OnceLock::new();
        *DETECTED.get_or_init(|| {
            match std::env::var("PARADRIVE_SIM_KERNEL")
                .unwrap_or_default()
                .to_ascii_lowercase()
                .as_str()
            {
                "scalar" => KernelPath::Scalar,
                "lanes" | "simd" => KernelPath::Lanes,
                _ => {
                    if lanes_available() {
                        KernelPath::Lanes
                    } else {
                        KernelPath::Scalar
                    }
                }
            }
        })
    }

    /// The lowercase label used in reports and benchmarks.
    pub fn label(self) -> &'static str {
        match self {
            KernelPath::Scalar => "scalar",
            KernelPath::Lanes => "lanes",
        }
    }
}

/// True when this machine has hardware worth the lane layout.
pub fn lanes_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(target_arch = "aarch64")]
    {
        true
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        false
    }
}

/// The 4-wide codegen island for x86-64.
///
/// Rust compiles for baseline SSE2, so the portable lane bodies lower to
/// 2-wide vectors plus deinterleave shuffles — which loses to the scalar
/// kernels. These wrappers recompile the *same bodies* (inlined, so the
/// attribute applies) with AVX2 enabled, giving true 4-lane `f64`
/// vectors. Identical Rust source → identical FP expression trees; rustc
/// never enables FP contraction, so AVX codegen cannot introduce FMAs and
/// bit identity with the scalar path is preserved.
///
/// This module holds the crate's only `unsafe`: each call is guarded by
/// [`lanes_available`] (`is_x86_feature_detected!("avx2")`), which is
/// exactly the soundness condition for invoking a `#[target_feature]`
/// function.
#[cfg(target_arch = "x86_64")]
mod avx {
    #![allow(unsafe_code)]

    use super::*;

    #[target_feature(enable = "avx2")]
    fn apply_1q_avx(amps: &mut [C64], bit: usize, g: [C64; 4]) {
        apply_1q_lanes(amps, bit, g);
    }

    #[target_feature(enable = "avx2")]
    fn apply_2q_avx(amps: &mut [C64], bit_a: usize, bit_b: usize, m: &[[C64; 4]; 4]) {
        apply_2q_lanes(amps, bit_a, bit_b, m);
    }

    /// Runs the 1Q kernel with AVX2 codegen when the host has it.
    pub(super) fn apply_1q(amps: &mut [C64], bit: usize, g: [C64; 4]) -> bool {
        if lanes_available() {
            // SAFETY: lanes_available() just confirmed avx2 on this host.
            unsafe { apply_1q_avx(amps, bit, g) };
            true
        } else {
            false
        }
    }

    /// Runs the 2Q kernel with AVX2 codegen when the host has it.
    pub(super) fn apply_2q(
        amps: &mut [C64],
        bit_a: usize,
        bit_b: usize,
        m: &[[C64; 4]; 4],
    ) -> bool {
        if lanes_available() {
            // SAFETY: lanes_available() just confirmed avx2 on this host.
            unsafe { apply_2q_avx(amps, bit_a, bit_b, m) };
            true
        } else {
            false
        }
    }

    #[target_feature(enable = "avx2")]
    fn pairs_avx(amps: &mut [C64], bit: usize, op: &impl BlockOp<2>) {
        for_each_pair(amps, bit, op);
    }

    #[target_feature(enable = "avx2")]
    fn quads_avx(amps: &mut [C64], bit_a: usize, bit_b: usize, op: &impl BlockOp<4>) {
        for_each_quad(amps, bit_a, bit_b, op);
    }

    /// Walks a shaped 1Q op with AVX2 codegen when the host has it.
    pub(super) fn pairs(amps: &mut [C64], bit: usize, op: &impl BlockOp<2>) -> bool {
        if lanes_available() {
            // SAFETY: lanes_available() just confirmed avx2 on this host.
            unsafe { pairs_avx(amps, bit, op) };
            true
        } else {
            false
        }
    }

    /// Walks a shaped 2Q op with AVX2 codegen when the host has it.
    pub(super) fn quads(
        amps: &mut [C64],
        bit_a: usize,
        bit_b: usize,
        op: &impl BlockOp<4>,
    ) -> bool {
        if lanes_available() {
            // SAFETY: lanes_available() just confirmed avx2 on this host.
            unsafe { quads_avx(amps, bit_a, bit_b, op) };
            true
        } else {
            false
        }
    }
}

/// Four `f64` lanes, written so LLVM lowers the lane-wise ops to packed
/// vector instructions. Plain safe Rust: the arrays are the portable
/// spelling of `f64x4`, and every op is per-lane mul/add/sub (never a
/// fused multiply-add, which would break bit identity with the scalar
/// path).
#[derive(Debug, Clone, Copy)]
pub(crate) struct F64x4(pub [f64; 4]);

impl F64x4 {
    #[inline(always)]
    pub fn splat(v: f64) -> Self {
        F64x4([v; 4])
    }

    /// Two consecutive amplitudes, interleaved: `[re0, im0, re1, im1]`.
    #[inline(always)]
    fn load_pair(src: &[C64; 2]) -> Self {
        F64x4([src[0].re, src[0].im, src[1].re, src[1].im])
    }

    /// The inverse of [`F64x4::load_pair`].
    #[inline(always)]
    fn store_pair(self, dst: &mut [C64; 2]) {
        dst[0] = C64::new(self.0[0], self.0[1]);
        dst[1] = C64::new(self.0[2], self.0[3]);
    }
}

impl std::ops::Add for F64x4 {
    type Output = F64x4;
    #[inline(always)]
    fn add(self, r: F64x4) -> F64x4 {
        F64x4([
            self.0[0] + r.0[0],
            self.0[1] + r.0[1],
            self.0[2] + r.0[2],
            self.0[3] + r.0[3],
        ])
    }
}

impl std::ops::Sub for F64x4 {
    type Output = F64x4;
    #[inline(always)]
    fn sub(self, r: F64x4) -> F64x4 {
        F64x4([
            self.0[0] - r.0[0],
            self.0[1] - r.0[1],
            self.0[2] - r.0[2],
            self.0[3] - r.0[3],
        ])
    }
}

impl std::ops::Mul for F64x4 {
    type Output = F64x4;
    #[inline(always)]
    fn mul(self, r: F64x4) -> F64x4 {
        F64x4([
            self.0[0] * r.0[0],
            self.0[1] * r.0[1],
            self.0[2] * r.0[2],
            self.0[3] * r.0[3],
        ])
    }
}

/// Four complex lanes in split re/im (structure-of-arrays) form.
#[derive(Debug, Clone, Copy)]
pub(crate) struct C64x4 {
    pub re: F64x4,
    pub im: F64x4,
}

impl C64x4 {
    /// Broadcasts one complex scalar across the lanes.
    #[inline(always)]
    pub fn splat(z: C64) -> Self {
        C64x4 {
            re: F64x4::splat(z.re),
            im: F64x4::splat(z.im),
        }
    }

    /// Deinterleaves four consecutive amplitudes.
    #[inline(always)]
    pub fn load(src: &[C64]) -> Self {
        C64x4 {
            re: F64x4([src[0].re, src[1].re, src[2].re, src[3].re]),
            im: F64x4([src[0].im, src[1].im, src[2].im, src[3].im]),
        }
    }

    /// Gathers four amplitudes from explicit offsets of an 8-slot chunk
    /// (the strided small-bit patterns).
    #[inline(always)]
    pub fn gather(src: &[C64], idx: [usize; 4]) -> Self {
        C64x4 {
            re: F64x4([
                src[idx[0]].re,
                src[idx[1]].re,
                src[idx[2]].re,
                src[idx[3]].re,
            ]),
            im: F64x4([
                src[idx[0]].im,
                src[idx[1]].im,
                src[idx[2]].im,
                src[idx[3]].im,
            ]),
        }
    }

    /// Interleaves back into four consecutive amplitudes.
    #[inline(always)]
    pub fn store(self, dst: &mut [C64]) {
        for (l, slot) in dst.iter_mut().enumerate().take(4) {
            *slot = C64::new(self.re.0[l], self.im.0[l]);
        }
    }

    /// Scatters the lanes to explicit offsets of a chunk.
    #[inline(always)]
    pub fn scatter(self, dst: &mut [C64], idx: [usize; 4]) {
        for l in 0..4 {
            dst[idx[l]] = C64::new(self.re.0[l], self.im.0[l]);
        }
    }

    /// Lane-wise complex product — the same `(ac − bd, ad + bc)`
    /// expression as [`C64::mul`], so each lane is bit-identical to the
    /// scalar product.
    #[inline(always)]
    pub fn mul(self, r: C64x4) -> C64x4 {
        C64x4 {
            re: self.re * r.re - self.im * r.im,
            im: self.re * r.im + self.im * r.re,
        }
    }

    /// Lane-wise complex sum.
    #[inline(always)]
    pub fn add(self, r: C64x4) -> C64x4 {
        C64x4 {
            re: self.re + r.re,
            im: self.im + r.im,
        }
    }
}

/// `g00·a + g01·b` on four lanes — the row expression of every 1Q mix.
#[inline(always)]
fn mix2(g0: C64x4, a: C64x4, g1: C64x4, b: C64x4) -> C64x4 {
    g0.mul(a).add(g1.mul(b))
}

/// `((m0·o0 + m1·o1) + m2·o2) + m3·o3` on four lanes — the row
/// expression of every 2Q mix, associated exactly like the scalar path.
#[inline(always)]
fn mix4(m: [C64x4; 4], o: [C64x4; 4]) -> C64x4 {
    m[0].mul(o[0])
        .add(m[1].mul(o[1]))
        .add(m[2].mul(o[2]))
        .add(m[3].mul(o[3]))
}

// ---------------------------------------------------------------------
// Shaped kernels
// ---------------------------------------------------------------------

/// How a dispatcher applies an `N × N` matrix (see the module docs).
#[derive(Debug, Clone, Copy)]
enum Shape<const N: usize> {
    /// Every row has exactly one nonzero entry.
    Monomial(Monomial<N>),
    /// Every imaginary part is exactly zero.
    Real(Real<N>),
    /// Anything else.
    Dense,
}

/// A shaped matrix, applied one block of runs at a time. A trait rather
/// than a closure so the per-amplitude body always inlines into the
/// walkers; as a closure it did not, and paid a call per amplitude.
trait BlockOp<const N: usize> {
    /// Overwrites one amplitude per slot, given in logical matrix order.
    fn apply(&self, z: [&mut C64; N]);

    /// Overwrites equal-length runs, given in logical matrix order,
    /// amplitude by amplitude.
    #[inline(always)]
    fn apply_runs(&self, mut runs: [&mut [C64]; N]) {
        for e in 0..runs[0].len() {
            self.apply(runs.each_mut().map(|run| &mut run[e]));
        }
    }
}

/// A monomial matrix. Row `r` with `rows[r] = Some((c, entry))` becomes
/// `entry · old[c]`, with `None` for an entry of exactly `1+0i` (a
/// move); rows that keep their own amplitude are `None`. On whole runs
/// the same matrix is `swaps` (run exchanges until run `r` holds slot
/// `c`) followed by the entries' scalings.
#[derive(Debug, Clone, Copy)]
struct Monomial<const N: usize> {
    rows: [Option<(usize, Option<C64>)>; N],
    swaps: [(usize, usize); N],
    n_swaps: usize,
}

/// A real matrix: the real parts of a matrix whose imaginary parts are
/// all exactly zero.
#[derive(Debug, Clone, Copy)]
struct Real<const N: usize>([[f64; N]; N]);

/// Sorts `m` into its [`Shape`] by exact comparison of its entries.
fn classify<const N: usize>(m: &[[C64; N]; N]) -> Shape<N> {
    let mut mono = Monomial {
        rows: [None; N],
        swaps: [(0, 0); N],
        n_swaps: 0,
    };
    // `at[p]` is the slot whose run sits at position `p` after the swaps
    // so far; a unitary's rows read distinct slots, so row `r` finds its
    // slot at or after position `r`.
    let mut at: [usize; N] = std::array::from_fn(|p| p);
    for (r, row) in m.iter().enumerate() {
        let mut nonzero = row.iter().enumerate().filter(|&(_, &z)| z != C64::ZERO);
        let (Some((c, &z)), None) = (nonzero.next(), nonzero.next()) else {
            return real_or_dense(m);
        };
        let Some(p) = (r..N).find(|&p| at[p] == c) else {
            return real_or_dense(m);
        };
        if p != r {
            at.swap(r, p);
            mono.swaps[mono.n_swaps] = (r, p);
            mono.n_swaps += 1;
        }
        let entry = (z != C64::ONE).then_some(z);
        if c != r || entry.is_some() {
            mono.rows[r] = Some((c, entry));
        }
    }
    Shape::Monomial(mono)
}

/// [`Shape::Real`] when every imaginary part is exactly zero, else
/// [`Shape::Dense`].
fn real_or_dense<const N: usize>(m: &[[C64; N]; N]) -> Shape<N> {
    if m.iter().flatten().all(|z| z.im == 0.0) {
        Shape::Real(Real(m.map(|row| row.map(|z| z.re))))
    } else {
        Shape::Dense
    }
}

impl<const N: usize> BlockOp<N> for Monomial<N> {
    #[inline(always)]
    fn apply(&self, z: [&mut C64; N]) {
        let old: [C64; N] = std::array::from_fn(|c| *z[c]);
        for (slot, row) in z.into_iter().zip(&self.rows) {
            match *row {
                Some((c, Some(e))) => *slot = e * old[c],
                Some((c, None)) => *slot = old[c],
                None => {}
            }
        }
    }

    /// Long runs move and scale as whole slices; short ones go amplitude
    /// by amplitude.
    #[inline(always)]
    fn apply_runs(&self, mut runs: [&mut [C64]; N]) {
        if runs[0].len() < 8 {
            for e in 0..runs[0].len() {
                self.apply(runs.each_mut().map(|run| &mut run[e]));
            }
            return;
        }
        for &(r, p) in &self.swaps[..self.n_swaps] {
            let (lo, hi) = runs.split_at_mut(p);
            lo[r].swap_with_slice(hi[0]);
        }
        for (run, row) in runs.iter_mut().zip(&self.rows) {
            if let Some((_, Some(e))) = *row {
                run.iter_mut().for_each(|z| *z = e * *z);
            }
        }
    }
}

/// `r·z`: the complex product `(r + 0i)·z` without its zero terms.
#[inline(always)]
fn real_mul(r: f64, z: C64) -> C64 {
    C64::new(r * z.re, r * z.im)
}

impl<const N: usize> BlockOp<N> for Real<N> {
    /// Each row is summed left to right, like the dense kernels.
    #[inline(always)]
    fn apply(&self, z: [&mut C64; N]) {
        let old: [C64; N] = std::array::from_fn(|c| *z[c]);
        for (slot, row) in z.into_iter().zip(&self.0) {
            let terms = row.iter().zip(&old).map(|(&r, &v)| real_mul(r, v));
            *slot = terms.reduce(|acc, t| acc + t).expect("N ≥ 1");
        }
    }
}

/// A [`Real`] matrix on the lanes path. A real entry scales the real and
/// imaginary parts of an amplitude alike and never mixes them, so the
/// runs stream through `F64x4` registers as they lie in memory, two
/// amplitudes (`[re0, im0, re1, im1]`) per register, with no shuffles.
/// Every lane sums `((m0·x0 + m1·x1) + m2·x2) + m3·x3` over the matching
/// part `x` of each run: the expression [`Real::apply`] builds for that
/// part from `real_mul` and left-to-right adds. Runs of one amplitude
/// keep the shared body.
#[derive(Debug, Clone, Copy)]
struct RealLanes<const N: usize>(Real<N>);

impl<const N: usize> BlockOp<N> for RealLanes<N> {
    #[inline(always)]
    fn apply(&self, z: [&mut C64; N]) {
        self.0.apply(z);
    }

    #[inline(always)]
    fn apply_runs(&self, runs: [&mut [C64]; N]) {
        let pairs = runs[0].len() / 2;
        if pairs == 0 {
            return self.0.apply_runs(runs);
        }
        let Real(m) = &self.0;
        let mut streams = runs.map(|run| &mut run.as_chunks_mut::<2>().0[..pairs]);
        for k in 0..pairs {
            let old: [F64x4; N] = std::array::from_fn(|c| F64x4::load_pair(&streams[c][k]));
            for (stream, row) in streams.iter_mut().zip(m) {
                let mut sum = F64x4::splat(row[0]) * old[0];
                for c in 1..N {
                    sum = sum + F64x4::splat(row[c]) * old[c];
                }
                sum.store_pair(&mut stream[k]);
            }
        }
    }
}

/// Applies a Real 1Q op with the lanes body and returns true, or returns
/// false and leaves `amps` alone on an x86-64 host without AVX2. Those
/// hosts keep the shared body: compiling a portable lanes body into the
/// dispatcher as well measured a slower shared body on runs of one.
fn real_lanes_1q(amps: &mut [C64], bit: usize, op: Real<2>) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        avx::pairs(amps, bit, &RealLanes(op))
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        for_each_pair(amps, bit, &RealLanes(op));
        true
    }
}

/// The 2Q counterpart of [`real_lanes_1q`].
fn real_lanes_2q(amps: &mut [C64], bit_a: usize, bit_b: usize, op: Real<4>) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        avx::quads(amps, bit_a, bit_b, &RealLanes(op))
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        for_each_quad(amps, bit_a, bit_b, &RealLanes(op));
        true
    }
}

/// Applies `op` to every pair of runs `bit` splits the register into, in
/// logical order (`bit` clear, then set). Runs of up to eight amplitudes
/// get a compile-time length, so the walk unrolls.
#[inline(always)]
fn for_each_pair(amps: &mut [C64], bit: usize, op: &impl BlockOp<2>) {
    #[inline(always)]
    fn walk<const S: usize>(amps: &mut [C64], bit: usize, op: &impl BlockOp<2>) {
        let run = if S == 0 { bit } else { S };
        for block in amps.chunks_exact_mut(2 * run) {
            let (r0, r1) = block.split_at_mut(run);
            op.apply_runs([r0, r1]);
        }
    }
    match bit {
        1 => walk::<1>(amps, bit, op),
        2 => walk::<2>(amps, bit, op),
        4 => walk::<4>(amps, bit, op),
        8 => walk::<8>(amps, bit, op),
        _ => walk::<0>(amps, bit, op),
    }
}

/// Applies `op` to every quad of runs `bit_a`/`bit_b` split the register
/// into, in logical matrix order: run `r` holds the amplitudes at
/// `[i, i|bit_b, i|bit_a, i|bit_a|bit_b][r]`. Short runs unroll as in
/// [`for_each_pair`].
#[inline(always)]
fn for_each_quad(amps: &mut [C64], bit_a: usize, bit_b: usize, op: &impl BlockOp<4>) {
    #[inline(always)]
    fn walk<const S: usize>(amps: &mut [C64], bit_a: usize, bit_b: usize, op: &impl BlockOp<4>) {
        let big = bit_a.max(bit_b);
        let run = if S == 0 { bit_a.min(bit_b) } else { S };
        for outer in amps.chunks_exact_mut(2 * big) {
            let (lo_half, hi_half) = outer.split_at_mut(big);
            for (lo_pair, hi_pair) in lo_half
                .chunks_exact_mut(2 * run)
                .zip(hi_half.chunks_exact_mut(2 * run))
            {
                let (s0, s1) = lo_pair.split_at_mut(run);
                let (s2, s3) = hi_pair.split_at_mut(run);
                // Runs |small and |big swap places when `a` is low.
                op.apply_runs(if bit_a > bit_b {
                    [s0, s1, s2, s3]
                } else {
                    [s0, s2, s1, s3]
                });
            }
        }
    }
    match bit_a.min(bit_b) {
        1 => walk::<1>(amps, bit_a, bit_b, op),
        2 => walk::<2>(amps, bit_a, bit_b, op),
        4 => walk::<4>(amps, bit_a, bit_b, op),
        8 => walk::<8>(amps, bit_a, bit_b, op),
        _ => walk::<0>(amps, bit_a, bit_b, op),
    }
}

// ---------------------------------------------------------------------
// 1Q kernels
// ---------------------------------------------------------------------

/// Applies a 2×2 `g = [g00, g01, g10, g11]` to the amplitude pairs
/// separated by `bit` — the scalar reference path.
pub(crate) fn apply_1q_scalar(amps: &mut [C64], bit: usize, g: [C64; 4]) {
    let [g00, g01, g10, g11] = g;
    let low = bit - 1;
    for k in 0..amps.len() / 2 {
        let i = ((k & !low) << 1) | (k & low);
        let j = i | bit;
        let (a, b) = (amps[i], amps[j]);
        amps[i] = g00 * a + g01 * b;
        amps[j] = g10 * a + g11 * b;
    }
}

/// The lane-parallel 1Q kernel. Bit-identical to
/// [`apply_1q_scalar`]; see the module docs for the argument.
///
/// `inline(always)` so the body inlines into the `#[target_feature]`
/// wrappers in [`avx`] and actually receives AVX codegen.
#[inline(always)]
pub(crate) fn apply_1q_lanes(amps: &mut [C64], bit: usize, g: [C64; 4]) {
    if amps.len() < 8 {
        return apply_1q_scalar(amps, bit, g);
    }
    let [g00, g01, g10, g11] = g;
    let (s00, s01, s10, s11) = (
        C64x4::splat(g00),
        C64x4::splat(g01),
        C64x4::splat(g10),
        C64x4::splat(g11),
    );
    match bit {
        // Adjacent pairs: chunk [a0 b0 a1 b1 a2 b2 a3 b3].
        1 => {
            for chunk in amps.chunks_exact_mut(8) {
                let a = C64x4::gather(chunk, [0, 2, 4, 6]);
                let b = C64x4::gather(chunk, [1, 3, 5, 7]);
                mix2(s00, a, s01, b).scatter(chunk, [0, 2, 4, 6]);
                mix2(s10, a, s11, b).scatter(chunk, [1, 3, 5, 7]);
            }
        }
        // Stride-2 pairs: chunk [a0 a1 b0 b1 a2 a3 b2 b3].
        2 => {
            for chunk in amps.chunks_exact_mut(8) {
                let a = C64x4::gather(chunk, [0, 1, 4, 5]);
                let b = C64x4::gather(chunk, [2, 3, 6, 7]);
                mix2(s00, a, s01, b).scatter(chunk, [0, 1, 4, 5]);
                mix2(s10, a, s11, b).scatter(chunk, [2, 3, 6, 7]);
            }
        }
        // Runs of exactly four: one lane step per run pair.
        4 => {
            for block in amps.chunks_exact_mut(8) {
                let (ca, cb) = block.split_at_mut(4);
                let a = C64x4::load(ca);
                let b = C64x4::load(cb);
                mix2(s00, a, s01, b).store(ca);
                mix2(s10, a, s11, b).store(cb);
            }
        }
        // Contiguous runs of `bit ≥ 8` amplitudes: mix run pairs eight
        // lanes at a time — pure sequential loads/stores, the
        // cache-friendly regime for wide states.
        _ => {
            for block in amps.chunks_exact_mut(2 * bit) {
                let (run_a, run_b) = block.split_at_mut(bit);
                for (ca, cb) in run_a.chunks_exact_mut(8).zip(run_b.chunks_exact_mut(8)) {
                    let (ca0, ca1) = ca.split_at_mut(4);
                    let (cb0, cb1) = cb.split_at_mut(4);
                    let a0 = C64x4::load(ca0);
                    let b0 = C64x4::load(cb0);
                    let a1 = C64x4::load(ca1);
                    let b1 = C64x4::load(cb1);
                    mix2(s00, a0, s01, b0).store(ca0);
                    mix2(s10, a0, s11, b0).store(cb0);
                    mix2(s00, a1, s01, b1).store(ca1);
                    mix2(s10, a1, s11, b1).store(cb1);
                }
            }
        }
    }
}

/// Dispatches a 1Q application: a shaped kernel when the matrix has a
/// shape, else the chosen dense engine.
#[inline]
pub(crate) fn apply_1q(path: KernelPath, amps: &mut [C64], bit: usize, g: [C64; 4]) {
    let counter = match path {
        KernelPath::Scalar => 0,
        KernelPath::Lanes => 1,
    };
    dispatch_counters()[counter].incr(1);
    match classify(&[[g[0], g[1]], [g[2], g[3]]]) {
        Shape::Monomial(op) => for_each_pair(amps, bit, &op),
        Shape::Real(op) => {
            // Shorter runs measured no faster in lanes (see the module docs).
            let lanes = path == KernelPath::Lanes && bit >= 4;
            if !(lanes && real_lanes_1q(amps, bit, op)) {
                for_each_pair(amps, bit, &op);
            }
        }
        Shape::Dense => match path {
            KernelPath::Scalar => apply_1q_scalar(amps, bit, g),
            KernelPath::Lanes => {
                #[cfg(target_arch = "x86_64")]
                if avx::apply_1q(amps, bit, g) {
                    return;
                }
                apply_1q_lanes(amps, bit, g)
            }
        },
    }
}

// ---------------------------------------------------------------------
// 2Q kernels
// ---------------------------------------------------------------------

/// Applies a 4×4 `m` (row-major, logical `(a, b)` order with `a` the
/// high bit) to the blocks addressed by `bit_a`/`bit_b` — the scalar
/// reference path.
pub(crate) fn apply_2q_scalar(amps: &mut [C64], bit_a: usize, bit_b: usize, m: &[[C64; 4]; 4]) {
    let (small, big) = (bit_a.min(bit_b), bit_a.max(bit_b));
    let (low_s, low_b) = (small - 1, big - 1);
    for k in 0..amps.len() / 4 {
        // Insert zero bits at the lower, then the higher position.
        let t = ((k & !low_s) << 1) | (k & low_s);
        let i = ((t & !low_b) << 1) | (t & low_b);
        let idx = [i, i | bit_b, i | bit_a, i | bit_a | bit_b];
        let old = [amps[idx[0]], amps[idx[1]], amps[idx[2]], amps[idx[3]]];
        for (r, &out_i) in idx.iter().enumerate() {
            amps[out_i] = m[r][0] * old[0] + m[r][1] * old[1] + m[r][2] * old[2] + m[r][3] * old[3];
        }
    }
}

/// The lane-parallel 2Q (fused 4×4) kernel. Bit-identical to
/// [`apply_2q_scalar`].
///
/// The lower target bit partitions the register into contiguous runs of
/// `small` amplitudes; each 4×4 block spans four such runs at offsets
/// `{0, small}` × `{0, big}`. The kernel streams the four runs in
/// parallel, four amplitudes per step — at most four concurrent
/// sequential streams regardless of state width, which is what keeps the
/// iteration cache-resident for 20+-qubit registers.
#[inline(always)]
pub(crate) fn apply_2q_lanes(amps: &mut [C64], bit_a: usize, bit_b: usize, m: &[[C64; 4]; 4]) {
    let (small, big) = (bit_a.min(bit_b), bit_a.max(bit_b));
    let ms: [[C64x4; 4]; 4] =
        std::array::from_fn(|r| std::array::from_fn(|c| C64x4::splat(m[r][c])));
    if small >= 4 {
        // Contiguous regime: runs of ≥ 4 amplitudes per stream.
        for outer in amps.chunks_exact_mut(2 * big) {
            let (lo_half, hi_half) = outer.split_at_mut(big);
            for (lo_pair, hi_pair) in lo_half
                .chunks_exact_mut(2 * small)
                .zip(hi_half.chunks_exact_mut(2 * small))
            {
                let (s0, s1) = lo_pair.split_at_mut(small);
                let (s2, s3) = hi_pair.split_at_mut(small);
                // Hand the streams over in *logical* matrix order — slot
                // r is `idx[r] = [i, i|bit_b, i|bit_a, i|bit_a|bit_b]` —
                // so the inner loop carries no index indirection. When
                // `a` is the higher bit the value order is already
                // logical; otherwise the |small and |big streams swap.
                if bit_a > bit_b {
                    mix_streams_2q(s0, s1, s2, s3, &ms);
                } else {
                    mix_streams_2q(s0, s2, s1, s3, &ms);
                }
            }
        }
    } else if big >= 8 {
        // Half-strided regime: `small ∈ {1, 2}` interleaves the two low
        // streams inside each half of a block, in a pattern that repeats
        // every 8 amplitudes — gather four lanes per stream from paired
        // 8-chunks of the two halves.
        let (ia, ib) = if small == 1 {
            ([0, 2, 4, 6], [1, 3, 5, 7])
        } else {
            ([0, 1, 4, 5], [2, 3, 6, 7])
        };
        for outer in amps.chunks_exact_mut(2 * big) {
            let (lo_half, hi_half) = outer.split_at_mut(big);
            for (cl, ch) in lo_half.chunks_exact_mut(8).zip(hi_half.chunks_exact_mut(8)) {
                let v0 = C64x4::gather(cl, ia);
                let v1 = C64x4::gather(cl, ib);
                let v2 = C64x4::gather(ch, ia);
                let v3 = C64x4::gather(ch, ib);
                // Value stream s ∈ {base, |small, |big, |both}; logical
                // slot r is `idx[r]` as above.
                if bit_a > bit_b {
                    let o = [v0, v1, v2, v3];
                    mix4(ms[0], o).scatter(cl, ia);
                    mix4(ms[1], o).scatter(cl, ib);
                    mix4(ms[2], o).scatter(ch, ia);
                    mix4(ms[3], o).scatter(ch, ib);
                } else {
                    let o = [v0, v2, v1, v3];
                    mix4(ms[0], o).scatter(cl, ia);
                    mix4(ms[1], o).scatter(ch, ia);
                    mix4(ms[2], o).scatter(cl, ib);
                    mix4(ms[3], o).scatter(ch, ib);
                }
            }
        }
    } else if amps.len() >= 16 {
        // Whole-block regime: the full 4-stream pattern spans `2·big ≤ 8`
        // amplitudes, so a 16-chunk holds two or four complete blocks —
        // gather each stream's lanes across them.
        let (i0, i1, i2, i3) = match (small, big) {
            (1, 2) => ([0, 4, 8, 12], [1, 5, 9, 13], [2, 6, 10, 14], [3, 7, 11, 15]),
            (1, 4) => ([0, 2, 8, 10], [1, 3, 9, 11], [4, 6, 12, 14], [5, 7, 13, 15]),
            _ => ([0, 1, 8, 9], [2, 3, 10, 11], [4, 5, 12, 13], [6, 7, 14, 15]),
        };
        for chunk in amps.chunks_exact_mut(16) {
            let v0 = C64x4::gather(chunk, i0);
            let v1 = C64x4::gather(chunk, i1);
            let v2 = C64x4::gather(chunk, i2);
            let v3 = C64x4::gather(chunk, i3);
            if bit_a > bit_b {
                let o = [v0, v1, v2, v3];
                mix4(ms[0], o).scatter(chunk, i0);
                mix4(ms[1], o).scatter(chunk, i1);
                mix4(ms[2], o).scatter(chunk, i2);
                mix4(ms[3], o).scatter(chunk, i3);
            } else {
                let o = [v0, v2, v1, v3];
                mix4(ms[0], o).scatter(chunk, i0);
                mix4(ms[1], o).scatter(chunk, i2);
                mix4(ms[2], o).scatter(chunk, i1);
                mix4(ms[3], o).scatter(chunk, i3);
            }
        }
    } else {
        apply_2q_scalar(amps, bit_a, bit_b, m)
    }
}

/// The 2Q inner loop over four equal-length streams given in logical
/// matrix order: four zipped sequential runs, four amplitudes per step,
/// summed exactly as the scalar kernel associates them.
#[inline(always)]
fn mix_streams_2q(
    o0: &mut [C64],
    o1: &mut [C64],
    o2: &mut [C64],
    o3: &mut [C64],
    ms: &[[C64x4; 4]; 4],
) {
    if o0.len() >= 8 {
        // Two lane steps per iteration: halves the zip bookkeeping on
        // the wide-run regime (run lengths are powers of two ≥ 8, so
        // the chunks divide exactly).
        for (((c0, c1), c2), c3) in o0
            .chunks_exact_mut(8)
            .zip(o1.chunks_exact_mut(8))
            .zip(o2.chunks_exact_mut(8))
            .zip(o3.chunks_exact_mut(8))
        {
            let (c0a, c0b) = c0.split_at_mut(4);
            let (c1a, c1b) = c1.split_at_mut(4);
            let (c2a, c2b) = c2.split_at_mut(4);
            let (c3a, c3b) = c3.split_at_mut(4);
            let oa = [
                C64x4::load(c0a),
                C64x4::load(c1a),
                C64x4::load(c2a),
                C64x4::load(c3a),
            ];
            mix4(ms[0], oa).store(c0a);
            mix4(ms[1], oa).store(c1a);
            mix4(ms[2], oa).store(c2a);
            mix4(ms[3], oa).store(c3a);
            let ob = [
                C64x4::load(c0b),
                C64x4::load(c1b),
                C64x4::load(c2b),
                C64x4::load(c3b),
            ];
            mix4(ms[0], ob).store(c0b);
            mix4(ms[1], ob).store(c1b);
            mix4(ms[2], ob).store(c2b);
            mix4(ms[3], ob).store(c3b);
        }
    } else {
        // Runs of exactly four.
        let o = [
            C64x4::load(o0),
            C64x4::load(o1),
            C64x4::load(o2),
            C64x4::load(o3),
        ];
        mix4(ms[0], o).store(o0);
        mix4(ms[1], o).store(o1);
        mix4(ms[2], o).store(o2);
        mix4(ms[3], o).store(o3);
    }
}

/// Dispatches a 2Q application: a shaped kernel when the matrix has a
/// shape, else the chosen dense engine.
#[inline]
pub(crate) fn apply_2q(
    path: KernelPath,
    amps: &mut [C64],
    bit_a: usize,
    bit_b: usize,
    m: &[[C64; 4]; 4],
) {
    let counter = match path {
        KernelPath::Scalar => 2,
        KernelPath::Lanes => 3,
    };
    dispatch_counters()[counter].incr(1);
    match classify(m) {
        Shape::Monomial(op) => for_each_quad(amps, bit_a, bit_b, &op),
        Shape::Real(op) => {
            // Runs of one measured no faster in lanes (see the module docs).
            let lanes = path == KernelPath::Lanes && bit_a.min(bit_b) >= 2;
            if !(lanes && real_lanes_2q(amps, bit_a, bit_b, op)) {
                for_each_quad(amps, bit_a, bit_b, &op);
            }
        }
        Shape::Dense => match path {
            KernelPath::Scalar => apply_2q_scalar(amps, bit_a, bit_b, m),
            KernelPath::Lanes => {
                #[cfg(target_arch = "x86_64")]
                if avx::apply_2q(amps, bit_a, bit_b, m) {
                    return;
                }
                apply_2q_lanes(amps, bit_a, bit_b, m)
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradrive_circuit::{OneQ, TwoQ};
    use paradrive_linalg::CMat;

    fn ramp(n: usize) -> Vec<C64> {
        (0..n)
            .map(|i| C64::new(0.1 + i as f64 * 0.3, -0.2 + i as f64 * 0.05))
            .collect()
    }

    /// Amplitudes whose parts cycle through exact `+0`, `−0` and a
    /// nonzero value, so every sign of zero meets every matrix entry.
    fn signed_zeros(n: usize) -> Vec<C64> {
        const PARTS: [f64; 3] = [0.0, -0.0, -0.7];
        (0..n)
            .map(|i| C64::new(PARTS[i % 3], PARTS[i / 3 % 3]))
            .collect()
    }

    /// A named register fill of a given length.
    type Input = (&'static str, fn(usize) -> Vec<C64>);

    /// The inputs the shape checks run every matrix on.
    const INPUTS: [Input; 2] = [("ramp", ramp), ("signed zeros", signed_zeros)];

    #[test]
    fn one_q_paths_agree_bitwise_on_every_bit() {
        for n in 1..10usize {
            let len = 1 << n;
            for q in 0..n {
                let bit = 1usize << (n - 1 - q);
                let mut scalar = ramp(len);
                let mut lanes = scalar.clone();
                let g = [
                    C64::new(0.6, 0.1),
                    C64::new(-0.3, 0.7),
                    C64::new(0.2, -0.5),
                    C64::new(0.8, 0.05),
                ];
                apply_1q_scalar(&mut scalar, bit, g);
                apply_1q_lanes(&mut lanes, bit, g);
                assert_eq!(scalar, lanes, "n={n} q={q}");
            }
        }
    }

    #[test]
    fn two_q_paths_agree_bitwise_on_every_pair() {
        let mut m = [[C64::ZERO; 4]; 4];
        for (r, row) in m.iter_mut().enumerate() {
            for (c, cell) in row.iter_mut().enumerate() {
                *cell = C64::new(0.1 * (r as f64 + 1.0), -0.07 * (c as f64 + 2.0));
            }
        }
        for n in 2..9usize {
            let len = 1 << n;
            for a in 0..n {
                for b in 0..n {
                    if a == b {
                        continue;
                    }
                    let bit_a = 1usize << (n - 1 - a);
                    let bit_b = 1usize << (n - 1 - b);
                    let mut scalar = ramp(len);
                    let mut lanes = scalar.clone();
                    apply_2q_scalar(&mut scalar, bit_a, bit_b, &m);
                    apply_2q_lanes(&mut lanes, bit_a, bit_b, &m);
                    assert_eq!(scalar, lanes, "n={n} a={a} b={b}");
                }
            }
        }
    }

    fn entries_1q(g: &CMat) -> [C64; 4] {
        [g[(0, 0)], g[(0, 1)], g[(1, 0)], g[(1, 1)]]
    }

    fn entries_2q(g: &CMat) -> [[C64; 4]; 4] {
        std::array::from_fn(|r| std::array::from_fn(|c| g[(r, c)]))
    }

    /// The shape contract: through either path, every amplitude `==` the
    /// dense kernel's, with the same `norm_sqr` bits; and the two paths
    /// agree bit for bit, signs of zero included.
    fn assert_matches_dense(paths: &[Vec<C64>; 2], dense: &[C64], context: &str) {
        for (i, ((s, l), d)) in paths[0].iter().zip(&paths[1]).zip(dense).enumerate() {
            assert!(s == d, "{context}: amplitude {i}: {s:?} vs dense {d:?}");
            assert_eq!(
                s.norm_sqr().to_bits(),
                d.norm_sqr().to_bits(),
                "{context}: amplitude {i}"
            );
            assert_eq!(
                (s.re.to_bits(), s.im.to_bits()),
                (l.re.to_bits(), l.im.to_bits()),
                "{context}: amplitude {i} differs across paths"
            );
        }
    }

    /// Checks a 1Q matrix through both dispatcher paths against the dense
    /// scalar kernel, on every qubit of every width 2–9, from each of
    /// [`INPUTS`].
    fn check_1q(name: &str, g: [C64; 4]) {
        for (input, fill) in INPUTS {
            for n in 2..10usize {
                for q in 0..n {
                    let bit = 1usize << (n - 1 - q);
                    let mut dense = fill(1 << n);
                    apply_1q_scalar(&mut dense, bit, g);
                    let paths = [KernelPath::Scalar, KernelPath::Lanes].map(|path| {
                        let mut amps = fill(1 << n);
                        apply_1q(path, &mut amps, bit, g);
                        amps
                    });
                    let context = format!("{name} on {input} n={n} q={q}");
                    assert_matches_dense(&paths, &dense, &context);
                }
            }
        }
    }

    /// Checks a 4×4 matrix like [`check_1q`], on every ordered pair.
    fn check_2q(name: &str, m: &[[C64; 4]; 4]) {
        for (input, fill) in INPUTS {
            for n in 2..10usize {
                for a in 0..n {
                    for b in (0..n).filter(|&b| b != a) {
                        let (bit_a, bit_b) = (1usize << (n - 1 - a), 1usize << (n - 1 - b));
                        let mut dense = fill(1 << n);
                        apply_2q_scalar(&mut dense, bit_a, bit_b, m);
                        let paths = [KernelPath::Scalar, KernelPath::Lanes].map(|path| {
                            let mut amps = fill(1 << n);
                            apply_2q(path, &mut amps, bit_a, bit_b, m);
                            amps
                        });
                        let context = format!("{name} on {input} n={n} a={a} b={b}");
                        assert_matches_dense(&paths, &dense, &context);
                    }
                }
            }
        }
    }

    /// `"monomial"` (`"permutation"` when every entry is a move), `"real"`
    /// or `"dense"`.
    fn shape_name<const N: usize>(m: &[[C64; N]; N]) -> &'static str {
        match classify(m) {
            Shape::Monomial(mono) if mono.rows.iter().flatten().all(|r| r.1.is_none()) => {
                "permutation"
            }
            Shape::Monomial(_) => "monomial",
            Shape::Real(_) => "real",
            Shape::Dense => "dense",
        }
    }

    #[test]
    fn shaped_1q_kernels_match_the_dense_kernel() {
        for (name, gate, shape) in [
            ("X", OneQ::X, "permutation"),
            ("Z", OneQ::Z, "monomial"),
            ("S", OneQ::S, "monomial"),
            ("T", OneQ::T, "monomial"),
            ("Rz", OneQ::Rz(0.37), "monomial"),
            ("H", OneQ::H, "real"),
            ("Ry", OneQ::Ry(-1.1), "real"),
            ("U3", OneQ::U3(0.3, 0.5, 0.7), "dense"),
        ] {
            let g = entries_1q(&gate.unitary());
            assert_eq!(shape_name(&[[g[0], g[1]], [g[2], g[3]]]), shape, "{name}");
            check_1q(name, g);
        }
    }

    #[test]
    fn shaped_2q_kernels_match_the_dense_kernel() {
        let cx = TwoQ::Cx.unitary();
        let ry_ry = OneQ::Ry(0.4).unitary().kron(&OneQ::Ry(-1.3).unitary());
        for (name, g, shape) in [
            ("CX", cx.clone(), "permutation"),
            ("SWAP", TwoQ::Swap.unitary(), "permutation"),
            ("CX·SWAP", cx.mul(&TwoQ::Swap.unitary()), "permutation"),
            ("CZ", TwoQ::Cz.unitary(), "monomial"),
            ("CPhase", TwoQ::CPhase(0.7).unitary(), "monomial"),
            ("Rzz", TwoQ::Rzz(-0.45).unitary(), "monomial"),
            ("iSWAP", TwoQ::ISwap.unitary(), "monomial"),
            ("CX·(Ry⊗Ry)", cx.mul(&ry_ry), "real"),
            ("√iSWAP", TwoQ::SqrtISwap.unitary(), "dense"),
        ] {
            let m = entries_2q(&g);
            assert_eq!(shape_name(&m), shape, "{name}");
            check_2q(name, &m);
        }
    }

    #[test]
    fn near_shapes_are_not_taken_for_their_shape() {
        // A permutation with one zero entry 1e-300 away from zero: two
        // nonzeros in a row, so no longer a rearrangement.
        let mut near_cx = entries_2q(&TwoQ::Cx.unitary());
        near_cx[0][1] = C64::real(1e-300);
        assert_eq!(shape_name(&near_cx), "real");
        check_2q("CX+1e-300", &near_cx);
        let mut near_x = entries_1q(&OneQ::X.unitary());
        near_x[0] = C64::new(0.0, 1e-300);
        assert_eq!(
            shape_name(&[[near_x[0], near_x[1]], [near_x[2], near_x[3]]]),
            "dense"
        );
        check_1q("X+1e-300i", near_x);
        // A CPhase whose unit entry is 1+ε: still monomial, but that entry
        // is a product, not a move.
        let mut near_cp = entries_2q(&TwoQ::CPhase(0.7).unitary());
        near_cp[0][0] = C64::real(1.0 + f64::EPSILON);
        let Shape::Monomial(mono) = classify(&near_cp) else {
            panic!("a CPhase with a 1+ε entry is still monomial");
        };
        assert_eq!(mono.rows[0], Some((0, Some(C64::real(1.0 + f64::EPSILON)))));
        check_2q("CPhase(1+ε)", &near_cp);
    }

    #[test]
    fn detection_reports_a_path() {
        // Whatever the machine, detection must settle on one of the two
        // engines and keep answering the same thing.
        let first = KernelPath::detected();
        assert_eq!(first, KernelPath::detected());
        assert!(matches!(first, KernelPath::Scalar | KernelPath::Lanes));
        assert!(!first.label().is_empty());
    }
}
