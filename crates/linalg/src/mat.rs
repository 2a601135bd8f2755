//! The [`CMat`] dense complex matrix.
//!
//! Row-major, heap-backed, sized for the small (2×2 … 16×16) matrices that
//! appear in two-qubit gate analysis. Operations panic on shape mismatch via
//! the checked `try_*` variants' expectations; fallible entry points return
//! [`LinalgError`].

use crate::complex::C64;
use crate::LinalgError;
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// A dense, row-major complex matrix.
///
/// # Example
///
/// ```
/// use paradrive_linalg::{C64, CMat};
///
/// let x = CMat::from_rows(&[
///     &[C64::ZERO, C64::ONE],
///     &[C64::ONE, C64::ZERO],
/// ]);
/// assert!(x.is_unitary(1e-12));
/// assert_eq!(x.mul(&x), CMat::identity(2));
/// ```
#[derive(Clone, PartialEq)]
pub struct CMat {
    rows: usize,
    cols: usize,
    data: Vec<C64>,
}

impl CMat {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CMat {
            rows,
            cols,
            data: vec![C64::ZERO; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = CMat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = C64::ONE;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[C64]]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "all rows must have the same length");
            data.extend_from_slice(r);
        }
        CMat {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Builds a `rows × cols` matrix by evaluating `f(r, c)` per entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> C64) -> Self {
        let mut m = CMat::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m[(r, c)] = f(r, c);
            }
        }
        m
    }

    /// Builds a square diagonal matrix from the given diagonal entries.
    pub fn diag(entries: &[C64]) -> Self {
        let n = entries.len();
        let mut m = CMat::zeros(n, n);
        for (i, &e) in entries.iter().enumerate() {
            m[(i, i)] = e;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// True when the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow of the underlying row-major entries.
    #[inline]
    pub fn as_slice(&self) -> &[C64] {
        &self.data
    }

    /// Checked entry access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> Option<&C64> {
        if r < self.rows && c < self.cols {
            Some(&self.data[r * self.cols + c])
        } else {
            None
        }
    }

    /// Matrix product `self · rhs`.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree; use [`CMat::try_mul`] for a
    /// fallible variant.
    pub fn mul(&self, rhs: &CMat) -> CMat {
        self.try_mul(rhs).expect("matrix product shape mismatch")
    }

    /// Fallible matrix product.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `self.cols() != rhs.rows()`.
    pub fn try_mul(&self, rhs: &CMat) -> Result<CMat, LinalgError> {
        if self.cols != rhs.rows {
            return Err(LinalgError::ShapeMismatch(
                self.rows, self.cols, rhs.rows, rhs.cols,
            ));
        }
        let mut out = CMat::zeros(self.rows, rhs.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[r * self.cols + k];
                if a == C64::ZERO {
                    continue;
                }
                for c in 0..rhs.cols {
                    out.data[r * rhs.cols + c] += a * rhs.data[k * rhs.cols + c];
                }
            }
        }
        Ok(out)
    }

    /// Matrix–vector product.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn mul_vec(&self, v: &[C64]) -> Vec<C64> {
        let mut out = vec![C64::ZERO; self.rows];
        self.mul_vec_into(v, &mut out);
        out
    }

    /// Matrix–vector product into a caller-owned buffer — the
    /// allocation-free form of [`CMat::mul_vec`] (bit-identical results)
    /// for hot loops that reuse `out`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()` or `out.len() != self.rows()`.
    pub fn mul_vec_into(&self, v: &[C64], out: &mut [C64]) {
        assert_eq!(v.len(), self.cols, "matrix-vector shape mismatch");
        assert_eq!(out.len(), self.rows, "output length mismatch");
        for (r, slot) in out.iter_mut().enumerate() {
            let mut acc = C64::ZERO;
            for (c, &vc) in v.iter().enumerate() {
                acc += self.data[r * self.cols + c] * vc;
            }
            *slot = acc;
        }
    }

    /// Entrywise sum.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&self, rhs: &CMat) -> CMat {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(&a, &b)| a + b)
            .collect();
        CMat {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Entrywise difference.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn sub(&self, rhs: &CMat) -> CMat {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(&a, &b)| a - b)
            .collect();
        CMat {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Scales every entry by `s`.
    pub fn scale(&self, s: C64) -> CMat {
        CMat {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&a| a * s).collect(),
        }
    }

    /// Applies `f` to every entry.
    pub fn map(&self, f: impl Fn(C64) -> C64) -> CMat {
        CMat {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&a| f(a)).collect(),
        }
    }

    /// Transpose (no conjugation).
    pub fn transpose(&self) -> CMat {
        CMat::from_fn(self.cols, self.rows, |r, c| self.data[c * self.cols + r])
    }

    /// Entrywise complex conjugate.
    pub fn conj(&self) -> CMat {
        self.map(C64::conj)
    }

    /// Conjugate transpose `A†`.
    pub fn adjoint(&self) -> CMat {
        CMat::from_fn(self.cols, self.rows, |r, c| {
            self.data[c * self.cols + r].conj()
        })
    }

    /// Trace of a square matrix.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> C64 {
        assert!(self.is_square(), "trace requires a square matrix");
        (0..self.rows).map(|i| self.data[i * self.cols + i]).sum()
    }

    /// Frobenius norm `sqrt(Σ |a_ij|²)`.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Maximum absolute column sum (operator 1-norm).
    pub fn one_norm(&self) -> f64 {
        (0..self.cols)
            .map(|c| {
                (0..self.rows)
                    .map(|r| self.data[r * self.cols + c].norm())
                    .sum()
            })
            .fold(0.0_f64, f64::max)
    }

    /// Maximum entry modulus.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().map(|a| a.norm()).fold(0.0_f64, f64::max)
    }

    /// Kronecker product `self ⊗ rhs`.
    ///
    /// ```
    /// use paradrive_linalg::{CMat, paulis};
    /// let xi = paulis::x().kron(&CMat::identity(2));
    /// assert_eq!(xi.rows(), 4);
    /// ```
    pub fn kron(&self, rhs: &CMat) -> CMat {
        let mut out = CMat::zeros(self.rows * rhs.rows, self.cols * rhs.cols);
        for r1 in 0..self.rows {
            for c1 in 0..self.cols {
                let a = self.data[r1 * self.cols + c1];
                if a == C64::ZERO {
                    continue;
                }
                for r2 in 0..rhs.rows {
                    for c2 in 0..rhs.cols {
                        out[(r1 * rhs.rows + r2, c1 * rhs.cols + c2)] =
                            a * rhs.data[r2 * rhs.cols + c2];
                    }
                }
            }
        }
        out
    }

    /// Determinant via LU decomposition with partial pivoting.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn det(&self) -> C64 {
        assert!(self.is_square(), "determinant requires a square matrix");
        let n = self.rows;
        let mut lu = self.data.clone();
        let mut det = C64::ONE;
        for k in 0..n {
            // Partial pivot on |entry|.
            let mut piv = k;
            let mut best = lu[k * n + k].norm();
            for r in (k + 1)..n {
                let v = lu[r * n + k].norm();
                if v > best {
                    best = v;
                    piv = r;
                }
            }
            if best == 0.0 {
                return C64::ZERO;
            }
            if piv != k {
                for c in 0..n {
                    lu.swap(k * n + c, piv * n + c);
                }
                det = -det;
            }
            let pivot = lu[k * n + k];
            det *= pivot;
            for r in (k + 1)..n {
                let factor = lu[r * n + k] / pivot;
                for c in k..n {
                    let sub = factor * lu[k * n + c];
                    lu[r * n + c] -= sub;
                }
            }
        }
        det
    }

    /// Inverse via Gauss–Jordan elimination with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for rectangular input and
    /// [`LinalgError::Singular`] when no pivot can be found.
    pub fn inverse(&self) -> Result<CMat, LinalgError> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare(self.rows, self.cols));
        }
        let n = self.rows;
        let mut a = self.clone();
        let mut inv = CMat::identity(n);
        for k in 0..n {
            let mut piv = k;
            let mut best = a[(k, k)].norm();
            for r in (k + 1)..n {
                if a[(r, k)].norm() > best {
                    best = a[(r, k)].norm();
                    piv = r;
                }
            }
            if best < 1e-300 {
                return Err(LinalgError::Singular);
            }
            if piv != k {
                for c in 0..n {
                    let t = a[(k, c)];
                    a[(k, c)] = a[(piv, c)];
                    a[(piv, c)] = t;
                    let t = inv[(k, c)];
                    inv[(k, c)] = inv[(piv, c)];
                    inv[(piv, c)] = t;
                }
            }
            let pivot = a[(k, k)];
            for c in 0..n {
                a[(k, c)] /= pivot;
                inv[(k, c)] /= pivot;
            }
            for r in 0..n {
                if r == k {
                    continue;
                }
                let factor = a[(r, k)];
                if factor == C64::ZERO {
                    continue;
                }
                for c in 0..n {
                    let s = factor * a[(k, c)];
                    a[(r, c)] -= s;
                    let s = factor * inv[(k, c)];
                    inv[(r, c)] -= s;
                }
            }
        }
        Ok(inv)
    }

    /// Integer matrix power by repeated squaring.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn powi(&self, mut p: u32) -> CMat {
        assert!(self.is_square(), "powi requires a square matrix");
        let mut result = CMat::identity(self.rows);
        let mut base = self.clone();
        while p > 0 {
            if p & 1 == 1 {
                result = result.mul(&base);
            }
            base = base.mul(&base);
            p >>= 1;
        }
        result
    }

    /// Approximate entrywise equality with tolerance `tol` on each entry's
    /// modulus of difference.
    pub fn approx_eq(&self, rhs: &CMat, tol: f64) -> bool {
        self.rows == rhs.rows
            && self.cols == rhs.cols
            && self
                .data
                .iter()
                .zip(&rhs.data)
                .all(|(&a, &b)| (a - b).norm() <= tol)
    }

    /// True when `A† A ≈ I` to tolerance `tol` (per entry).
    pub fn is_unitary(&self, tol: f64) -> bool {
        self.is_square()
            && self
                .adjoint()
                .mul(self)
                .approx_eq(&CMat::identity(self.rows), tol)
    }

    /// True when `A ≈ A†` to tolerance `tol` (per entry).
    pub fn is_hermitian(&self, tol: f64) -> bool {
        self.is_square() && self.approx_eq(&self.adjoint(), tol)
    }

    /// Hilbert–Schmidt inner product `tr(A† B)`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn hs_inner(&self, rhs: &CMat) -> C64 {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        self.data
            .iter()
            .zip(&rhs.data)
            .map(|(&a, &b)| a.conj() * b)
            .sum()
    }
}

/// Process fidelity between two unitaries of dimension `d`:
/// `|tr(U† V)|² / d²`. Equal to 1 iff `U` and `V` agree up to global phase.
///
/// # Panics
///
/// Panics on shape mismatch or non-square input.
///
/// ```
/// use paradrive_linalg::{CMat, mat::process_fidelity, paulis};
/// let f = process_fidelity(&paulis::x(), &paulis::x().scale(paradrive_linalg::C64::I));
/// assert!((f - 1.0).abs() < 1e-12);
/// ```
pub fn process_fidelity(u: &CMat, v: &CMat) -> f64 {
    assert!(u.is_square() && u.rows() == v.rows() && v.is_square());
    let d = u.rows() as f64;
    let t = u.hs_inner(v).norm();
    (t * t) / (d * d)
}

/// Average gate fidelity between two unitaries of dimension `d`:
/// `(d·F_pro + 1) / (d + 1)` where `F_pro` is [`process_fidelity`].
pub fn average_gate_fidelity(u: &CMat, v: &CMat) -> f64 {
    let d = u.rows() as f64;
    (d * process_fidelity(u, v) + 1.0) / (d + 1.0)
}

impl Index<(usize, usize)> for CMat {
    type Output = C64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &C64 {
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for CMat {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut C64 {
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for CMat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "CMat {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows {
            write!(f, "  ")?;
            for c in 0..self.cols {
                write!(f, "{} ", self[(r, c)])?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for CMat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl Add for &CMat {
    type Output = CMat;
    fn add(self, rhs: &CMat) -> CMat {
        CMat::add(self, rhs)
    }
}

impl Sub for &CMat {
    type Output = CMat;
    fn sub(self, rhs: &CMat) -> CMat {
        CMat::sub(self, rhs)
    }
}

impl Mul for &CMat {
    type Output = CMat;
    fn mul(self, rhs: &CMat) -> CMat {
        CMat::mul(self, rhs)
    }
}

impl Mul<C64> for &CMat {
    type Output = CMat;
    fn mul(self, rhs: C64) -> CMat {
        self.scale(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paulis;
    use proptest::prelude::*;

    const TOL: f64 = 1e-12;

    #[test]
    fn identity_is_multiplicative_identity() {
        let x = paulis::x();
        assert!(x.mul(&CMat::identity(2)).approx_eq(&x, TOL));
        assert!(CMat::identity(2).mul(&x).approx_eq(&x, TOL));
    }

    #[test]
    fn pauli_algebra() {
        let (x, y, z) = (paulis::x(), paulis::y(), paulis::z());
        // XY = iZ
        assert!(x.mul(&y).approx_eq(&z.scale(C64::I), TOL));
        // X² = I
        assert!(x.mul(&x).approx_eq(&CMat::identity(2), TOL));
        // {X, Z} = 0
        let anti = x.mul(&z).add(&z.mul(&x));
        assert!(anti.approx_eq(&CMat::zeros(2, 2), TOL));
    }

    #[test]
    fn try_mul_rejects_bad_shapes() {
        let a = CMat::zeros(2, 3);
        let b = CMat::zeros(2, 3);
        assert_eq!(
            a.try_mul(&b).unwrap_err(),
            LinalgError::ShapeMismatch(2, 3, 2, 3)
        );
    }

    #[test]
    fn kron_dimensions_and_structure() {
        let k = paulis::x().kron(&paulis::z());
        assert_eq!((k.rows(), k.cols()), (4, 4));
        // (X ⊗ Z)(X ⊗ Z) = I4
        assert!(k.mul(&k).approx_eq(&CMat::identity(4), TOL));
    }

    #[test]
    fn kron_mixed_product_property() {
        let a = paulis::h();
        let b = paulis::s();
        let lhs = a.kron(&b).mul(&a.adjoint().kron(&b.adjoint()));
        let rhs = a.mul(&a.adjoint()).kron(&b.mul(&b.adjoint()));
        assert!(lhs.approx_eq(&rhs, TOL));
    }

    #[test]
    fn det_of_known_matrices() {
        assert!(paulis::x().det().approx_eq(C64::real(-1.0), TOL));
        assert!(CMat::identity(4).det().approx_eq(C64::ONE, TOL));
        let m = CMat::from_rows(&[
            &[C64::real(2.0), C64::real(1.0)],
            &[C64::real(1.0), C64::real(2.0)],
        ]);
        assert!(m.det().approx_eq(C64::real(3.0), TOL));
    }

    #[test]
    fn det_singular_is_zero() {
        let m = CMat::from_rows(&[
            &[C64::real(1.0), C64::real(2.0)],
            &[C64::real(2.0), C64::real(4.0)],
        ]);
        assert!(m.det().norm() < TOL);
    }

    #[test]
    fn inverse_round_trip() {
        let m = CMat::from_rows(&[
            &[C64::new(1.0, 1.0), C64::real(2.0)],
            &[C64::real(0.5), C64::new(0.0, -3.0)],
        ]);
        let inv = m.inverse().unwrap();
        assert!(m.mul(&inv).approx_eq(&CMat::identity(2), 1e-10));
    }

    #[test]
    fn inverse_rejects_singular() {
        let m = CMat::zeros(3, 3);
        assert_eq!(m.inverse().unwrap_err(), LinalgError::Singular);
    }

    #[test]
    fn powi_matches_mul() {
        let h = paulis::h();
        assert!(h.powi(2).approx_eq(&CMat::identity(2), TOL));
        assert!(h.powi(0).approx_eq(&CMat::identity(2), TOL));
        assert!(h.powi(3).approx_eq(&h, TOL));
    }

    #[test]
    fn hermitian_and_unitary_predicates() {
        assert!(paulis::x().is_hermitian(TOL));
        assert!(paulis::x().is_unitary(TOL));
        assert!(paulis::s().is_unitary(TOL));
        assert!(!paulis::s().is_hermitian(TOL));
    }

    #[test]
    fn fidelity_phase_invariance() {
        let u = paulis::h();
        let v = u.scale(C64::cis(0.7));
        assert!((process_fidelity(&u, &v) - 1.0).abs() < TOL);
        assert!((average_gate_fidelity(&u, &v) - 1.0).abs() < TOL);
    }

    #[test]
    fn fidelity_orthogonal_gates() {
        // tr(X† Z) = 0.
        assert!(process_fidelity(&paulis::x(), &paulis::z()).abs() < TOL);
    }

    #[test]
    fn norms() {
        let m = paulis::x();
        assert!((m.frobenius_norm() - 2.0_f64.sqrt()).abs() < TOL);
        assert!((m.one_norm() - 1.0).abs() < TOL);
        assert!((m.max_abs() - 1.0).abs() < TOL);
    }

    fn small_mat(n: usize) -> impl Strategy<Value = CMat> {
        proptest::collection::vec((-2.0..2.0f64, -2.0..2.0f64), n * n).prop_map(move |v| {
            CMat::from_fn(n, n, |r, c| {
                let (re, im) = v[r * n + c];
                C64::new(re, im)
            })
        })
    }

    proptest! {
        #[test]
        fn prop_adjoint_involution(m in small_mat(3)) {
            prop_assert!(m.adjoint().adjoint().approx_eq(&m, 1e-12));
        }

        #[test]
        fn prop_trace_of_product_cyclic(a in small_mat(3), b in small_mat(3)) {
            let lhs = a.mul(&b).trace();
            let rhs = b.mul(&a).trace();
            prop_assert!(lhs.approx_eq(rhs, 1e-9));
        }

        #[test]
        fn prop_det_multiplicative(a in small_mat(3), b in small_mat(3)) {
            let lhs = a.mul(&b).det();
            let rhs = a.det() * b.det();
            prop_assert!(lhs.approx_eq(rhs, 1e-7 * (1.0 + rhs.norm())));
        }

        #[test]
        fn prop_kron_dims(a in small_mat(2), b in small_mat(3)) {
            let k = a.kron(&b);
            prop_assert_eq!(k.rows(), 6);
            prop_assert_eq!(k.cols(), 6);
        }
    }
}
