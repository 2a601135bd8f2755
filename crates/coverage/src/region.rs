//! Coverage sets: convex regions of the Weyl chamber reachable by a
//! decomposition template.
//!
//! Following the paper's Algorithm 2, the sampled coordinates are split at
//! the `c1 = π/2` plane into left and right clouds before hull construction
//! — local-equivalence geometry guarantees convexity only within each half.

use crate::hull::{ConvexRegion, Words, P3};
use paradrive_weyl::WeylPoint;
use std::f64::consts::{FRAC_PI_2, PI};

/// Volume of the canonical Weyl chamber tetrahedron, `π³/24`.
pub const CHAMBER_VOLUME: f64 = PI * PI * PI / 24.0;

/// The region of the chamber spanned by one template size `K`.
#[derive(Debug, Clone)]
pub struct CoverageSet {
    left: ConvexRegion,
    right: ConvexRegion,
    sample_count: usize,
}

impl CoverageSet {
    /// Builds the coverage set of a point cloud.
    pub fn from_points(points: &[WeylPoint]) -> Self {
        const MARGIN: f64 = 1e-9;
        let mut left: Vec<P3> = Vec::new();
        let mut right: Vec<P3> = Vec::new();
        for p in points {
            let arr = p.as_array();
            if p.c1 <= FRAC_PI_2 + MARGIN {
                left.push(arr);
            }
            if p.c1 >= FRAC_PI_2 - MARGIN {
                right.push(arr);
            }
        }
        CoverageSet {
            left: ConvexRegion::from_points(&left, 1e-7),
            right: ConvexRegion::from_points(&right, 1e-7),
            sample_count: points.len(),
        }
    }

    /// An empty coverage set.
    pub fn empty() -> Self {
        CoverageSet {
            left: ConvexRegion::Empty,
            right: ConvexRegion::Empty,
            sample_count: 0,
        }
    }

    /// True when the point lies in either half's region (within `tol`).
    pub fn contains(&self, p: WeylPoint, tol: f64) -> bool {
        let arr = p.as_array();
        self.left.contains(arr, tol) || self.right.contains(arr, tol)
    }

    /// Total 3-d volume of the region (left + right halves).
    pub fn volume(&self) -> f64 {
        self.left.volume() + self.right.volume()
    }

    /// The volume as a fraction of the full chamber.
    pub fn chamber_fraction(&self) -> f64 {
        (self.volume() / CHAMBER_VOLUME).min(1.0)
    }

    /// Number of sample points the set was built from.
    pub fn sample_count(&self) -> usize {
        self.sample_count
    }

    /// Largest affine dimension among the two halves (`None` when empty).
    pub fn affine_dim(&self) -> Option<usize> {
        match (self.left.affine_dim(), self.right.affine_dim()) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (Some(a), None) => Some(a),
            (None, Some(b)) => Some(b),
            (None, None) => None,
        }
    }

    fn encode(&self, out: &mut Vec<u64>) {
        out.push(self.sample_count as u64);
        self.left.encode(out);
        self.right.encode(out);
    }

    fn decode(words: &mut Words<'_>) -> Option<Self> {
        Some(CoverageSet {
            sample_count: words.usize()?,
            left: ConvexRegion::decode(words)?,
            right: ConvexRegion::decode(words)?,
        })
    }
}

/// A per-`K` stack of coverage sets for one basis gate.
#[derive(Debug, Clone)]
pub struct CoverageStack {
    name: String,
    basis_point: WeylPoint,
    sets: Vec<CoverageSet>,
}

impl CoverageStack {
    /// Creates a stack from per-`K` sets (`sets[0]` is `K = 1`).
    pub fn new(name: impl Into<String>, basis_point: WeylPoint, sets: Vec<CoverageSet>) -> Self {
        CoverageStack {
            name: name.into(),
            basis_point,
            sets,
        }
    }

    /// The stack's coverage sets as flat words: the set count, then per
    /// `K` the sample count and both halves' regions, every float as its
    /// [`f64::to_bits`] and every polytope face as stored. The name and
    /// basis point are not included; [`CoverageStack::decode`] takes them
    /// as arguments.
    pub fn encode(&self) -> Vec<u64> {
        let mut out = vec![self.sets.len() as u64];
        for set in &self.sets {
            set.encode(&mut out);
        }
        out
    }

    /// Rebuilds a stack from the words of [`CoverageStack::encode`]
    /// without recomputing any hull, so `contains`, `volume`,
    /// `sample_count` and `affine_dim` read the encoded stack's bits.
    /// `None` unless `words` is exactly one encoding.
    pub fn decode(name: impl Into<String>, basis_point: WeylPoint, words: &[u64]) -> Option<Self> {
        let mut words = Words::new(words);
        let sets = (0..words.usize()?)
            .map(|_| CoverageSet::decode(&mut words))
            .collect::<Option<_>>()?;
        words
            .is_done()
            .then(|| CoverageStack::new(name, basis_point, sets))
    }

    /// The basis-gate name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The basis gate's chamber point.
    pub fn basis_point(&self) -> WeylPoint {
        self.basis_point
    }

    /// The largest template size available.
    pub fn max_k(&self) -> usize {
        self.sets.len()
    }

    /// The coverage set for template size `k` (1-based).
    ///
    /// # Panics
    ///
    /// Panics when `k` is zero or exceeds [`CoverageStack::max_k`].
    pub fn set(&self, k: usize) -> &CoverageSet {
        assert!(k >= 1 && k <= self.sets.len(), "k out of range");
        &self.sets[k - 1]
    }

    /// The smallest `K` whose region contains the target, if any.
    pub fn min_k(&self, target: WeylPoint, tol: f64) -> Option<usize> {
        (1..=self.sets.len()).find(|&k| self.set(k).contains(target, tol))
    }

    /// Merges another stack (e.g. verified exterior points) by unioning the
    /// per-`K` containment: `min_k` over the joint stack.
    pub fn min_k_joint(&self, other: &CoverageStack, target: WeylPoint, tol: f64) -> Option<usize> {
        let a = self.min_k(target, tol);
        let b = other.min_k(target, tol);
        match (a, b) {
            (Some(x), Some(y)) => Some(x.min(y)),
            (Some(x), None) => Some(x),
            (None, Some(y)) => Some(y),
            (None, None) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_plane_cloud() -> Vec<WeylPoint> {
        // A triangle covering the folded base plane: I, CNOT, iSWAP.
        let mut pts = vec![WeylPoint::IDENTITY, WeylPoint::CNOT, WeylPoint::ISWAP];
        // Fill interior.
        for i in 0..10 {
            for j in 0..=i {
                let c1 = FRAC_PI_2 * i as f64 / 10.0;
                let c2 = c1 * j as f64 / (i.max(1)) as f64;
                pts.push(WeylPoint::new(c1, c2, 0.0));
            }
        }
        pts
    }

    #[test]
    fn base_plane_coverage_is_2d() {
        let set = CoverageSet::from_points(&base_plane_cloud());
        assert_eq!(set.affine_dim(), Some(2));
        assert_eq!(set.volume(), 0.0);
        assert!(set.contains(WeylPoint::SQRT_ISWAP, 1e-6));
        assert!(set.contains(WeylPoint::CNOT, 1e-6));
        assert!(!set.contains(WeylPoint::SWAP, 1e-3));
        assert!(!set.contains(WeylPoint::SQRT_SWAP, 1e-3));
    }

    #[test]
    fn full_chamber_coverage() {
        // Vertices of the chamber (left & right) plus interior points.
        let pts = vec![
            WeylPoint::IDENTITY,
            WeylPoint::new(PI, 0.0, 0.0),
            WeylPoint::CNOT,
            WeylPoint::ISWAP,
            WeylPoint::SWAP,
            WeylPoint::new(FRAC_PI_2, FRAC_PI_2 / 2.0, FRAC_PI_2 / 4.0),
            WeylPoint::new(FRAC_PI_2 * 0.9, FRAC_PI_2 * 0.5, FRAC_PI_2 * 0.2),
            WeylPoint::new(FRAC_PI_2 * 1.1, FRAC_PI_2 * 0.5, FRAC_PI_2 * 0.2),
            WeylPoint::SQRT_SWAP,
            WeylPoint::new(PI - 0.78, 0.78, 0.7),
        ];
        let set = CoverageSet::from_points(&pts);
        assert_eq!(set.affine_dim(), Some(3));
        assert!(set.volume() > 0.0);
        // The chamber fraction is capped at 1.
        assert!(set.chamber_fraction() <= 1.0);
        assert!(set.contains(WeylPoint::B, 1e-6));
    }

    #[test]
    fn empty_set() {
        let set = CoverageSet::empty();
        assert_eq!(set.affine_dim(), None);
        assert!(!set.contains(WeylPoint::IDENTITY, 1.0));
    }

    #[test]
    fn stack_min_k() {
        let k1 = CoverageSet::from_points(&[WeylPoint::SQRT_ISWAP]);
        let k2 = CoverageSet::from_points(&base_plane_cloud());
        let stack = CoverageStack::new("test", WeylPoint::SQRT_ISWAP, vec![k1, k2]);
        assert_eq!(stack.min_k(WeylPoint::SQRT_ISWAP, 1e-6), Some(1));
        assert_eq!(stack.min_k(WeylPoint::CNOT, 1e-6), Some(2));
        assert_eq!(stack.min_k(WeylPoint::SWAP, 1e-6), None);
        assert_eq!(stack.max_k(), 2);
        // The word encoding round-trips, and only a whole encoding decodes.
        let words = stack.encode();
        let back = CoverageStack::decode("test", WeylPoint::SQRT_ISWAP, &words).unwrap();
        assert_eq!(back.encode(), words);
        assert_eq!(back.min_k(WeylPoint::CNOT, 1e-6), Some(2));
        assert_eq!(back.set(2).sample_count(), stack.set(2).sample_count());
        let decode = |w: &[u64]| CoverageStack::decode("test", WeylPoint::SQRT_ISWAP, w);
        assert!(decode(&words[..words.len() - 1]).is_none());
        assert!(decode(&[words.as_slice(), &[0]].concat()).is_none());
    }

    #[test]
    fn joint_min_k_takes_minimum() {
        let a = CoverageStack::new(
            "a",
            WeylPoint::ISWAP,
            vec![CoverageSet::from_points(&[WeylPoint::ISWAP])],
        );
        let b = CoverageStack::new(
            "b",
            WeylPoint::ISWAP,
            vec![CoverageSet::from_points(&[WeylPoint::CNOT])],
        );
        assert_eq!(a.min_k_joint(&b, WeylPoint::CNOT, 1e-6), Some(1));
        assert_eq!(a.min_k_joint(&b, WeylPoint::ISWAP, 1e-6), Some(1));
        assert_eq!(a.min_k_joint(&b, WeylPoint::SWAP, 1e-6), None);
    }
}
