//! Convex regions of arbitrary affine dimension in 3-space.
//!
//! Coverage sets of decomposition templates are convex in Weyl-chamber
//! coordinates (monodromy-polytope theory), but their affine dimension
//! varies: a `K = 1` template without parallel drive covers a single point,
//! `K = 2` iSWAP covers the 2-d base plane, and parallel-driven templates
//! cover full 3-d polytopes. [`ConvexRegion`] detects the dimension and
//! dispatches to the right hull construction, mirroring the paper's use of
//! `lrs` convex hulls in Algorithm 2.

/// A 3-vector alias used throughout the hull code.
pub type P3 = [f64; 3];

fn sub(a: P3, b: P3) -> P3 {
    [a[0] - b[0], a[1] - b[1], a[2] - b[2]]
}

fn dot(a: P3, b: P3) -> f64 {
    a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
}

fn cross(a: P3, b: P3) -> P3 {
    [
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ]
}

fn norm(a: P3) -> f64 {
    dot(a, a).sqrt()
}

fn scale(a: P3, s: f64) -> P3 {
    [a[0] * s, a[1] * s, a[2] * s]
}

/// A convex region spanned by a point cloud, of whatever affine dimension
/// the cloud actually has.
#[derive(Debug, Clone)]
pub enum ConvexRegion {
    /// No points at all.
    Empty,
    /// All points coincide.
    Point(P3),
    /// All points lie on a line segment.
    Segment {
        /// Base point of the segment.
        origin: P3,
        /// Unit direction.
        dir: P3,
        /// Parameter range along `dir`.
        t_range: (f64, f64),
    },
    /// All points lie in a plane; the convex polygon is stored in an
    /// orthonormal 2-d frame of that plane.
    Polygon {
        /// A point in the plane.
        origin: P3,
        /// First in-plane unit axis.
        u: P3,
        /// Second in-plane unit axis.
        v: P3,
        /// Counter-clockwise polygon vertices in `(u, v)` coordinates.
        verts: Vec<[f64; 2]>,
    },
    /// A full-dimensional convex polytope.
    Polytope(Hull3),
}

impl ConvexRegion {
    /// Builds the convex region of a point cloud. `tol` controls the
    /// degeneracy detection (distances below `tol` count as zero).
    pub fn from_points(points: &[P3], tol: f64) -> Self {
        if points.is_empty() {
            return ConvexRegion::Empty;
        }
        let p0 = points[0];

        // Affine basis by greedy Gram–Schmidt.
        let mut basis: Vec<P3> = Vec::new();
        for &p in points {
            let mut d = sub(p, p0);
            for b in &basis {
                let proj = dot(d, *b);
                d = sub(d, scale(*b, proj));
            }
            let len = norm(d);
            if len > tol {
                basis.push(scale(d, 1.0 / len));
                if basis.len() == 3 {
                    break;
                }
            }
        }

        match basis.len() {
            0 => ConvexRegion::Point(p0),
            1 => {
                let dir = basis[0];
                let mut lo = f64::INFINITY;
                let mut hi = f64::NEG_INFINITY;
                for &p in points {
                    let t = dot(sub(p, p0), dir);
                    lo = lo.min(t);
                    hi = hi.max(t);
                }
                ConvexRegion::Segment {
                    origin: p0,
                    dir,
                    t_range: (lo, hi),
                }
            }
            2 => {
                let (u, v) = (basis[0], basis[1]);
                let pts2: Vec<[f64; 2]> = points
                    .iter()
                    .map(|&p| {
                        let d = sub(p, p0);
                        [dot(d, u), dot(d, v)]
                    })
                    .collect();
                let verts = hull_2d(&pts2);
                ConvexRegion::Polygon {
                    origin: p0,
                    u,
                    v,
                    verts,
                }
            }
            _ => match Hull3::build(points) {
                Some(h) => ConvexRegion::Polytope(h),
                // Numerically three-dimensional but too thin to seed a
                // tetrahedron — fall back to a planar treatment.
                None => {
                    let (u, v) = (basis[0], basis[1]);
                    let pts2: Vec<[f64; 2]> = points
                        .iter()
                        .map(|&p| {
                            let d = sub(p, p0);
                            [dot(d, u), dot(d, v)]
                        })
                        .collect();
                    ConvexRegion::Polygon {
                        origin: p0,
                        u,
                        v,
                        verts: hull_2d(&pts2),
                    }
                }
            },
        }
    }

    /// The affine dimension of the region (0–3), or `None` when empty.
    pub fn affine_dim(&self) -> Option<usize> {
        match self {
            ConvexRegion::Empty => None,
            ConvexRegion::Point(_) => Some(0),
            ConvexRegion::Segment { .. } => Some(1),
            ConvexRegion::Polygon { .. } => Some(2),
            ConvexRegion::Polytope(_) => Some(3),
        }
    }

    /// True when `p` lies inside (or within `tol` of) the region.
    pub fn contains(&self, p: P3, tol: f64) -> bool {
        match self {
            ConvexRegion::Empty => false,
            ConvexRegion::Point(q) => norm(sub(p, *q)) <= tol,
            ConvexRegion::Segment {
                origin,
                dir,
                t_range,
            } => {
                let d = sub(p, *origin);
                let t = dot(d, *dir);
                let perp = sub(d, scale(*dir, t));
                norm(perp) <= tol && t >= t_range.0 - tol && t <= t_range.1 + tol
            }
            ConvexRegion::Polygon {
                origin,
                u,
                v,
                verts,
            } => {
                let d = sub(p, *origin);
                let x = dot(d, *u);
                let y = dot(d, *v);
                let off_plane = norm(sub(sub(d, scale(*u, x)), scale(*v, y)));
                off_plane <= tol && point_in_polygon(&[x, y], verts, tol)
            }
            ConvexRegion::Polytope(h) => h.contains(p, tol),
        }
    }

    /// Full 3-d volume (zero for lower-dimensional regions).
    pub fn volume(&self) -> f64 {
        match self {
            ConvexRegion::Polytope(h) => h.volume(),
            _ => 0.0,
        }
    }

    /// Area of the planar hull (zero unless the region is a polygon).
    pub fn area(&self) -> f64 {
        match self {
            ConvexRegion::Polygon { verts, .. } => polygon_area(verts),
            ConvexRegion::Polytope(_) => 0.0,
            _ => 0.0,
        }
    }

    /// Appends the region's word encoding to `out`: a shape tag, then
    /// every field in declaration order, floats as [`f64::to_bits`] and
    /// lengths as plain words. A polytope stores its interior point and
    /// each face's vertices, normal and offset, so decoding recomputes
    /// nothing.
    pub(crate) fn encode(&self, out: &mut Vec<u64>) {
        fn put(out: &mut Vec<u64>, xs: &[f64]) {
            out.extend(xs.iter().map(|x| x.to_bits()));
        }
        match self {
            ConvexRegion::Empty => out.push(TAG_EMPTY),
            ConvexRegion::Point(p) => {
                out.push(TAG_POINT);
                put(out, p);
            }
            ConvexRegion::Segment {
                origin,
                dir,
                t_range,
            } => {
                out.push(TAG_SEGMENT);
                put(out, origin);
                put(out, dir);
                put(out, &[t_range.0, t_range.1]);
            }
            ConvexRegion::Polygon {
                origin,
                u,
                v,
                verts,
            } => {
                out.push(TAG_POLYGON);
                put(out, origin);
                put(out, u);
                put(out, v);
                out.push(verts.len() as u64);
                put(out, verts.as_flattened());
            }
            ConvexRegion::Polytope(h) => {
                out.push(TAG_POLYTOPE);
                put(out, &h.interior);
                out.push(h.faces.len() as u64);
                for f in &h.faces {
                    put(out, f.verts.as_flattened());
                    put(out, &f.normal);
                    put(out, &[f.offset]);
                }
            }
        }
    }

    /// Reads one region written by [`ConvexRegion::encode`] off the front
    /// of `words`; `None` when the words run out or the tag is unknown.
    pub(crate) fn decode(words: &mut Words<'_>) -> Option<Self> {
        let tag = words.word()?;
        Some(match tag {
            TAG_EMPTY => ConvexRegion::Empty,
            TAG_POINT => ConvexRegion::Point(words.p3()?),
            TAG_SEGMENT => ConvexRegion::Segment {
                origin: words.p3()?,
                dir: words.p3()?,
                t_range: (words.f64()?, words.f64()?),
            },
            TAG_POLYGON => ConvexRegion::Polygon {
                origin: words.p3()?,
                u: words.p3()?,
                v: words.p3()?,
                verts: (0..words.usize()?)
                    .map(|_| Some([words.f64()?, words.f64()?]))
                    .collect::<Option<_>>()?,
            },
            TAG_POLYTOPE => {
                let interior = words.p3()?;
                let faces = (0..words.usize()?)
                    .map(|_| {
                        Some(Face {
                            verts: [words.p3()?, words.p3()?, words.p3()?],
                            normal: words.p3()?,
                            offset: words.f64()?,
                        })
                    })
                    .collect::<Option<_>>()?;
                ConvexRegion::Polytope(Hull3 { faces, interior })
            }
            _ => return None,
        })
    }
}

/// Shape tags of the word encoding, in [`ConvexRegion`] variant order.
const TAG_EMPTY: u64 = 0;
const TAG_POINT: u64 = 1;
const TAG_SEGMENT: u64 = 2;
const TAG_POLYGON: u64 = 3;
const TAG_POLYTOPE: u64 = 4;

/// A read cursor over a word encoding; every read is `None` once the
/// words run out.
pub(crate) struct Words<'a>(std::slice::Iter<'a, u64>);

impl<'a> Words<'a> {
    pub(crate) fn new(words: &'a [u64]) -> Self {
        Words(words.iter())
    }

    fn word(&mut self) -> Option<u64> {
        self.0.next().copied()
    }

    /// A length or count word.
    pub(crate) fn usize(&mut self) -> Option<usize> {
        usize::try_from(self.word()?).ok()
    }

    fn f64(&mut self) -> Option<f64> {
        self.word().map(f64::from_bits)
    }

    fn p3(&mut self) -> Option<P3> {
        Some([self.f64()?, self.f64()?, self.f64()?])
    }

    /// True once every word has been read.
    pub(crate) fn is_done(&self) -> bool {
        self.0.len() == 0
    }
}

/// Andrew's monotone-chain 2-d convex hull; returns CCW vertices.
fn hull_2d(points: &[[f64; 2]]) -> Vec<[f64; 2]> {
    let mut pts = points.to_vec();
    pts.sort_by(|a, b| a[0].total_cmp(&b[0]).then(a[1].total_cmp(&b[1])));
    pts.dedup_by(|a, b| (a[0] - b[0]).abs() < 1e-15 && (a[1] - b[1]).abs() < 1e-15);
    let n = pts.len();
    if n <= 2 {
        return pts;
    }
    let cross2 = |o: [f64; 2], a: [f64; 2], b: [f64; 2]| -> f64 {
        (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
    };
    let mut lower: Vec<[f64; 2]> = Vec::new();
    for &p in &pts {
        while lower.len() >= 2 && cross2(lower[lower.len() - 2], lower[lower.len() - 1], p) <= 0.0 {
            lower.pop();
        }
        lower.push(p);
    }
    let mut upper: Vec<[f64; 2]> = Vec::new();
    for &p in pts.iter().rev() {
        while upper.len() >= 2 && cross2(upper[upper.len() - 2], upper[upper.len() - 1], p) <= 0.0 {
            upper.pop();
        }
        upper.push(p);
    }
    lower.pop();
    upper.pop();
    lower.extend(upper);
    lower
}

/// Point-in-convex-polygon with tolerance (vertices CCW).
fn point_in_polygon(p: &[f64; 2], verts: &[[f64; 2]], tol: f64) -> bool {
    let n = verts.len();
    if n == 0 {
        return false;
    }
    if n == 1 {
        return ((p[0] - verts[0][0]).powi(2) + (p[1] - verts[0][1]).powi(2)).sqrt() <= tol;
    }
    if n == 2 {
        // Segment containment.
        let (a, b) = (verts[0], verts[1]);
        let ab = [b[0] - a[0], b[1] - a[1]];
        let len = (ab[0] * ab[0] + ab[1] * ab[1]).sqrt();
        if len < 1e-15 {
            return ((p[0] - a[0]).powi(2) + (p[1] - a[1]).powi(2)).sqrt() <= tol;
        }
        let t = ((p[0] - a[0]) * ab[0] + (p[1] - a[1]) * ab[1]) / (len * len);
        let proj = [a[0] + t * ab[0], a[1] + t * ab[1]];
        let d = ((p[0] - proj[0]).powi(2) + (p[1] - proj[1]).powi(2)).sqrt();
        d <= tol && (-tol / len..=1.0 + tol / len).contains(&t)
    } else {
        for i in 0..n {
            let a = verts[i];
            let b = verts[(i + 1) % n];
            let edge = [b[0] - a[0], b[1] - a[1]];
            let elen = (edge[0] * edge[0] + edge[1] * edge[1]).sqrt().max(1e-15);
            let crossv = edge[0] * (p[1] - a[1]) - edge[1] * (p[0] - a[0]);
            if crossv < -tol * elen {
                return false;
            }
        }
        true
    }
}

/// Signed area of a CCW polygon.
fn polygon_area(verts: &[[f64; 2]]) -> f64 {
    let n = verts.len();
    if n < 3 {
        return 0.0;
    }
    let mut acc = 0.0;
    for i in 0..n {
        let a = verts[i];
        let b = verts[(i + 1) % n];
        acc += a[0] * b[1] - b[0] * a[1];
    }
    acc.abs() / 2.0
}

/// A full-dimensional 3-d convex hull built incrementally.
#[derive(Debug, Clone)]
pub struct Hull3 {
    faces: Vec<Face>,
    interior: P3,
}

#[derive(Debug, Clone, Copy)]
struct Face {
    verts: [P3; 3],
    normal: P3,
    offset: f64,
}

impl Face {
    fn new(a: P3, b: P3, c: P3, interior: P3) -> Option<Face> {
        let n = cross(sub(b, a), sub(c, a));
        let len = norm(n);
        if len < 1e-14 {
            return None;
        }
        let mut normal = scale(n, 1.0 / len);
        let mut offset = dot(normal, a);
        // Point the normal away from the interior reference.
        if dot(normal, interior) > offset {
            normal = scale(normal, -1.0);
            offset = -offset;
        }
        Some(Face {
            verts: [a, b, c],
            normal,
            offset,
        })
    }

    fn signed_dist(&self, p: P3) -> f64 {
        dot(self.normal, p) - self.offset
    }
}

impl Hull3 {
    /// Builds the hull; returns `None` when the cloud is (numerically)
    /// lower-dimensional.
    pub fn build(points: &[P3]) -> Option<Hull3> {
        if points.len() < 4 {
            return None;
        }
        // Seed tetrahedron: extreme pair, then farthest from line, then
        // farthest from plane.
        let (mut i0, mut i1, mut best) = (0, 0, -1.0);
        for d in 0..3 {
            let lo = (0..points.len())
                .min_by(|&a, &b| points[a][d].total_cmp(&points[b][d]))
                .unwrap();
            let hi = (0..points.len())
                .max_by(|&a, &b| points[a][d].total_cmp(&points[b][d]))
                .unwrap();
            let dist = norm(sub(points[hi], points[lo]));
            if dist > best {
                best = dist;
                i0 = lo;
                i1 = hi;
            }
        }
        if best < 1e-12 {
            return None;
        }
        let dir = scale(sub(points[i1], points[i0]), 1.0 / best);
        let i2 = (0..points.len()).max_by(|&a, &b| {
            let da = sub(points[a], points[i0]);
            let db = sub(points[b], points[i0]);
            let pa = norm(sub(da, scale(dir, dot(da, dir))));
            let pb = norm(sub(db, scale(dir, dot(db, dir))));
            pa.total_cmp(&pb)
        })?;
        let d2 = sub(points[i2], points[i0]);
        if norm(sub(d2, scale(dir, dot(d2, dir)))) < 1e-10 {
            return None;
        }
        let plane_n = cross(sub(points[i1], points[i0]), d2);
        let plane_n = scale(plane_n, 1.0 / norm(plane_n));
        let i3 = (0..points.len()).max_by(|&a, &b| {
            let da = dot(sub(points[a], points[i0]), plane_n).abs();
            let db = dot(sub(points[b], points[i0]), plane_n).abs();
            da.total_cmp(&db)
        })?;
        if dot(sub(points[i3], points[i0]), plane_n).abs() < 1e-10 {
            return None;
        }

        let seed = [points[i0], points[i1], points[i2], points[i3]];
        let interior = [
            (seed[0][0] + seed[1][0] + seed[2][0] + seed[3][0]) / 4.0,
            (seed[0][1] + seed[1][1] + seed[2][1] + seed[3][1]) / 4.0,
            (seed[0][2] + seed[1][2] + seed[2][2] + seed[3][2]) / 4.0,
        ];
        let mut faces = Vec::new();
        for (a, b, c) in [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)] {
            faces.push(Face::new(seed[a], seed[b], seed[c], interior)?);
        }
        let mut hull = Hull3 { faces, interior };

        for (idx, &p) in points.iter().enumerate() {
            if idx == i0 || idx == i1 || idx == i2 || idx == i3 {
                continue;
            }
            hull.add_point(p);
        }
        Some(hull)
    }

    /// Incrementally adds a point, expanding the hull if it is outside.
    pub fn add_point(&mut self, p: P3) {
        const EPS: f64 = 1e-10;
        let visible: Vec<usize> = (0..self.faces.len())
            .filter(|&i| self.faces[i].signed_dist(p) > EPS)
            .collect();
        if visible.is_empty() {
            return;
        }
        // Horizon edges: edges of visible faces shared with no other
        // visible face. Key edges by quantized endpoints.
        let key = |a: P3, b: P3| -> String {
            let q = |v: P3| format!("{:.10}:{:.10}:{:.10}", v[0], v[1], v[2]);
            let (ka, kb) = (q(a), q(b));
            if ka < kb {
                format!("{ka}|{kb}")
            } else {
                format!("{kb}|{ka}")
            }
        };
        // A sorted map, so the new faces are pushed in the same order on
        // every build: `volume()` sums in face order, and the encoding
        // lists faces in it.
        let mut edge_count: std::collections::BTreeMap<String, (P3, P3, usize)> =
            std::collections::BTreeMap::new();
        for &fi in &visible {
            let f = &self.faces[fi];
            for (a, b) in [(0, 1), (1, 2), (2, 0)] {
                let e = edge_count
                    .entry(key(f.verts[a], f.verts[b]))
                    .or_insert((f.verts[a], f.verts[b], 0));
                e.2 += 1;
            }
        }
        // Remove visible faces (descending index).
        let mut vis_sorted = visible.clone();
        vis_sorted.sort_unstable_by(|a, b| b.cmp(a));
        for fi in vis_sorted {
            self.faces.swap_remove(fi);
        }
        // New faces from horizon edges to p.
        for (_, (a, b, count)) in edge_count {
            if count == 1 {
                if let Some(f) = Face::new(a, b, p, self.interior) {
                    self.faces.push(f);
                }
            }
        }
    }

    /// True when `p` is inside the hull (within `tol` of every face plane).
    pub fn contains(&self, p: P3, tol: f64) -> bool {
        self.faces.iter().all(|f| f.signed_dist(p) <= tol)
    }

    /// Hull volume by summing signed tetrahedra against the interior point.
    pub fn volume(&self) -> f64 {
        let mut acc = 0.0;
        for f in &self.faces {
            let a = sub(f.verts[0], self.interior);
            let b = sub(f.verts[1], self.interior);
            let c = sub(f.verts[2], self.interior);
            acc += dot(a, cross(b, c)).abs() / 6.0;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Asserts that `region` decodes from its encoding to the same bits:
    /// re-encoding gives the same words, and `contains` (at `probes`),
    /// `volume`, `area` and `affine_dim` answer identically.
    fn assert_round_trips(region: &ConvexRegion, probes: &[P3]) {
        let mut words = Vec::new();
        region.encode(&mut words);
        let mut cursor = Words::new(&words);
        let back = ConvexRegion::decode(&mut cursor).expect("an encoding decodes");
        assert!(cursor.is_done(), "decode left words unread");
        let mut again = Vec::new();
        back.encode(&mut again);
        assert_eq!(again, words, "re-encoding changed the words");
        assert_eq!(back.affine_dim(), region.affine_dim());
        assert_eq!(back.volume().to_bits(), region.volume().to_bits());
        assert_eq!(back.area().to_bits(), region.area().to_bits());
        for &p in probes {
            for tol in [0.0, 1e-9, 1e-6, 1e-3] {
                assert_eq!(
                    back.contains(p, tol),
                    region.contains(p, tol),
                    "{p:?} at {tol}"
                );
            }
        }
    }

    /// `n` random points on the unit sphere.
    fn sphere_cloud(seed: u64, n: usize) -> Vec<P3> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let z: f64 = rng.gen_range(-1.0..1.0);
                let phi: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
                let r = (1.0 - z * z).sqrt();
                [r * phi.cos(), r * phi.sin(), z]
            })
            .collect()
    }

    #[test]
    fn unit_cube_hull() {
        let mut pts = Vec::new();
        for x in [0.0, 1.0] {
            for y in [0.0, 1.0] {
                for z in [0.0, 1.0] {
                    pts.push([x, y, z]);
                }
            }
        }
        // A few interior points must not change anything.
        pts.push([0.5, 0.5, 0.5]);
        pts.push([0.2, 0.7, 0.9]);
        let region = ConvexRegion::from_points(&pts, 1e-9);
        assert_eq!(region.affine_dim(), Some(3));
        assert!(
            (region.volume() - 1.0).abs() < 1e-9,
            "volume {}",
            region.volume()
        );
        assert!(region.contains([0.5, 0.5, 0.5], 1e-9));
        assert!(region.contains([0.0, 0.0, 0.0], 1e-9));
        assert!(!region.contains([1.2, 0.5, 0.5], 1e-9));
        assert!(!region.contains([-0.1, 0.5, 0.5], 1e-9));
        pts.extend([[1.2, 0.5, 0.5], [-0.1, 0.5, 0.5], [1.0 + 1e-8, 0.5, 0.5]]);
        assert_round_trips(&region, &pts);
    }

    #[test]
    fn tetrahedron_volume() {
        let pts = vec![
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
        ];
        let region = ConvexRegion::from_points(&pts, 1e-9);
        assert!((region.volume() - 1.0 / 6.0).abs() < 1e-12);
        assert_round_trips(
            &region,
            &[[0.2, 0.2, 0.2], [0.4, 0.4, 0.4], [-1e-7, 0.0, 0.0]],
        );
    }

    #[test]
    fn planar_cloud_is_polygon() {
        let pts = vec![
            [0.0, 0.0, 0.5],
            [1.0, 0.0, 0.5],
            [1.0, 1.0, 0.5],
            [0.0, 1.0, 0.5],
            [0.5, 0.5, 0.5],
        ];
        let region = ConvexRegion::from_points(&pts, 1e-9);
        assert_eq!(region.affine_dim(), Some(2));
        assert!((region.area() - 1.0).abs() < 1e-9);
        assert!(region.contains([0.5, 0.5, 0.5], 1e-6));
        assert!(!region.contains([0.5, 0.5, 0.7], 1e-6)); // off the plane
        assert!(!region.contains([1.5, 0.5, 0.5], 1e-6)); // outside in-plane
        let mut probes = pts.clone();
        probes.extend([[0.5, 0.5, 0.7], [1.5, 0.5, 0.5], [1.0, 1.0, 0.5 + 1e-7]]);
        assert_round_trips(&region, &probes);
    }

    #[test]
    fn collinear_cloud_is_segment() {
        let pts = vec![[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0.5, 0.5, 0.5]];
        let region = ConvexRegion::from_points(&pts, 1e-9);
        assert_eq!(region.affine_dim(), Some(1));
        assert!(region.contains([0.25, 0.25, 0.25], 1e-6));
        assert!(!region.contains([1.5, 1.5, 1.5], 1e-6));
        assert!(!region.contains([0.5, 0.5, 0.6], 1e-6));
        let mut probes = pts.clone();
        probes.extend([[0.25; 3], [1.5; 3], [0.5, 0.5, 0.6], [1.0 + 1e-7; 3]]);
        assert_round_trips(&region, &probes);
    }

    #[test]
    fn coincident_cloud_is_point() {
        let pts = vec![[0.3, 0.2, 0.1]; 5];
        let region = ConvexRegion::from_points(&pts, 1e-9);
        assert_eq!(region.affine_dim(), Some(0));
        assert!(region.contains([0.3, 0.2, 0.1], 1e-9));
        assert!(!region.contains([0.4, 0.2, 0.1], 1e-3));
        assert_round_trips(
            &region,
            &[[0.3, 0.2, 0.1], [0.4, 0.2, 0.1], [0.3, 0.2, 0.1 + 1e-7]],
        );
    }

    #[test]
    fn empty_cloud() {
        let region = ConvexRegion::from_points(&[], 1e-9);
        assert_eq!(region.affine_dim(), None);
        assert!(!region.contains([0.0; 3], 1.0));
        assert_eq!(region.volume(), 0.0);
        assert_round_trips(&region, &[[0.0; 3]]);
    }

    #[test]
    fn random_sphere_hull_volume() {
        // Hull of many random points on a unit sphere approaches 4π/3.
        let pts = sphere_cloud(11, 600);
        let region = ConvexRegion::from_points(&pts, 1e-9);
        let v = region.volume();
        let ball = 4.0 * std::f64::consts::PI / 3.0;
        assert!(v > 0.9 * ball && v <= ball + 1e-9, "volume {v} vs {ball}");
        assert_round_trips(&region, &pts);
    }

    #[test]
    fn hull_face_order_is_deterministic() {
        // `volume()` sums in face order, and the encoding lists faces in
        // it, so repeated builds of one cloud must order faces alike; a
        // horizon-edge map seeded per instance reordered them every build.
        let pts = sphere_cloud(11, 600);
        let build = || {
            let region = ConvexRegion::from_points(&pts, 1e-9);
            let mut words = Vec::new();
            region.encode(&mut words);
            (words, region.volume().to_bits())
        };
        let (first, first_volume) = build();
        for attempt in 1..8 {
            let (words, volume) = build();
            let moved = words.iter().zip(&first).filter(|(a, b)| a != b).count();
            assert_eq!(
                (words.len(), moved),
                (first.len(), 0),
                "build {attempt} encoded differently"
            );
            assert_eq!(volume, first_volume, "build {attempt} summed differently");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_hull_contains_inputs(seed in 0u64..1000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let pts: Vec<P3> = (0..40)
                .map(|_| [rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)])
                .collect();
            let region = ConvexRegion::from_points(&pts, 1e-9);
            for &p in &pts {
                prop_assert!(region.contains(p, 1e-7), "input point escaped hull");
            }
            assert_round_trips(&region, &pts);
        }

        #[test]
        fn prop_hull_contains_convex_combos(seed in 0u64..500) {
            let mut rng = StdRng::seed_from_u64(seed);
            let pts: Vec<P3> = (0..20)
                .map(|_| [rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)])
                .collect();
            let region = ConvexRegion::from_points(&pts, 1e-9);
            // Midpoint of two inputs must be inside.
            let m = [
                (pts[0][0] + pts[1][0]) / 2.0,
                (pts[0][1] + pts[1][1]) / 2.0,
                (pts[0][2] + pts[1][2]) / 2.0,
            ];
            prop_assert!(region.contains(m, 1e-7));
        }
    }
}
