//! Device coupling topologies — the "topology zoo".
//!
//! The paper evaluates its speed-limited parallel-drive gates on the 4×4
//! square lattice, but the headline claims are topology-sensitive: sparse
//! coupling maps pay more routing SWAPs, and every inserted SWAP is a 2Q
//! block whose decomposition cost the optimized rules discount. The zoo
//! spans that spectrum:
//!
//! - [`CouplingMap::grid`] — the paper's square lattice (degree ≤ 4);
//! - [`CouplingMap::line`] / [`CouplingMap::ring`] — minimal connectivity,
//!   the worst case for all-to-all workloads;
//! - [`CouplingMap::heavy_hex`] — the degree-≤3 heavy-hexagon lattice of
//!   IBM-style devices (a hexagonal lattice with every edge subdivided);
//! - [`CouplingMap::modular`] — dense chips joined by a few inter-chip
//!   links, the regime where routing cost is dominated by the sparse
//!   links and parallel-drive wins are largest.
//!
//! Every map carries a human-readable [`CouplingMap::label`] so batch
//! reports can aggregate results per topology.

use crate::TranspileError;

/// An undirected qubit-coupling graph with an all-pairs distance matrix.
#[derive(Debug, Clone)]
pub struct CouplingMap {
    n: usize,
    label: String,
    adjacency: Vec<Vec<usize>>,
    /// All-pairs BFS distances, one flat row-major `n × n` table (the
    /// router reads it once per scored gate).
    dist: Vec<usize>,
}

impl CouplingMap {
    /// Builds a coupling map from an edge list.
    ///
    /// A single qubit with no edges is a valid (trivially connected) map.
    ///
    /// # Errors
    ///
    /// - [`TranspileError::InvalidEdge`] for a self-loop or an endpoint
    ///   `>= n`;
    /// - [`TranspileError::DisconnectedTopology`] when the graph does not
    ///   connect all `n` qubits.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Result<Self, TranspileError> {
        let mut adjacency = vec![Vec::new(); n];
        for &(a, b) in edges {
            if a >= n || b >= n || a == b {
                return Err(TranspileError::InvalidEdge { a, b, n });
            }
            if !adjacency[a].contains(&b) {
                adjacency[a].push(b);
                adjacency[b].push(a);
            }
        }
        // BFS all-pairs distances, one row per source.
        let mut dist = vec![usize::MAX; n * n];
        let mut queue = std::collections::VecDeque::new();
        for (s, row) in dist.chunks_exact_mut(n.max(1)).enumerate() {
            row[s] = 0;
            queue.push_back(s);
            while let Some(u) = queue.pop_front() {
                for &v in &adjacency[u] {
                    if row[v] == usize::MAX {
                        row[v] = row[u] + 1;
                        queue.push_back(v);
                    }
                }
            }
            if row.contains(&usize::MAX) {
                return Err(TranspileError::DisconnectedTopology);
            }
        }
        Ok(CouplingMap {
            n,
            label: format!("custom-{n}q"),
            adjacency,
            dist,
        })
    }

    /// Replaces the report label (constructors set a descriptive default).
    #[must_use]
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// The `rows × cols` square-lattice topology (the paper uses 4×4).
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn grid(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0);
        let n = rows * cols;
        let mut edges = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                let q = r * cols + c;
                if c + 1 < cols {
                    edges.push((q, q + 1));
                }
                if r + 1 < rows {
                    edges.push((q, q + cols));
                }
            }
        }
        CouplingMap::from_edges(n, &edges)
            .expect("grid is connected")
            .with_label(format!("grid{rows}x{cols}"))
    }

    /// A linear chain of `n` qubits.
    pub fn line(n: usize) -> Self {
        let edges: Vec<(usize, usize)> = (0..n.saturating_sub(1)).map(|i| (i, i + 1)).collect();
        CouplingMap::from_edges(n, &edges)
            .expect("line is connected")
            .with_label(format!("line{n}"))
    }

    /// A cycle of `n` qubits: a line with the ends joined, halving the
    /// worst-case routing distance relative to [`CouplingMap::line`].
    ///
    /// `ring(1)` is a single isolated qubit and `ring(2)` a single edge.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn ring(n: usize) -> Self {
        assert!(n > 0, "ring needs at least one qubit");
        let edges: Vec<(usize, usize)> = match n {
            1 => Vec::new(),
            2 => vec![(0, 1)],
            _ => (0..n).map(|i| (i, (i + 1) % n)).collect(),
        };
        CouplingMap::from_edges(n, &edges)
            .expect("ring is connected")
            .with_label(format!("ring{n}"))
    }

    /// The heavy-hexagon lattice of linear size `d`: a `d × d` brick-wall
    /// hexagonal lattice (rows are chains; vertical rungs connect rows at
    /// alternating parity) with **every edge subdivided** by an extra
    /// qubit — the "heavy" transformation that caps the degree at 3, as on
    /// IBM heavy-hex devices.
    ///
    /// Qubit count is `d² + 3d(d−1)/2 = (5d² − 3d)/2`: `heavy_hex(3)` has
    /// 18 qubits, enough for the paper's 16-qubit suite. Lattice vertices
    /// occupy indices `0..d²` (row-major); subdivision qubits follow.
    ///
    /// # Panics
    ///
    /// Panics if `d` is zero.
    pub fn heavy_hex(d: usize) -> Self {
        assert!(d > 0, "heavy-hex needs a positive size");
        // Brick-wall hexagonal lattice on d×d vertices: full horizontal
        // chains, vertical rungs where (row + col) is even.
        let mut brick = Vec::new();
        for r in 0..d {
            for c in 0..d {
                let v = r * d + c;
                if c + 1 < d {
                    brick.push((v, v + 1));
                }
                if r + 1 < d && (r + c) % 2 == 0 {
                    brick.push((v, v + d));
                }
            }
        }
        // Subdivide every edge with a fresh qubit.
        let mut edges = Vec::with_capacity(2 * brick.len());
        let mut next = d * d;
        for (a, b) in brick {
            edges.push((a, next));
            edges.push((next, b));
            next += 1;
        }
        CouplingMap::from_edges(next, &edges)
            .expect("heavy-hex is connected")
            .with_label(format!("heavy-hex{d}"))
    }

    /// A multi-chip topology: `chips` dense modules of `chip_size` qubits
    /// each (all-to-all within a chip, as in trapped-ion QCCD modules),
    /// joined in a chain by `links` inter-chip couplings between
    /// consecutive chips. Link `j` joins qubit `⌊j·chip_size/links⌋` of
    /// both chips, spreading the links across each module.
    ///
    /// Intra-chip routing is free (distance 1) while inter-chip routes
    /// funnel through the few links — the regime where routing cost is
    /// dominated by topology and the paper's per-SWAP savings compound.
    ///
    /// # Errors
    ///
    /// Returns [`TranspileError::InvalidTopology`] when `chips` or
    /// `chip_size` is zero, or when more than one chip is requested with
    /// `links == 0` (disconnected) or `links > chip_size` (duplicate link
    /// endpoints).
    pub fn modular(chips: usize, chip_size: usize, links: usize) -> Result<Self, TranspileError> {
        if chips == 0 || chip_size == 0 {
            return Err(TranspileError::InvalidTopology(format!(
                "modular topology needs at least one chip with at least one qubit \
                 (got {chips} chips of {chip_size})"
            )));
        }
        if chips > 1 && links == 0 {
            return Err(TranspileError::InvalidTopology(
                "multi-chip topology needs at least one inter-chip link".into(),
            ));
        }
        if chips > 1 && links > chip_size {
            return Err(TranspileError::InvalidTopology(format!(
                "{links} inter-chip links cannot anchor on {chip_size}-qubit chips"
            )));
        }
        let n = chips * chip_size;
        let mut edges = Vec::new();
        for chip in 0..chips {
            let base = chip * chip_size;
            for a in 0..chip_size {
                for b in (a + 1)..chip_size {
                    edges.push((base + a, base + b));
                }
            }
            if chip + 1 < chips {
                for j in 0..links {
                    let q = j * chip_size / links;
                    edges.push((base + q, base + chip_size + q));
                }
            }
        }
        Ok(CouplingMap::from_edges(n, &edges)
            .expect("linked chips are connected")
            .with_label(format!("modular{chips}x{chip_size}x{links}")))
    }

    /// Human-readable topology name, carried into batch reports.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Number of physical qubits.
    pub fn n_qubits(&self) -> usize {
        self.n
    }

    /// Number of undirected coupling edges.
    pub fn edge_count(&self) -> usize {
        self.adjacency.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// Every undirected edge as a normalized `(low, high)` pair, sorted —
    /// the deterministic iteration order seeded calibration generators
    /// consume edges in.
    ///
    /// ```
    /// use paradrive_transpiler::topology::CouplingMap;
    ///
    /// let line = CouplingMap::line(4);
    /// assert_eq!(line.edges(), vec![(0, 1), (1, 2), (2, 3)]);
    /// ```
    pub fn edges(&self) -> Vec<(usize, usize)> {
        let mut edges: Vec<(usize, usize)> = self
            .adjacency
            .iter()
            .enumerate()
            .flat_map(|(a, nbrs)| nbrs.iter().filter(move |&&b| a < b).map(move |&b| (a, b)))
            .collect();
        edges.sort_unstable();
        edges
    }

    /// Largest vertex degree (0 for a single isolated qubit).
    pub fn max_degree(&self) -> usize {
        self.adjacency.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Longest shortest-path distance between any two qubits.
    pub fn diameter(&self) -> usize {
        self.dist.iter().copied().max().unwrap_or(0)
    }

    /// Shortest-path distance between two physical qubits.
    pub fn distance(&self, a: usize, b: usize) -> usize {
        self.dist[a * self.n..][..self.n][b]
    }

    /// True when two physical qubits are directly coupled.
    pub fn are_adjacent(&self, a: usize, b: usize) -> bool {
        self.distance(a, b) == 1
    }

    /// Neighbors of a physical qubit.
    pub fn neighbors(&self, q: usize) -> &[usize] {
        &self.adjacency[q]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_4x4_shape() {
        let g = CouplingMap::grid(4, 4);
        assert_eq!(g.n_qubits(), 16);
        assert_eq!(g.label(), "grid4x4");
        // Corner has 2 neighbors, edge 3, interior 4.
        assert_eq!(g.neighbors(0).len(), 2);
        assert_eq!(g.neighbors(1).len(), 3);
        assert_eq!(g.neighbors(5).len(), 4);
        // Manhattan distances.
        assert_eq!(g.distance(0, 15), 6);
        assert_eq!(g.distance(0, 3), 3);
        assert!(g.are_adjacent(0, 1));
        assert!(g.are_adjacent(0, 4));
        assert!(!g.are_adjacent(0, 5));
        assert_eq!(g.diameter(), 6);
    }

    #[test]
    fn line_distances() {
        let l = CouplingMap::line(5);
        assert_eq!(l.distance(0, 4), 4);
        assert!(l.are_adjacent(2, 3));
        assert_eq!(l.label(), "line5");
    }

    #[test]
    fn disconnected_rejected() {
        let r = CouplingMap::from_edges(4, &[(0, 1), (2, 3)]);
        assert!(matches!(r, Err(TranspileError::DisconnectedTopology)));
    }

    #[test]
    fn duplicate_edges_ignored() {
        let g = CouplingMap::from_edges(2, &[(0, 1), (1, 0), (0, 1)]).unwrap();
        assert_eq!(g.neighbors(0), &[1]);
    }

    #[test]
    fn single_qubit_no_edges_is_valid() {
        let g = CouplingMap::from_edges(1, &[]).unwrap();
        assert_eq!(g.n_qubits(), 1);
        assert_eq!(g.distance(0, 0), 0);
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    fn self_loop_is_typed_error() {
        let r = CouplingMap::from_edges(3, &[(0, 1), (2, 2)]);
        assert!(matches!(
            r,
            Err(TranspileError::InvalidEdge { a: 2, b: 2, n: 3 })
        ));
    }

    #[test]
    fn out_of_range_endpoint_is_typed_error() {
        let r = CouplingMap::from_edges(3, &[(0, 1), (1, 7)]);
        assert!(matches!(
            r,
            Err(TranspileError::InvalidEdge { a: 1, b: 7, n: 3 })
        ));
        let msg = r.unwrap_err().to_string();
        assert!(msg.contains('7'), "error should name the endpoint: {msg}");
    }

    #[test]
    fn ring_shape_degree_distance() {
        let r = CouplingMap::ring(16);
        assert_eq!(r.n_qubits(), 16);
        assert_eq!(r.edge_count(), 16);
        assert_eq!(r.max_degree(), 2);
        assert_eq!(r.label(), "ring16");
        // Opposite points are n/2 apart; the ring closes.
        assert_eq!(r.distance(0, 8), 8);
        assert_eq!(r.distance(0, 15), 1);
        assert_eq!(r.diameter(), 8);
        // Degenerate sizes.
        assert_eq!(CouplingMap::ring(1).n_qubits(), 1);
        let two = CouplingMap::ring(2);
        assert_eq!(two.edge_count(), 1);
        assert!(two.are_adjacent(0, 1));
    }

    #[test]
    fn heavy_hex_shape_degree_distance() {
        for d in [1usize, 2, 3, 5] {
            let h = CouplingMap::heavy_hex(d);
            assert_eq!(h.n_qubits(), (5 * d * d - 3 * d) / 2, "d = {d}");
            // The defining heavy-hex property: degree never exceeds 3.
            assert!(h.max_degree() <= 3, "d = {d}: degree {}", h.max_degree());
            // Subdivision qubits (indices >= d²) have degree exactly 2.
            for q in d * d..h.n_qubits() {
                assert_eq!(h.neighbors(q).len(), 2, "subdivision qubit {q}");
            }
        }
        let h3 = CouplingMap::heavy_hex(3);
        assert_eq!(h3.n_qubits(), 18);
        assert_eq!(h3.label(), "heavy-hex3");
        // Adjacent lattice vertices are 2 apart (through their bridge).
        assert_eq!(h3.distance(0, 1), 2);
        // Subdividing doubles every lattice distance.
        assert!(h3.diameter() >= 8);
    }

    #[test]
    fn modular_shape_degree_distance() {
        let m = CouplingMap::modular(3, 4, 1).unwrap();
        assert_eq!(m.n_qubits(), 12);
        assert_eq!(m.label(), "modular3x4x1");
        // Intra-chip is all-to-all.
        assert_eq!(m.distance(0, 3), 1);
        assert_eq!(m.distance(4, 7), 1);
        // Inter-chip routes funnel through the single link (qubit 0 of
        // each chip): link endpoints are adjacent, everyone else detours.
        assert!(m.are_adjacent(0, 4));
        assert_eq!(m.distance(1, 5), 3);
        // Two chip hops: 1 (to link) + 1 + 1 (link to link) + 1 (out) = 4.
        assert_eq!(m.distance(1, 9), 4);
        assert_eq!(m.diameter(), 4);

        // More links shorten nothing intra-chip but spread the funnel.
        let wide = CouplingMap::modular(2, 8, 4).unwrap();
        assert_eq!(wide.edge_count(), 2 * 28 + 4);
        assert_eq!(wide.distance(1, 9), 3);

        // A single chip is a clique with no link requirement.
        let solo = CouplingMap::modular(1, 5, 0).unwrap();
        assert_eq!(solo.diameter(), 1);
    }

    #[test]
    fn modular_rejects_bad_specs() {
        for (chips, size, links) in [(0, 4, 1), (2, 0, 1), (2, 4, 0), (2, 4, 5)] {
            assert!(
                matches!(
                    CouplingMap::modular(chips, size, links),
                    Err(TranspileError::InvalidTopology(_))
                ),
                "({chips}, {size}, {links}) should be rejected"
            );
        }
    }
}
