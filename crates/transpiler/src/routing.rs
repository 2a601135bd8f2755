//! SWAP routing onto a coupling topology, optionally noise-aware.
//!
//! A lookahead-greedy router in the SABRE spirit: whenever the next 2Q gate
//! acts on non-adjacent physical qubits, candidate SWAPs around either
//! operand are scored by the total distance of a window of upcoming 2Q
//! gates, and the best (random tie-break) is inserted. Deterministic for a
//! fixed seed; the paper takes the best of 10 routing runs.
//!
//! With a [`NoiseOracle`] built from a [`Calibration`]
//! ([`route_with_oracle`]) the router becomes **noise-aware**: distances
//! are replaced by effective distances over a weighted graph where
//! crossing edge `e` costs `1 + noise_weight · (−ln(1 − error(e)))`, and
//! edges whose error rate reaches [`RouterOptions::dead_edge_threshold`]
//! are excluded outright — no SWAP or gate is ever scheduled on a dead
//! edge. On a uniform calibration every weight is exactly `1.0`, and the
//! noise-aware router reproduces the noise-blind router bit for bit.

use crate::calibration::Calibration;
use crate::topology::CouplingMap;
use crate::TranspileError;
use paradrive_circuit::{Circuit, Op, TwoQ};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Tunable router heuristics (exposed for the ablation studies).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouterOptions {
    /// How many upcoming 2Q gates the SWAP score looks at (0 = greedy).
    pub lookahead: usize,
    /// Decay applied to later gates in the lookahead window.
    pub decay: f64,
    /// Weight of the per-edge log-infidelity term in noise-aware
    /// effective distances (ignored without a calibration).
    pub noise_weight: f64,
    /// Error rate at or above which a noise-aware route treats an edge as
    /// dead: never crossed, never hosts a gate (ignored without a
    /// calibration).
    pub dead_edge_threshold: f64,
}

impl Default for RouterOptions {
    fn default() -> Self {
        RouterOptions {
            lookahead: 8,
            decay: 0.7,
            noise_weight: 4.0,
            dead_edge_threshold: 0.1,
        }
    }
}

/// The noise-aware router's precomputed view of one calibrated device:
/// which edges are usable and the all-pairs effective distances over the
/// healthy weighted graph.
///
/// Construction costs an all-pairs shortest-path solve; it is a pure
/// function of `(map, calibration, options)`, so batch drivers build one
/// oracle per job and share it across every routing seed
/// ([`route_with_oracle`]) instead of paying the solve per seed.
#[derive(Debug, Clone)]
pub struct NoiseOracle {
    n: usize,
    /// Healthy-edge flags, one flat row-major `n × n` table.
    usable: Vec<bool>,
    /// Effective distances, one flat row-major `n × n` table.
    dist: Vec<f64>,
}

impl NoiseOracle {
    /// Builds the healthy-edge set and effective distance matrix for a
    /// calibrated device.
    pub fn new(map: &CouplingMap, cal: &Calibration, options: RouterOptions) -> Self {
        let n = map.n_qubits();
        let mut usable = vec![false; n * n];
        let mut weight = vec![f64::INFINITY; n * n];
        for a in 0..n {
            for b in 0..n {
                if map.are_adjacent(a, b) && cal.edge(a, b).error_rate < options.dead_edge_threshold
                {
                    usable[a * n + b] = true;
                    weight[a * n + b] = 1.0 + options.noise_weight * cal.edge_noise_cost(a, b);
                }
            }
        }
        // All-pairs Dijkstra over the healthy weighted graph (devices are
        // tens of qubits, so the O(n³) dense form is plenty). Unreachable
        // pairs stay at infinity and surface as `RoutingStuck`.
        let mut dist = vec![f64::INFINITY; n * n];
        for (s, d) in dist.chunks_exact_mut(n.max(1)).enumerate() {
            d[s] = 0.0;
            let mut done = vec![false; n];
            for _ in 0..n {
                let Some(u) = (0..n)
                    .filter(|&u| !done[u] && d[u].is_finite())
                    .min_by(|&x, &y| d[x].partial_cmp(&d[y]).expect("finite distances"))
                else {
                    break;
                };
                done[u] = true;
                for &v in map.neighbors(u) {
                    if usable[u * n + v] && d[u] + weight[u * n + v] < d[v] {
                        d[v] = d[u] + weight[u * n + v];
                    }
                }
            }
        }
        NoiseOracle { n, usable, dist }
    }

    fn distance(&self, a: usize, b: usize) -> f64 {
        self.dist[a * self.n..][..self.n][b]
    }

    fn usable(&self, a: usize, b: usize) -> bool {
        self.usable[a * self.n..][..self.n][b]
    }
}

/// The distance/adjacency oracle the scoring loop runs against: plain BFS
/// distances when noise-blind, effective healthy-graph distances when
/// noise-aware.
struct View<'a> {
    map: &'a CouplingMap,
    noise: Option<&'a NoiseOracle>,
}

impl View<'_> {
    fn distance(&self, a: usize, b: usize) -> f64 {
        match &self.noise {
            // Uniform calibrations yield unit weights, so these are the
            // same integer-valued floats BFS would produce.
            Some(v) => v.distance(a, b),
            None => self.map.distance(a, b) as f64,
        }
    }

    /// True when a gate (or SWAP) may execute on the physical pair.
    fn usable(&self, a: usize, b: usize) -> bool {
        match &self.noise {
            Some(v) => v.usable(a, b),
            None => self.map.are_adjacent(a, b),
        }
    }
}

/// The result of routing: the physical circuit and bookkeeping.
#[derive(Debug, Clone)]
pub struct Routed {
    /// The routed circuit over physical qubits; every 2Q gate is adjacent.
    pub circuit: Circuit,
    /// Number of SWAPs inserted.
    pub swaps_inserted: usize,
    /// Final logical→physical layout.
    pub layout: Vec<usize>,
}

/// Routes a logical circuit onto the coupling map with the default
/// heuristics, noise-blind.
///
/// # Errors
///
/// As [`route_with_oracle`].
pub fn route(circuit: &Circuit, map: &CouplingMap, seed: u64) -> Result<Routed, TranspileError> {
    route_with_oracle(circuit, map, None, seed, RouterOptions::default())
}

/// Routes with explicit heuristic options (see [`RouterOptions`]; the
/// ablation studies sweep the lookahead window through them), noise-aware
/// when given a [`NoiseOracle`]: SWAP scoring then uses effective
/// distances that penalize high-error edges, and edges at or above
/// [`RouterOptions::dead_edge_threshold`] never host a gate. With `None`
/// (or an oracle built from a uniform calibration) this is exactly the
/// noise-blind router, bit for bit. The oracle is built once per
/// calibrated device and shared across routing seeds.
///
/// # Errors
///
/// Returns [`TranspileError::TooManyQubits`] when the circuit is wider than
/// the device, and [`TranspileError::RoutingStuck`] if the SWAP heuristic
/// fails to legalize a gate within `4 × n_qubits` insertions or the
/// healthy (non-dead) edges no longer connect a gate's operands.
pub fn route_with_oracle(
    circuit: &Circuit,
    map: &CouplingMap,
    oracle: Option<&NoiseOracle>,
    seed: u64,
    options: RouterOptions,
) -> Result<Routed, TranspileError> {
    if circuit.n_qubits() > map.n_qubits() {
        return Err(TranspileError::TooManyQubits {
            circuit: circuit.n_qubits(),
            device: map.n_qubits(),
        });
    }
    let view = View { map, noise: oracle };
    let mut rng = StdRng::seed_from_u64(seed);
    let n_phys = map.n_qubits();
    // logical -> physical (trivial initial layout) and its inverse.
    let mut layout: Vec<usize> = (0..n_phys).collect();
    let mut inverse = layout.clone();

    // The logical operands of every 2Q gate in program order, for the
    // lookahead score; `next_2q` is the current gate's position in it.
    let two_q: Vec<(usize, usize)> = circuit
        .ops()
        .iter()
        .filter_map(|op| match op {
            Op::TwoQ { a, b, .. } => Some((*a, *b)),
            Op::OneQ { .. } => None,
        })
        .collect();
    let mut next_2q = 0usize;
    let mut scratch = SwapScratch::default();

    let mut out = Circuit::new(n_phys);
    let mut swaps_inserted = 0usize;

    for (op_idx, op) in circuit.ops().iter().enumerate() {
        match op {
            Op::OneQ { gate, q } => {
                out.push_1q(*gate, layout[*q]);
            }
            Op::TwoQ { gate, a, b } => {
                // Insert SWAPs until the operands share a usable edge.
                let mut guard = 0;
                while !view.usable(layout[*a], layout[*b]) {
                    guard += 1;
                    if guard > 4 * n_phys {
                        return Err(TranspileError::RoutingStuck { gate_index: op_idx });
                    }
                    let Some((x, y)) = best_swap(
                        &view,
                        &layout,
                        &two_q[next_2q..],
                        (*a, *b),
                        options,
                        &mut scratch,
                        &mut rng,
                    ) else {
                        // Every candidate edge is dead: the healthy graph
                        // cannot move the operands together.
                        return Err(TranspileError::RoutingStuck { gate_index: op_idx });
                    };
                    out.push_2q(TwoQ::Swap, x, y);
                    swaps_inserted += 1;
                    layout.swap(inverse[x], inverse[y]);
                    inverse.swap(x, y);
                }
                out.push_2q(gate.clone(), layout[*a], layout[*b]);
                next_2q += 1;
            }
        }
    }
    Ok(Routed {
        circuit: out,
        swaps_inserted,
        layout,
    })
}

/// The candidate and tied-best SWAP lists [`best_swap`] fills, kept for
/// the whole route so no SWAP decision allocates.
#[derive(Default)]
struct SwapScratch {
    candidates: Vec<(usize, usize)>,
    best: Vec<(usize, usize)>,
}

/// Scores candidate SWAPs on usable edges adjacent to the two operands of
/// the blocked gate and returns the best `(physical, physical)` pair, or
/// `None` when every adjacent edge is dead. `upcoming` holds the logical
/// operands of the 2Q gates from the blocked one on.
fn best_swap(
    view: &View<'_>,
    layout: &[usize],
    upcoming: &[(usize, usize)],
    blocked: (usize, usize),
    options: RouterOptions,
    scratch: &mut SwapScratch,
    rng: &mut StdRng,
) -> Option<(usize, usize)> {
    let (la, lb) = blocked;
    let pa = layout[la];
    let pb = layout[lb];
    let SwapScratch { candidates, best } = scratch;
    candidates.clear();
    for &p in [pa, pb].iter() {
        for &nb in view.map.neighbors(p) {
            let c = (p.min(nb), p.max(nb));
            if view.usable(c.0, c.1) && !candidates.contains(&c) {
                candidates.push(c);
            }
        }
    }

    best.clear();
    let mut best_score = f64::INFINITY;
    for &(x, y) in candidates.iter() {
        // Where a logical qubit sits once the candidate SWAP is applied.
        let at = |q: usize| match layout[q] {
            p if p == x => y,
            p if p == y => x,
            p => p,
        };
        // Primary term: the blocked gate's distance; lookahead term: the
        // decayed distances of upcoming 2Q gates.
        let mut score = view.distance(at(la), at(lb)) * 2.0;
        let mut weight = 1.0;
        for &(a, b) in upcoming.iter().take(options.lookahead) {
            score += weight * view.distance(at(a), at(b));
            weight *= options.decay;
        }
        if score < best_score - 1e-12 {
            best_score = score;
            best.clear();
            best.push((x, y));
        } else if (score - best_score).abs() <= 1e-12 {
            best.push((x, y));
        }
    }
    if best.is_empty() || !best_score.is_finite() {
        return None;
    }
    Some(best[rng.gen_range(0..best.len())])
}

/// Routes with `n_seeds` different seeds and returns the run with the
/// fewest inserted SWAPs — the paper's "best outcome from 10 transpiler
/// runs".
///
/// # Errors
///
/// Propagates the first routing failure.
pub fn route_best_of(
    circuit: &Circuit,
    map: &CouplingMap,
    n_seeds: u64,
) -> Result<Routed, TranspileError> {
    let mut best: Option<Routed> = None;
    for seed in 0..n_seeds.max(1) {
        let r = route(circuit, map, seed)?;
        if best
            .as_ref()
            .is_none_or(|b| r.swaps_inserted < b.swaps_inserted)
        {
            best = Some(r);
        }
    }
    Ok(best.expect("at least one seed"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradrive_circuit::benchmarks;
    use paradrive_circuit::OneQ;

    fn route_aware(
        c: &Circuit,
        map: &CouplingMap,
        cal: &Calibration,
        seed: u64,
    ) -> Result<Routed, TranspileError> {
        let options = RouterOptions::default();
        let oracle = NoiseOracle::new(map, cal, options);
        route_with_oracle(c, map, Some(&oracle), seed, options)
    }

    fn all_2q_adjacent(c: &Circuit, map: &CouplingMap) -> bool {
        c.ops().iter().all(|op| match op {
            Op::TwoQ { a, b, .. } => map.are_adjacent(*a, *b),
            _ => true,
        })
    }

    #[test]
    fn adjacent_gates_need_no_swaps() {
        let map = CouplingMap::grid(4, 4);
        let mut c = Circuit::new(16);
        c.push_2q(TwoQ::Cx, 0, 1);
        c.push_2q(TwoQ::Cx, 5, 9);
        let r = route(&c, &map, 0).unwrap();
        assert_eq!(r.swaps_inserted, 0);
        assert!(all_2q_adjacent(&r.circuit, &map));
    }

    #[test]
    fn distant_gate_gets_routed() {
        let map = CouplingMap::grid(4, 4);
        let mut c = Circuit::new(16);
        c.push_2q(TwoQ::Cx, 0, 15); // distance 6
        let r = route(&c, &map, 0).unwrap();
        assert!(r.swaps_inserted >= 5, "too few swaps: {}", r.swaps_inserted);
        assert!(all_2q_adjacent(&r.circuit, &map));
    }

    #[test]
    fn one_q_gates_pass_through() {
        let map = CouplingMap::grid(2, 2);
        let mut c = Circuit::new(4);
        c.push_1q(OneQ::H, 2);
        let r = route(&c, &map, 0).unwrap();
        assert_eq!(r.circuit.one_q_count(), 1);
    }

    #[test]
    fn too_wide_circuit_rejected() {
        let map = CouplingMap::grid(2, 2);
        let c = Circuit::new(9);
        assert!(matches!(
            route(&c, &map, 0),
            Err(TranspileError::TooManyQubits { .. })
        ));
    }

    #[test]
    fn full_benchmark_routes_cleanly() {
        let map = CouplingMap::grid(4, 4);
        let c = benchmarks::qft(16);
        let r = route(&c, &map, 1).unwrap();
        assert!(all_2q_adjacent(&r.circuit, &map));
        // QFT's all-to-all CPhases on a lattice need plenty of SWAPs.
        assert!(r.swaps_inserted > 20);
        // 2Q gate count grows exactly by the inserted swaps.
        assert_eq!(r.circuit.two_q_count(), c.two_q_count() + r.swaps_inserted);
    }

    #[test]
    fn best_of_seeds_not_worse_than_first() {
        let map = CouplingMap::grid(4, 4);
        let c = benchmarks::qft(16);
        let first = route(&c, &map, 0).unwrap();
        let best = route_best_of(&c, &map, 10).unwrap();
        assert!(best.swaps_inserted <= first.swaps_inserted);
    }

    #[test]
    fn ghz_on_line_needs_no_swaps() {
        let map = CouplingMap::line(16);
        let c = benchmarks::ghz(16);
        let r = route(&c, &map, 0).unwrap();
        assert_eq!(r.swaps_inserted, 0);
    }

    #[test]
    fn uniform_calibration_routes_identically_to_blind() {
        use crate::calibration::Calibration;
        use crate::fidelity::FidelityModel;
        let map = CouplingMap::grid(4, 4);
        let cal = Calibration::uniform(&map, FidelityModel::paper());
        let c = benchmarks::qft(16);
        for seed in 0..4 {
            let blind = route(&c, &map, seed).unwrap();
            let aware = route_aware(&c, &map, &cal, seed).unwrap();
            assert_eq!(blind.circuit, aware.circuit, "seed {seed}");
            assert_eq!(blind.swaps_inserted, aware.swaps_inserted);
            assert_eq!(blind.layout, aware.layout);
        }
    }

    /// The planted-dead-edge regression: noise-aware routing never touches
    /// an edge whose error rate crosses the dead threshold, while the
    /// noise-blind router routes straight through it.
    #[test]
    fn noise_aware_avoids_planted_dead_edge() {
        use crate::calibration::{Calibration, EdgeCalibration};
        use crate::fidelity::FidelityModel;
        let map = CouplingMap::grid(3, 3);
        // Kill the (1,2) edge in the top row; plenty of healthy detours.
        let dead = (1usize, 2usize);
        let cal = Calibration::uniform(&map, FidelityModel::paper()).with_edge(
            dead.0,
            dead.1,
            EdgeCalibration {
                duration_factor: 3.0,
                error_rate: 0.25,
            },
        );
        let uses_dead = |r: &Routed| {
            r.circuit.ops().iter().any(|op| match op {
                Op::TwoQ { a, b, .. } => (*a.min(b), *a.max(b)) == dead,
                _ => false,
            })
        };
        // A gate between the dead edge's endpoints plus traffic across it.
        let mut c = Circuit::new(9);
        c.push_2q(TwoQ::Cx, 1, 2);
        c.push_2q(TwoQ::Cx, 0, 2);
        c.push_2q(TwoQ::Cx, 2, 6);
        let blind_hits = (0..6)
            .filter(|&s| uses_dead(&route(&c, &map, s).unwrap()))
            .count();
        assert!(blind_hits > 0, "blind routing should cross the dead edge");
        for seed in 0..6 {
            let aware = route_aware(&c, &map, &cal, seed).unwrap();
            assert!(!uses_dead(&aware), "seed {seed} touched the dead edge");
            // Still a legal routing: every 2Q op on a coupled pair.
            assert!(all_2q_adjacent(&aware.circuit, &map));
        }
    }

    /// High-but-not-dead error rates are penalized softly: the router
    /// prefers clean detours but may still cross when forced.
    #[test]
    fn degraded_edges_are_soft_penalties() {
        use crate::calibration::{Calibration, EdgeCalibration};
        use crate::fidelity::FidelityModel;
        // On a line there is no detour: routing must cross the degraded
        // edge and still succeeds.
        let map = CouplingMap::line(4);
        let cal = Calibration::uniform(&map, FidelityModel::paper()).with_edge(
            1,
            2,
            EdgeCalibration {
                duration_factor: 2.0,
                error_rate: 0.05,
            },
        );
        let mut c = Circuit::new(4);
        c.push_2q(TwoQ::Cx, 0, 3);
        let r = route_aware(&c, &map, &cal, 0).unwrap();
        assert!(all_2q_adjacent(&r.circuit, &map));
    }

    #[test]
    fn fully_dead_cut_is_routing_stuck() {
        use crate::calibration::{Calibration, EdgeCalibration};
        use crate::fidelity::FidelityModel;
        // Killing the only edge of a 2-qubit device leaves no healthy path.
        let map = CouplingMap::line(2);
        let cal = Calibration::uniform(&map, FidelityModel::paper()).with_edge(
            0,
            1,
            EdgeCalibration {
                duration_factor: 1.0,
                error_rate: 0.9,
            },
        );
        let mut c = Circuit::new(2);
        c.push_2q(TwoQ::Cx, 0, 1);
        let r = route_aware(&c, &map, &cal, 0);
        assert!(matches!(r, Err(TranspileError::RoutingStuck { .. })));
    }
}
