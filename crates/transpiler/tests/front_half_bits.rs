//! Pins the exact bits of the pipeline's front half: routing and
//! consolidation. Reports print rounded durations and fidelities, so a
//! router or consolidation change that moved a SWAP, a layout entry or a
//! block's last bits could pass every golden; this test fails instead.
//!
//! Each case routes the Table VII suite (`standard_suite` seeds 7 and 11)
//! under routing seeds 0–9 and consolidates every route. One FNV-1a digest
//! covers the routes (SWAP count, final layout, every op with its gate
//! parameters as bits) and one covers the consolidated items (kind,
//! qubits, merged gate count, unitary bits and Weyl point bits). The
//! setups are noise-blind on `grid4x4` and `ring16`, and noise-aware on
//! `grid4x4` under a spread calibration and under a hotspot calibration
//! with dead edges.

use paradrive_circuit::benchmarks::standard_suite;
use paradrive_circuit::{OneQ, Op, TwoQ};
use paradrive_linalg::CMat;
use paradrive_transpiler::calibration::Calibration;
use paradrive_transpiler::consolidate::{consolidate, Item};
use paradrive_transpiler::fidelity::FidelityModel;
use paradrive_transpiler::routing::{route_with_oracle, NoiseOracle, Routed, RouterOptions};
use paradrive_transpiler::topology::CouplingMap;
use paradrive_weyl::WeylPoint;

/// FNV-1a over little-endian 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn mat(&mut self, m: &CMat) {
        self.word(m.rows() as u64);
        for z in m.as_slice() {
            self.f(z.re);
            self.f(z.im);
        }
    }

    fn point(&mut self, p: &WeylPoint) {
        self.f(p.c1);
        self.f(p.c2);
        self.f(p.c3);
    }
}

fn hash_op(h: &mut Fnv, op: &Op) {
    match op {
        Op::OneQ { gate, q } => {
            h.word(1);
            h.word(*q as u64);
            let (tag, params): (u64, &[f64]) = match gate {
                OneQ::H => (0, &[]),
                OneQ::X => (1, &[]),
                OneQ::Y => (2, &[]),
                OneQ::Z => (3, &[]),
                OneQ::S => (4, &[]),
                OneQ::Sdg => (5, &[]),
                OneQ::T => (6, &[]),
                OneQ::Tdg => (7, &[]),
                OneQ::Rx(t) => (8, &[*t]),
                OneQ::Ry(t) => (9, &[*t]),
                OneQ::Rz(t) => (10, &[*t]),
                OneQ::U3(a, b, c) => (11, &[*a, *b, *c]),
            };
            h.word(tag);
            params.iter().for_each(|&p| h.f(p));
        }
        Op::TwoQ { gate, a, b } => {
            h.word(2);
            h.word(*a as u64);
            h.word(*b as u64);
            match gate {
                TwoQ::Cx => h.word(0),
                TwoQ::Cz => h.word(1),
                TwoQ::CPhase(t) => {
                    h.word(2);
                    h.f(*t);
                }
                TwoQ::Rzz(t) => {
                    h.word(3);
                    h.f(*t);
                }
                TwoQ::Swap => h.word(4),
                TwoQ::ISwap => h.word(5),
                TwoQ::SqrtISwap => h.word(6),
                TwoQ::Unitary(u) => {
                    h.word(7);
                    h.mat(u);
                }
            }
        }
    }
}

fn hash_route(h: &mut Fnv, r: &Routed) {
    h.word(r.swaps_inserted as u64);
    h.word(r.layout.len() as u64);
    r.layout.iter().for_each(|&p| h.word(p as u64));
    h.word(r.circuit.n_qubits() as u64);
    h.word(r.circuit.ops().len() as u64);
    r.circuit.ops().iter().for_each(|op| hash_op(h, op));
}

fn hash_items(h: &mut Fnv, items: &[Item]) {
    h.word(items.len() as u64);
    for item in items {
        match item {
            Item::OneQRun {
                q,
                unitary,
                virtual_only,
            } => {
                h.word(1);
                h.word(*q as u64);
                h.word(*virtual_only as u64);
                h.mat(unitary);
            }
            Item::Block {
                a,
                b,
                unitary,
                point,
                merged_gates,
            } => {
                h.word(2);
                h.word(*a as u64);
                h.word(*b as u64);
                h.word(*merged_gates as u64);
                h.mat(unitary);
                h.point(point);
            }
        }
    }
}

/// `(route digest, consolidation digest)` of the suite at `suite_seed`
/// over routing seeds 0–9.
fn digests(map: &CouplingMap, oracle: Option<&NoiseOracle>, suite_seed: u64) -> (u64, u64) {
    let mut routes = Fnv::new();
    let mut blocks = Fnv::new();
    for b in standard_suite(suite_seed) {
        for seed in 0..10 {
            let r = route_with_oracle(&b.circuit, map, oracle, seed, RouterOptions::default())
                .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", b.name));
            hash_route(&mut routes, &r);
            let items = consolidate(&r.circuit).expect("consolidatable");
            hash_items(&mut blocks, &items);
        }
    }
    (routes.0, blocks.0)
}

fn check(map: &CouplingMap, cal: Option<&Calibration>, want: [(u64, u64, u64); 2]) {
    let options = RouterOptions::default();
    let oracle = cal.map(|c| NoiseOracle::new(map, c, options));
    let got: Vec<(u64, u64, u64)> = want
        .iter()
        .map(|&(seed, _, _)| {
            let (r, c) = digests(map, oracle.as_ref(), seed);
            (seed, r, c)
        })
        .collect();
    assert_eq!(got, want, "got {got:#018x?}");
}

#[test]
fn blind_grid4x4_keeps_its_bits() {
    check(
        &CouplingMap::grid(4, 4),
        None,
        [
            (7, 0xfaf2_0969_2d5a_7b0e, 0x6416_ccc3_040e_f422),
            (11, 0x084d_d145_2e7a_bb25, 0x7177_87c9_87c3_fcd8),
        ],
    );
}

#[test]
fn blind_ring16_keeps_its_bits() {
    check(
        &CouplingMap::ring(16),
        None,
        [
            (7, 0x4f82_613a_0673_7428, 0xe67e_38fa_bfff_2a79),
            (11, 0x0466_7a5f_7684_d35c, 0x59d2_688e_967e_7cd5),
        ],
    );
}

#[test]
fn spread_aware_grid4x4_keeps_its_bits() {
    let map = CouplingMap::grid(4, 4);
    let cal = Calibration::spread(&map, FidelityModel::paper(), 0.3, 17).expect("valid sigma");
    check(
        &map,
        Some(&cal),
        [
            (7, 0x358f_8a25_20be_32e5, 0x5e9d_4e6d_58e1_d855),
            (11, 0xaebc_a0f1_73a7_9301, 0xc99b_7b84_4091_d3fd),
        ],
    );
}

#[test]
fn hotspot_aware_grid4x4_keeps_its_bits() {
    let map = CouplingMap::grid(4, 4);
    let cal = Calibration::hotspot(&map, FidelityModel::paper(), 2, 17).expect("valid k");
    let threshold = RouterOptions::default().dead_edge_threshold;
    assert!(
        map.edges()
            .iter()
            .any(|&(a, b)| cal.edge(a, b).error_rate >= threshold),
        "the hotspot setup must route around a dead edge"
    );
    check(
        &map,
        Some(&cal),
        [
            (7, 0xc25d_f879_f227_7d81, 0x068e_421c_7dd5_e0e1),
            (11, 0x0ec3_9f52_56cc_f818, 0xb116_5e04_96d9_78f0),
        ],
    );
}
