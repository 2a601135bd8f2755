//! Pins the exact bits of verification verdicts: the oracle, the support
//! width and `fidelity().to_bits()` for each case. The printed reports
//! round fidelities to nine decimals, so a kernel change that moves a
//! verdict's last bits would pass every golden; this test fails instead.
//!
//! The sampled cases replay the engine's own verification of the Table
//! VII suite on `grid4x4` (suite seed 7, best of two routing seeds,
//! consolidated items, two samples, the engine's per-job seed). The exact
//! cases are the small routes the oracle unit tests check.

use paradrive_circuit::benchmarks::{self, standard_suite};
use paradrive_circuit::Circuit;
use paradrive_transpiler::consolidate::consolidate;
use paradrive_transpiler::routing::{route, Routed};
use paradrive_transpiler::topology::CouplingMap;
use paradrive_verify::{verify, Physical, Verification, VerifyConfig, VerifyLevel};

/// `(method, width, fidelity bits)` of one verdict.
fn pin(v: &Verification) -> (&'static str, usize, u64) {
    let width = match v {
        Verification::Exact { width, .. }
        | Verification::Mps { width, .. }
        | Verification::Sampled { width, .. } => *width,
        other => panic!("no verdict: {other}"),
    };
    (
        v.method(),
        width,
        v.fidelity().expect("a fidelity").to_bits(),
    )
}

/// The engine's per-job verification seed: its base seed XOR the FNV-1a
/// hash of the job name.
fn job_seed(base: u64, name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in name.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    base ^ h
}

/// The engine's best-seed rule without a calibration: fewest SWAPs, then
/// the earliest seed.
fn best_route(c: &Circuit, map: &CouplingMap, seeds: u64) -> Routed {
    (0..seeds)
        .map(|s| route(c, map, s).expect("routable"))
        .reduce(|best, r| {
            if r.swaps_inserted < best.swaps_inserted {
                r
            } else {
                best
            }
        })
        .expect("at least one seed")
}

#[test]
fn sampled_table7_verdicts_keep_their_bits() {
    let map = CouplingMap::grid(4, 4);
    let base = VerifyConfig::default();
    let mut got = Vec::new();
    for b in standard_suite(7) {
        let routed = best_route(&b.circuit, &map, 2);
        let items = consolidate(&routed.circuit).expect("consolidatable");
        let cfg = base
            .level(VerifyLevel::Sampled)
            .samples(2)
            .seed(job_seed(base.seed, b.name));
        let v = verify(
            &b.circuit,
            &Physical::Consolidated {
                items: &items,
                n_qubits: map.n_qubits(),
            },
            &routed.layout,
            &cfg,
        )
        .expect("oracle runs");
        assert!(!v.failed(), "{}: {v}", b.name);
        got.push((b.name, pin(&v)));
    }
    let want: &[(&str, (&str, usize, u64))] = &[
        ("QV", ("sampled", 16, 0x3fef_ffff_ffff_ff66)),
        ("VQE_L", ("sampled", 16, 0x3fef_ffff_ffff_ffb8)),
        ("GHZ", ("sampled", 16, 0x3fef_ffff_ffff_ff1a)),
        ("HLF", ("sampled", 16, 0x3fef_ffff_ffff_ff6c)),
        ("QFT", ("sampled", 16, 0x3fef_ffff_ffff_ff96)),
        ("Adder", ("sampled", 16, 0x3ff0_0000_0000_0012)),
        ("QAOA", ("sampled", 16, 0x3fef_ffff_ffff_ff9a)),
        ("VQE_F", ("sampled", 16, 0x3ff0_0000_0000_0014)),
        ("Multiplier", ("sampled", 16, 0x3fef_ffff_ffff_ffb4)),
    ];
    assert_eq!(got, want);
}

#[test]
fn exact_small_route_verdicts_keep_their_bits() {
    let cfg = VerifyConfig::default().level(VerifyLevel::Exact);
    let mut got = Vec::new();
    for (label, c, map, seed) in [
        ("ghz5/ring6", benchmarks::ghz(5), CouplingMap::ring(6), 0),
        (
            "qaoa6/grid2x4",
            benchmarks::qaoa(6, 2, 7),
            CouplingMap::grid(2, 4),
            0,
        ),
        (
            "vqe6/line6",
            benchmarks::vqe_linear(6, 1, 3),
            CouplingMap::line(6),
            0,
        ),
        (
            "qft8/grid3x3",
            benchmarks::qft(8),
            CouplingMap::grid(3, 3),
            1,
        ),
    ] {
        let routed = route(&c, &map, seed).expect("routable");
        let items = consolidate(&routed.circuit).expect("consolidatable");
        for (form, physical) in [
            ("raw", Physical::Circuit(&routed.circuit)),
            (
                "fused",
                Physical::Consolidated {
                    items: &items,
                    n_qubits: map.n_qubits(),
                },
            ),
        ] {
            let v = verify(&c, &physical, &routed.layout, &cfg).expect("oracle runs");
            assert!(!v.failed(), "{label} {form}: {v}");
            got.push((label, form, pin(&v)));
        }
    }
    let want: &[(&str, &str, (&str, usize, u64))] = &[
        ("ghz5/ring6", "raw", ("exact", 5, 0x3ff0_0000_0000_0002)),
        ("ghz5/ring6", "fused", ("exact", 5, 0x3ff0_0000_0000_0002)),
        ("qaoa6/grid2x4", "raw", ("exact", 8, 0x3ff0_0000_0000_012c)),
        (
            "qaoa6/grid2x4",
            "fused",
            ("exact", 8, 0x3ff0_0000_0000_012e),
        ),
        ("vqe6/line6", "raw", ("exact", 6, 0x3fef_ffff_ffff_ffea)),
        ("vqe6/line6", "fused", ("exact", 6, 0x3fef_ffff_ffff_ffe6)),
        ("qft8/grid3x3", "raw", ("exact", 8, 0x3ff0_0000_0000_0002)),
        ("qft8/grid3x3", "fused", ("exact", 8, 0x3ff0_0000_0000_0002)),
    ];
    assert_eq!(got, want);
}
