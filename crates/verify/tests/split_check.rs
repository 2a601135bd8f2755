//! A prepared check run unit by unit, in any order, gives exactly the
//! verdict `verify` returns: the same fidelity bits, the same pass/fail.

use paradrive_circuit::{benchmarks, Circuit, OneQ};
use paradrive_transpiler::consolidate::consolidate;
use paradrive_transpiler::routing::route;
use paradrive_transpiler::topology::CouplingMap;
use paradrive_verify::{
    verify, Physical, PreparedCheck, RegisterPair, Verification, VerifyConfig, VerifyLevel,
};

/// Runs `check`'s units last to first on one register pair, then folds
/// the outcomes back into unit order.
fn run_reversed(check: &PreparedCheck<'_>) -> Verification {
    let mut registers = RegisterPair::default();
    let mut outcomes: Vec<_> = (0..check.units())
        .rev()
        .map(|unit| check.run_unit(unit, &mut registers))
        .collect();
    outcomes.reverse();
    check.fold(outcomes).unwrap()
}

/// Asserts the split and the sequential verdicts agree bit for bit.
fn assert_split_matches(original: &Circuit, physical: &Physical<'_>, layout: &[usize], k: u32) {
    let cfg = VerifyConfig::default()
        .level(VerifyLevel::Sampled)
        .samples(k)
        .seed(41);
    let check = PreparedCheck::prepare(original, physical, layout, &cfg).unwrap();
    assert!(check.is_sampled());
    assert_eq!(check.units(), k as usize);
    let split = run_reversed(&check);
    let sequential = verify(original, physical, layout, &cfg).unwrap();
    assert_eq!(split, sequential, "K={k}");
    assert_eq!(
        split.fidelity().unwrap().to_bits(),
        sequential.fidelity().unwrap().to_bits(),
        "K={k}"
    );
    match split {
        Verification::Sampled { samples, .. } => assert_eq!(samples, k as usize),
        other => panic!("unexpected verdict {other}"),
    }
}

#[test]
fn reversed_units_match_verify_on_a_passing_route() {
    // QAOA on a 3×3 grid: six logical wires plus ancillas, consolidated
    // as the engine replays it.
    let c = benchmarks::qaoa(6, 2, 7);
    let map = CouplingMap::grid(3, 3);
    let routed = route(&c, &map, 0).unwrap();
    let items = consolidate(&routed.circuit).unwrap();
    let physical = Physical::Consolidated {
        items: &items,
        n_qubits: map.n_qubits(),
    };
    for k in [1, 2, 5] {
        assert_split_matches(&c, &physical, &routed.layout, k);
    }
    let cfg = VerifyConfig::default().samples(5);
    assert!(!verify(&c, &physical, &routed.layout, &cfg)
        .unwrap()
        .failed());
}

#[test]
fn reversed_units_match_verify_on_a_planted_defect() {
    let c = benchmarks::ghz(5);
    let map = CouplingMap::line(5);
    let routed = route(&c, &map, 0).unwrap();
    // An extra X deep in the transpiled output.
    let mut bad = routed.circuit.clone();
    bad.push_1q(OneQ::X, 2);
    let physical = Physical::Circuit(&bad);
    for k in [1, 2, 5] {
        assert_split_matches(&c, &physical, &routed.layout, k);
        let cfg = VerifyConfig::default().samples(k);
        let v = verify(&c, &physical, &routed.layout, &cfg).unwrap();
        assert!(v.failed(), "K={k}: planted bug not caught ({v})");
    }
}

#[test]
fn other_rungs_are_one_unit() {
    let c = benchmarks::ghz(5);
    let map = CouplingMap::ring(6);
    let routed = route(&c, &map, 3).unwrap();
    let physical = Physical::Circuit(&routed.circuit);
    for level in [VerifyLevel::Off, VerifyLevel::Exact, VerifyLevel::Mps] {
        let cfg = VerifyConfig::default().level(level).samples(4);
        let check = PreparedCheck::prepare(&c, &physical, &routed.layout, &cfg).unwrap();
        assert!(!check.is_sampled(), "{level}");
        assert_eq!(check.units(), 1, "{level}");
        assert_eq!(
            run_reversed(&check),
            verify(&c, &physical, &routed.layout, &cfg).unwrap(),
            "{level}"
        );
    }
}
