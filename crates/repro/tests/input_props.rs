//! Every reader of command-line or file input returns `Ok` or a typed
//! error on malformed text, and never panics: the topology, calibration,
//! drift and re-transpile policy grammars, the journal reader, the JSON
//! parser and the trace reader. A grammar case is one of its keywords
//! followed by random digits, punctuation and bytes; a reader case is a
//! valid file with a random stretch of it replaced by the same kind of
//! tail, so every field reader sees malformed values in place.

use paradrive_engine::RetranspilePolicy;
use paradrive_obs::{json, Trace};
use paradrive_repro::sweep::{
    parse_calibration, parse_drift, parse_journal, parse_topology, MAX_TOPOLOGY_QUBITS,
};
use paradrive_transpiler::calibration::drift::CalibrationTimeline;
use paradrive_transpiler::calibration::Calibration;
use paradrive_transpiler::fidelity::FidelityModel;
use paradrive_transpiler::topology::CouplingMap;
use proptest::prelude::*;

/// What a tail is made of: digits, the grammars' number punctuation and
/// separators, and JSON structure. An index past the end takes the
/// case's random byte instead.
const ALPHABET: &[u8] = b"0123456789.-+eExXdk_naifNIF,:[]{}\" \\\n";

/// The longest tail a case appends.
const TAIL: usize = 24;

/// A journal with each line type, and each verification shape a cell
/// line can carry.
const JOURNAL: &str = concat!(
    r#"{"type":"sweep-meta","fingerprint":"b8f59f9362b550fa","shards":2,"shard":1}"#,
    "\n",
    r#"{"type":"cell","ordinal":1,"digest":"b1d0d298b9467671","topology":"grid4x4","calibration":"spread0.2","benchmark":"GHZ","costing":"hull","verify":"sampled","suite_seed":"7","epoch":1,"decision":"retrans","swaps":11,"depth":27,"blocks":23,"baseline_duration":44.25,"optimized_duration":38.5,"reduction_pct":12.994350282485875,"ft_improvement_pct":9.616913530898815,"optimized_ft":0.5407464348997442,"verification":{"method":"sampled","min_fidelity":0.9999999999999543,"samples":8,"width":16,"passed":true}}"#,
    "\n",
    r#"{"type":"cell","ordinal":3,"digest":"b1d0d198b94674be","topology":"ring16","calibration":"uniform","benchmark":"QFT","costing":"synth","verify":"mps","suite_seed":"11","swaps":9,"depth":25,"blocks":21,"baseline_duration":"inf","optimized_duration":34.5,"reduction_pct":"NaN","ft_improvement_pct":8.76,"optimized_ft":0.57,"verification":{"method":"mps","fidelity":1,"trunc_bound":0,"max_bond_used":2,"width":16,"passed":true}}"#,
    "\n",
    r#"{"type":"cell","ordinal":5,"digest":"00000000000000ff","topology":"line5","calibration":"hotspot2","benchmark":"VQE_L","costing":"hull","verify":"off","suite_seed":"0","epoch":0,"decision":"-","swaps":0,"depth":4,"blocks":4,"baseline_duration":1,"optimized_duration":1,"reduction_pct":0,"ft_improvement_pct":0,"optimized_ft":1,"verification":null}"#,
    "\n",
    r#"{"type":"fleet","epoch":0,"route_reuse_rate":0}"#,
    "\n",
    r#"{"type":"shard-done","cells":3}"#,
    "\n",
);

/// A trace with both entry types.
const TRACE: &str = concat!(
    r#"{"type":"span","name":"route","label":"GHZ@7#0","key":0,"tid":1,"start_ns":224068,"dur_ns":80831}"#,
    "\n",
    r#"{"type":"counter","name":"hull.sampled.epoch0.route.oracles","value":3}"#,
    "\n",
);

/// Up to `TAIL` random tail characters, each an alphabet index and the
/// byte it falls back to.
fn tail() -> impl Strategy<Value = Vec<(usize, u8)>> {
    proptest::collection::vec((0..ALPHABET.len() + 6, 0u8..=255), TAIL)
}

/// `head` followed by the tail's first `len` characters, read as UTF-8
/// with invalid bytes replaced.
fn text(head: &str, tail: &[(usize, u8)], len: usize) -> String {
    let mut bytes = head.as_bytes().to_vec();
    bytes.extend(
        (tail[..len.min(TAIL)].iter()).map(|&(i, byte)| ALPHABET.get(i).copied().unwrap_or(byte)),
    );
    String::from_utf8_lossy(&bytes).into_owned()
}

/// The ASCII document `doc` with `skip` bytes from `cut` on replaced by
/// the tail's first `len` characters.
fn spliced(doc: &str, cut: usize, skip: usize, tail: &[(usize, u8)], len: usize) -> String {
    let cut = cut % (doc.len() + 1);
    let mut out = text(&doc[..cut], tail, len);
    out.push_str(&doc[(cut + skip).min(doc.len())..]);
    out
}

/// The small device the calibration and drift grammars generate on.
fn device() -> CouplingMap {
    CouplingMap::grid(3, 3)
}

const TOPOLOGIES: [&str; 8] = [
    "grid",
    "line",
    "ring",
    "heavyhex",
    "heavy_hex",
    "modular",
    "GRID-",
    "",
];
const CALIBRATIONS: [&str; 6] = ["uniform", "spread", "hotspot", "gradient", "SPREAD", ""];
const DRIFTS: [&str; 6] = ["calm", "walk", "walk0.1dead", "walkdead", "WALK", ""];
const POLICIES: [&str; 5] = ["never", "always", "adaptive", "ADAPTIVE", ""];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn topology_names_parse_or_fail_typed(
        pick in 0..TOPOLOGIES.len(),
        len in 0..=TAIL,
        tail in tail(),
    ) {
        let name = text(TOPOLOGIES[pick], &tail, len);
        match parse_topology(&name) {
            Ok(map) => prop_assert!(map.n_qubits() <= MAX_TOPOLOGY_QUBITS, "{name:?}"),
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
    }

    #[test]
    fn calibration_names_parse_or_fail_typed(
        pick in 0..CALIBRATIONS.len(),
        len in 0..=TAIL,
        tail in tail(),
        seed in 0u64..1000,
    ) {
        let name = text(CALIBRATIONS[pick], &tail, len);
        if let Err(e) = parse_calibration(&name, &device(), FidelityModel::paper(), seed) {
            prop_assert!(!e.to_string().is_empty());
        }
    }

    /// A drift scenario that parses also generates a timeline, or fails
    /// typed there: the sweep planner runs both on the same flag.
    #[test]
    fn drift_names_parse_and_generate_or_fail_typed(
        pick in 0..DRIFTS.len(),
        len in 0..=TAIL,
        tail in tail(),
        epochs in 1usize..5,
    ) {
        let name = text(DRIFTS[pick], &tail, len);
        match parse_drift(&name) {
            Ok(scenario) => {
                let map = device();
                let cal = Calibration::uniform(&map, FidelityModel::paper());
                let _ = CalibrationTimeline::generate(&cal, &map, &scenario.spec(epochs, 3));
            }
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
    }

    /// A policy that parses prints a label that parses back to it.
    #[test]
    fn policy_names_parse_or_fail_typed(
        pick in 0..POLICIES.len(),
        len in 0..=TAIL,
        tail in tail(),
    ) {
        let name = text(POLICIES[pick], &tail, len);
        match name.parse::<RetranspilePolicy>() {
            Ok(policy) => prop_assert_eq!(policy.label().parse::<RetranspilePolicy>(), Ok(policy)),
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
    }

    #[test]
    fn journals_parse_or_fail_typed(
        cut in 0..JOURNAL.len() + 1,
        skip in 0usize..12,
        len in 0..=TAIL,
        tail in tail(),
    ) {
        let journal = spliced(JOURNAL, cut, skip, &tail, len);
        if let Err(e) = parse_journal(&journal, "case") {
            prop_assert!(!e.to_string().is_empty());
        }
    }

    /// Any stretch of a journal or trace line, and nesting past the
    /// parser's depth limit.
    #[test]
    fn json_parses_or_fails_typed(
        pick in 0usize..4,
        cut in 0usize..2000,
        skip in 0usize..12,
        len in 0..=TAIL,
        tail in tail(),
    ) {
        let deep_arrays = "[".repeat(200);
        let deep_objects = r#"{"a":"#.repeat(200);
        let doc = [JOURNAL, TRACE, &deep_arrays, &deep_objects][pick];
        let line = spliced(doc, cut, skip, &tail, len);
        if let Err(e) = json::parse(&line) {
            prop_assert!(e.offset <= line.len(), "{e}");
        }
    }

    #[test]
    fn traces_parse_or_fail_typed(
        cut in 0..TRACE.len() + 1,
        skip in 0usize..12,
        len in 0..=TAIL,
        tail in tail(),
    ) {
        if let Err(e) = Trace::from_jsonl(&spliced(TRACE, cut, skip, &tail, len)) {
            prop_assert!(!e.is_empty());
        }
    }
}

/// Inputs at the edges of each grammar's numbers: counts that overflow
/// `usize`, a non-number where the drift's sigma goes, and trace numbers
/// that are negative, fractional or past what an `f64` carries exactly.
#[test]
fn overflowing_and_non_numeric_parameters_fail_typed() {
    assert!(parse_topology("grid4294967296x4294967296").is_err());
    assert!(parse_topology("line18446744073709551616").is_err());
    let map = device();
    for name in ["hotspot18446744073709551615", "spread1e308", "gradientnan"] {
        let parsed = parse_calibration(name, &map, FidelityModel::paper(), 1);
        assert!(parsed.is_err(), "{name}");
    }
    // `walknan` parses (`nan` is an f64), and the generator rejects it.
    let scenario = parse_drift("walknan").expect("nan is a float");
    let cal = Calibration::uniform(&map, FidelityModel::paper());
    assert!(CalibrationTimeline::generate(&cal, &map, &scenario.spec(3, 1)).is_err());

    let span = r#"{"type":"span","name":"route","label":"x","key":-3,"tid":4294967297.9,"start_ns":-1e30,"dur_ns":1.5}"#;
    let err = Trace::from_jsonl(span).unwrap_err();
    assert!(err.contains("line 1") && err.contains("`key`"), "{err}");
    // Each bad field alone, on an otherwise valid span, then a counter.
    let ok = TRACE.lines().next().unwrap();
    for (field, from, to) in [
        ("key", "\"key\":0", "\"key\":9007199254740992"),
        ("tid", "\"tid\":1", "\"tid\":4294967296"),
        ("start_ns", "\"start_ns\":224068", "\"start_ns\":-1"),
        ("dur_ns", "\"dur_ns\":80831", "\"dur_ns\":1.5"),
    ] {
        let err = Trace::from_jsonl(&ok.replace(from, to)).unwrap_err();
        assert!(err.contains(&format!("`{field}`")), "{field}: {err}");
    }
    let counter = r#"{"type":"counter","name":"n","value":1e300}"#;
    let err = Trace::from_jsonl(counter).unwrap_err();
    assert!(err.contains("`value`"), "{err}");
}
