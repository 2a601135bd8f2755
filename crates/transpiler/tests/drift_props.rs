//! Drift-timeline determinism, as properties: a [`CalibrationTimeline`] is
//! a pure function of `(initial, spec)` — same bits from any thread — and
//! the zero-volatility walk is not "approximately" static, it *is* the
//! static pipeline, bit for bit.

use paradrive_circuit::{Circuit, TwoQ};
use paradrive_transpiler::calibration::drift::{CalibrationTimeline, DriftSpec};
use paradrive_transpiler::calibration::Calibration;
use paradrive_transpiler::consolidate::consolidate;
use paradrive_transpiler::fidelity::FidelityModel;
use paradrive_transpiler::routing::{route_with_oracle, NoiseOracle, RouterOptions};
use paradrive_transpiler::schedule::{schedule_with_calibration, ScheduleOptions};
use paradrive_transpiler::topology::CouplingMap;
use paradrive_transpiler::{CostModel, GateCost};
use paradrive_weyl::WeylPoint;
use proptest::prelude::*;
use std::sync::Arc;

/// A stand-in cost model with irregular (but deterministic) costs.
struct Jagged;

impl CostModel for Jagged {
    fn cost(&self, target: WeylPoint) -> GateCost {
        let spread = 1.0 + (target.c1 * 37.0).sin().abs();
        GateCost {
            two_q_time: 0.7 * spread,
            one_q_layers: 2 + (target.c2 > 0.1) as usize,
        }
    }
    fn d_1q(&self) -> f64 {
        0.25
    }
}

fn initial_for(map: &CouplingMap, kind: u8, seed: u64) -> Calibration {
    let base = FidelityModel::paper();
    match kind % 3 {
        0 => Calibration::uniform(map, base),
        1 => Calibration::spread(map, base, 0.25, seed).expect("valid sigma"),
        _ => Calibration::hotspot(map, base, 2, seed).expect("valid k"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// (a) The same drift seed yields bit-identical timelines no matter
    /// how many threads generate them concurrently.
    #[test]
    fn prop_timeline_is_bit_identical_across_threads(
        drift_seed in 0u64..10_000,
        cal_kind in 0u8..3,
        cal_seed in 0u64..1000,
        sigma in 0.0..0.4f64,
        epochs in 2usize..6,
    ) {
        let map = CouplingMap::grid(3, 3);
        let initial = initial_for(&map, cal_kind, cal_seed);
        let spec = DriftSpec::walk(epochs, sigma, 1, drift_seed);
        let reference = CalibrationTimeline::generate(&initial, &map, &spec).expect("valid spec");

        let shared = Arc::new((initial, map, spec));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    let (initial, map, spec) = &*shared;
                    CalibrationTimeline::generate(initial, map, spec).expect("valid spec")
                })
            })
            .collect();
        for handle in handles {
            let timeline = handle.join().expect("no panic");
            prop_assert_eq!(timeline.epochs(), reference.epochs());
            for e in 0..reference.epochs() {
                // Calibration's PartialEq compares the raw f64 payloads, so
                // equality here is bit equality for every non-NaN field (and
                // the walk never produces NaN).
                prop_assert_eq!(timeline.snapshot(e), reference.snapshot(e), "epoch {}", e);
            }
        }
    }

    /// (b) Zero-volatility drift over a `uniform` calibration reproduces
    /// the static pipeline bit for bit at every epoch: same routes, same
    /// schedules, same fidelities.
    #[test]
    fn prop_calm_drift_over_uniform_is_the_static_pipeline(
        drift_seed in 0u64..10_000,
        route_seed in 0u64..1000,
        epochs in 1usize..5,
        n_gates in 1usize..=16,
        gates in proptest::collection::vec((0usize..9, 0usize..9, 0.1..3.0f64), 16),
    ) {
        let map = CouplingMap::grid(3, 3);
        let model = FidelityModel::paper();
        let initial = Calibration::uniform(&map, model);
        let timeline =
            CalibrationTimeline::generate(&initial, &map, &DriftSpec::calm(epochs, drift_seed))
                .expect("valid spec");

        let mut c = Circuit::new(9);
        for &(a, b, theta) in gates.iter().take(n_gates) {
            if a != b {
                c.push_2q(TwoQ::CPhase(theta), a, b);
            }
        }
        let run = |cal: &Calibration| {
            let options = RouterOptions::default();
            let oracle = NoiseOracle::new(&map, cal, options);
            let routed = route_with_oracle(&c, &map, Some(&oracle), route_seed, options)
                .expect("routable");
            let items = consolidate(&routed.circuit).expect("consolidates");
            let s = schedule_with_calibration(&items, &Jagged, 9, ScheduleOptions::default(), cal);
            let ft = cal.total_fidelity(s.duration, 9).expect("fits the device")
                * cal.gate_error_product(&items);
            (routed.circuit, routed.swaps_inserted, s.duration, ft)
        };
        let (static_circuit, static_swaps, static_duration, static_ft) = run(&initial);
        for epoch in 0..timeline.epochs() {
            let snap = timeline.snapshot(epoch);
            prop_assert!(snap.is_uniform(), "epoch {} lost uniformity", epoch);
            let (circuit, swaps, duration, ft) = run(snap);
            prop_assert_eq!(&circuit, &static_circuit);
            prop_assert_eq!(swaps, static_swaps);
            prop_assert_eq!(duration.to_bits(), static_duration.to_bits());
            prop_assert_eq!(ft.to_bits(), static_ft.to_bits());
        }
    }

    /// (c) Drifted calibrations always pass `validate_for` against their
    /// map, whatever the walk or event schedule did.
    #[test]
    fn prop_drifted_calibrations_validate_for_their_map(
        drift_seed in 0u64..10_000,
        cal_kind in 0u8..3,
        cal_seed in 0u64..1000,
        sigma in 0.0..0.5f64,
        dead_edges in 0usize..4,
        epochs in 2usize..6,
    ) {
        let map = CouplingMap::grid(3, 3);
        let initial = initial_for(&map, cal_kind, cal_seed);
        let spec = DriftSpec {
            epochs,
            qubit_sigma: sigma,
            edge_sigma: sigma,
            dead_edges,
            seed: drift_seed,
        };
        let timeline = CalibrationTimeline::generate(&initial, &map, &spec).expect("valid spec");
        for (epoch, snap) in timeline.iter().enumerate() {
            prop_assert!(snap.validate_for(&map).is_ok(), "epoch {} failed validation", epoch);
            prop_assert_eq!(snap.label(), initial.label());
        }
    }
}
