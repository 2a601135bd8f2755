//! The calibration subsystem's backwards-compatibility guarantee, as
//! properties: a **uniform** calibration is not "approximately" the legacy
//! homogeneous pipeline — it is the same arithmetic, bit for bit, for any
//! model parameters, any duration, any circuit.

use paradrive_circuit::{Circuit, TwoQ};
use paradrive_transpiler::calibration::Calibration;
use paradrive_transpiler::consolidate::consolidate;
use paradrive_transpiler::fidelity::FidelityModel;
use paradrive_transpiler::routing::{route, route_with_oracle, NoiseOracle, RouterOptions};
use paradrive_transpiler::schedule::{schedule, schedule_with_calibration, ScheduleOptions};
use paradrive_transpiler::topology::CouplingMap;
use paradrive_transpiler::{CostModel, GateCost};
use paradrive_weyl::WeylPoint;
use proptest::prelude::*;

/// A stand-in cost model with irregular (but deterministic) costs, so the
/// scheduling comparison exercises non-trivial floats.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Eq. 10/11 under a uniform calibration reproduce the homogeneous
    /// model's exact bits for arbitrary (valid) timings and durations.
    #[test]
    fn prop_uniform_fidelity_is_bit_identical(
        iswap_ns in 10.0..500.0f64,
        t1_us in 10.0..1000.0f64,
        duration in 0.0..2000.0f64,
        n_wires in 1usize..=16,
    ) {
        let model = FidelityModel::new(iswap_ns, t1_us * 1000.0).expect("valid timings");
        let map = CouplingMap::grid(4, 4);
        let cal = Calibration::uniform(&map, model);
        prop_assert!(cal.is_uniform());
        prop_assert_eq!(
            cal.wire_fidelity(0, duration).unwrap().to_bits(),
            model.qubit_fidelity(duration).to_bits()
        );
        prop_assert_eq!(
            cal.total_fidelity(duration, n_wires).unwrap().to_bits(),
            model.total_fidelity(duration, n_wires).to_bits()
        );
    }

    /// Routing, scheduling and the gate-error survival product under a
    /// uniform calibration reproduce the legacy pipeline exactly on random
    /// circuits.
    #[test]
    fn prop_uniform_pipeline_is_bit_identical(
        seed in 0u64..1000,
        n_gates in 1usize..=24,
        gates in proptest::collection::vec((0usize..9, 0usize..9, 0.1..3.0f64), 24),
    ) {
        let map = CouplingMap::grid(3, 3);
        let model = FidelityModel::paper();
        let cal = Calibration::uniform(&map, model);
        let mut c = Circuit::new(9);
        for &(a, b, theta) in gates.iter().take(n_gates) {
            if a != b {
                c.push_2q(TwoQ::CPhase(theta), a, b);
            }
        }
        // Noise-aware routing over a uniform calibration degrades to the
        // noise-blind router: same SWAPs, same circuit, same layout.
        let blind = route(&c, &map, seed).expect("routable");
        let oracle = NoiseOracle::new(&map, &cal, RouterOptions::default());
        let aware = route_with_oracle(&c, &map, Some(&oracle), seed, RouterOptions::default())
            .expect("routable");
        prop_assert_eq!(&blind.circuit, &aware.circuit);
        prop_assert_eq!(blind.swaps_inserted, aware.swaps_inserted);

        let items = consolidate(&blind.circuit).expect("consolidates");
        let plain = schedule(&items, &Jagged, 9);
        let calibrated =
            schedule_with_calibration(&items, &Jagged, 9, ScheduleOptions::default(), &cal);
        prop_assert_eq!(plain.duration.to_bits(), calibrated.duration.to_bits());
        prop_assert_eq!(
            plain.total_two_q_time.to_bits(),
            calibrated.total_two_q_time.to_bits()
        );
        for (p, q) in plain.qubit_finish.iter().zip(&calibrated.qubit_finish) {
            prop_assert_eq!(p.to_bits(), q.to_bits());
        }
        // Zero-error edges survive with probability exactly 1, so the
        // calibrated F_T multiplier never perturbs the homogeneous bits.
        prop_assert_eq!(cal.gate_error_product(&items).to_bits(), 1.0f64.to_bits());
        prop_assert_eq!(
            (cal.total_fidelity(plain.duration, 9).unwrap() * cal.gate_error_product(&items))
                .to_bits(),
            model.total_fidelity(plain.duration, 9).to_bits()
        );
    }
}
