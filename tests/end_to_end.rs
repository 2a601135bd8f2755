//! Workspace-spanning integration tests: drive the public API through the
//! same pipelines the paper's evaluation uses.

use paradrive::circuit::benchmarks;
use paradrive::core::rules::{BaselineSqrtIswap, ParallelDriveRules};
use paradrive::engine::{run_batch, Batch, EngineConfig};
use paradrive::hamiltonian::{ConversionGain, ParallelDriveBuilder};
use paradrive::optimizer::{TemplateSpec, TemplateSynthesizer};
use paradrive::speedlimit::{Characterized, DurationScale, Linear, SpeedLimit, Squared};
use paradrive::transpiler::consolidate::consolidate;
use paradrive::transpiler::routing::route_best_of;
use paradrive::transpiler::schedule::schedule;
use paradrive::transpiler::topology::CouplingMap;
use paradrive::weyl::magic::coordinates;
use paradrive::weyl::WeylPoint;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::f64::consts::{FRAC_PI_2, FRAC_PI_4};

#[test]
fn hamiltonian_to_speedlimit_chain() {
    // Build a CNOT-class pulse from the Hamiltonian, extract its chamber
    // point, and price it under all three speed limits.
    let pulse = ConversionGain::new(FRAC_PI_4, FRAC_PI_4).unitary(1.0);
    let p = coordinates(&pulse).unwrap();
    assert!(p.approx_eq(WeylPoint::CNOT, 1e-8));

    let expectations: [(&dyn SpeedLimit, f64); 3] = [
        (&Linear::normalized(), 1.0),
        (&Squared::normalized(), std::f64::consts::FRAC_1_SQRT_2),
        (&Characterized::snail(), 1.8),
    ];
    for (slf, want) in expectations {
        let scale = DurationScale::new(slf);
        let got = scale.pulse_duration(p).unwrap();
        assert!(
            (got - want).abs() < 5e-3,
            "{}: CNOT pulse duration {got}, want {want}",
            slf.name()
        );
    }
}

#[test]
fn synthesis_to_pulse_replay() {
    // Synthesize parallel-drive parameters for iSWAP → CNOT, rebuild the
    // physical pulse from them, and verify the replayed unitary lands on
    // the CNOT class.
    let spec = TemplateSpec::iswap_basis(1);
    let mut rng = StdRng::seed_from_u64(12);
    let out = TemplateSynthesizer::new(spec)
        .with_restarts(10)
        .synthesize_to_point(WeylPoint::CNOT, &mut rng)
        .unwrap();
    assert!(out.converged, "loss {}", out.loss);

    let base = ConversionGain::try_new(FRAC_PI_2, 0.0, out.params[0], out.params[1]).unwrap();
    let mut builder = ParallelDriveBuilder::new(base);
    for i in 0..4 {
        builder = builder.segment(out.params[2 + i], out.params[6 + i]);
    }
    let pulse = builder.total_time(1.0).build().unwrap();
    let replayed = coordinates(&pulse.unitary()).unwrap();
    assert!(
        replayed.chamber_dist(WeylPoint::CNOT) < 1e-3,
        "replayed pulse at {replayed}"
    );
}

#[test]
fn routed_circuit_stays_semantically_sane() {
    let map = CouplingMap::grid(4, 4);
    let c = benchmarks::qaoa(16, 1, 3);
    let routed = route_best_of(&c, &map, 3).unwrap();
    // Routing only adds SWAPs.
    assert_eq!(
        routed.circuit.two_q_count(),
        c.two_q_count() + routed.swaps_inserted
    );
    assert_eq!(routed.circuit.one_q_count(), c.one_q_count());
    // All consolidated blocks are unitary with valid chamber points.
    let items = consolidate(&routed.circuit).unwrap();
    for item in &items {
        if let paradrive::transpiler::consolidate::Item::Block { unitary, point, .. } = item {
            assert!(unitary.is_unitary(1e-8));
            assert!(point.in_chamber(1e-6));
        }
    }
}

#[test]
fn schedule_duration_monotone_in_1q_cost() {
    let map = CouplingMap::grid(4, 4);
    let c = benchmarks::ghz(16);
    let routed = route_best_of(&c, &map, 2).unwrap();
    let items = consolidate(&routed.circuit).unwrap();
    let mut last = 0.0;
    for d1q in [0.0, 0.1, 0.25, 0.5] {
        let s = schedule(&items, &BaselineSqrtIswap::new(d1q), 16);
        assert!(
            s.duration >= last,
            "duration decreased with more 1Q cost: {} < {last}",
            s.duration
        );
        last = s.duration;
    }
}

#[test]
fn optimized_flow_never_slower_across_suite_sample() {
    let mut batch = Batch::new(CouplingMap::grid(4, 4));
    for b in benchmarks::standard_suite(5)
        .into_iter()
        .filter(|b| matches!(b.name, "GHZ" | "VQE_L" | "QAOA"))
    {
        batch.push(b.name, b.circuit);
    }
    let report = run_batch(&batch, &EngineConfig::default().routing_seeds(2)).unwrap();
    for r in report.circuits.iter().map(|c| &c.result) {
        assert!(
            r.optimized_duration <= r.baseline_duration + 1e-9,
            "{}: optimized {} > baseline {}",
            r.name,
            r.optimized_duration,
            r.baseline_duration
        );
        assert!(r.duration_reduction_pct > 0.0, "{}: no gain", r.name);
    }
}

#[test]
fn cost_models_agree_on_identity_blocks() {
    // A CX followed by its inverse consolidates to the identity class and
    // must be free under both models.
    let mut c = paradrive::circuit::Circuit::new(2);
    c.push_2q(paradrive::circuit::TwoQ::Cx, 0, 1);
    c.push_2q(paradrive::circuit::TwoQ::Cx, 0, 1);
    let items = consolidate(&c).unwrap();
    let base = schedule(&items, &BaselineSqrtIswap::new(0.25), 2);
    let opt = schedule(&items, &ParallelDriveRules::new(0.25), 2);
    assert_eq!(base.duration, 0.0);
    assert_eq!(opt.duration, 0.0);
}
