//! Fleet-layer overhead: drift timelines and the policy-driven epoch
//! replay, end to end through the sweep executor.
//!
//! Three rows:
//!
//! - `fleet/timeline_gen` — generating a seeded drift timeline (the
//!   lognormal walk plus dead-edge events) for a 16-qubit device. This
//!   is pure pre-processing the drifted sweep pays before any engine
//!   work.
//! - `fleet/smoke_adaptive` — a small drifted sweep under the adaptive
//!   policy: plan, replay three epochs through `run_fleet`, roll up,
//!   render. The baseline the recalibration machinery must not regress
//!   against the static `sweep/smoke_single` path.
//! - `fleet/rollup_fleet_fold` — the pure fleet-summary fold: folding
//!   10k decision-carrying cells and finalizing the per-epoch rollup.
//!   This is the extra per-cell fold cost a drifted sweep pays over a
//!   static one.

use criterion::{criterion_group, criterion_main, Criterion};
use paradrive_engine::RetranspilePolicy;
use paradrive_repro::sweep::{run_sweep, RunRollup, SweepCell, SweepSpec};
use paradrive_transpiler::calibration::drift::{CalibrationTimeline, DriftSpec};
use paradrive_transpiler::calibration::Calibration;
use paradrive_transpiler::fidelity::FidelityModel;
use paradrive_transpiler::topology::CouplingMap;
use std::hint::black_box;
use std::time::Duration;

fn bench_timeline_gen(c: &mut Criterion) {
    let map = CouplingMap::grid(4, 4);
    let cal = Calibration::uniform(&map, FidelityModel::paper());
    let spec = DriftSpec {
        epochs: 8,
        qubit_sigma: 0.03,
        edge_sigma: 0.05,
        dead_edges: 2,
        seed: 29,
    };
    c.bench_function("fleet/timeline_gen", |b| {
        b.iter(|| {
            CalibrationTimeline::generate(black_box(&cal), black_box(&map), black_box(&spec))
                .unwrap()
        })
    });
}

fn bench_smoke_adaptive(c: &mut Criterion) {
    let mut spec = SweepSpec::smoke();
    spec.threads = 1; // keep the measurement single-threaded and stable
    spec.topologies = vec!["grid4x4".into()];
    spec.benchmarks = vec!["GHZ".into()];
    spec.drift = Some("walk0.02dead1".into());
    spec.epochs = 3;
    spec.policy = RetranspilePolicy::Adaptive {
        max_fidelity_loss: 0.05,
    };
    c.bench_function("fleet/smoke_adaptive", |b| {
        b.iter(|| {
            let out = run_sweep(black_box(&spec)).unwrap();
            black_box(out.render())
        })
    });
}

fn bench_rollup_fleet_fold(c: &mut Criterion) {
    // Synthetic decision-carrying cells over a handful of epochs, like a
    // drifted grid produces.
    let decisions = ["fresh", "kept", "retrans"];
    let cells: Vec<SweepCell> = (0..10_000u64)
        .map(|i| SweepCell {
            ordinal: i,
            digest: i.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            topology: "grid4x4".to_string(),
            calibration: "uniform".to_string(),
            benchmark: "GHZ".to_string(),
            costing: "hull",
            verify: "off",
            verification: None,
            suite_seed: 7,
            epoch: (i % 8) as usize,
            decision: if i % 8 == 0 {
                "fresh"
            } else {
                decisions[(i % 3) as usize]
            },
            swaps: (i % 9) as usize,
            depth: 20,
            blocks: 12,
            baseline_duration: 1e3 + i as f64,
            optimized_duration: 9e2 + i as f64 * 0.5,
            reduction_pct: 10.0 + (i % 77) as f64 * 1e-3,
            ft_improvement_pct: 2.5,
            optimized_ft: 0.9 - (i % 13) as f64 * 1e-4,
            wall: Duration::ZERO,
        })
        .collect();
    c.bench_function("fleet/rollup_fleet_fold", |b| {
        b.iter(|| {
            let mut rollup = RunRollup::new();
            for cell in &cells {
                rollup.absorb(black_box(cell));
            }
            black_box(rollup.fleet())
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_timeline_gen, bench_smoke_adaptive, bench_rollup_fleet_fold
}
criterion_main!(benches);
