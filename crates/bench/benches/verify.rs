//! Verification-oracle throughput: what each rigor level costs per
//! circuit, and what the fused consolidated-block replay buys over the
//! raw routed gate stream (the engine always takes the fused path).

use criterion::{criterion_group, criterion_main, Criterion};
use paradrive_circuit::benchmarks;
use paradrive_engine::{run_batch, Batch, EngineConfig, VerifyLevel};
use paradrive_transpiler::consolidate::consolidate;
use paradrive_transpiler::routing::route;
use paradrive_transpiler::topology::CouplingMap;
use paradrive_verify::{verify, Physical, VerifyConfig};
use std::hint::black_box;

/// Exact oracle on a dense-range circuit: qft(8) routed on a 3×3 grid
/// (≤ 9-qubit support → 512 basis columns).
fn bench_exact_oracle(c: &mut Criterion) {
    let map = CouplingMap::grid(3, 3);
    let circuit = benchmarks::qft(8);
    let routed = route(&circuit, &map, 0).expect("routable");
    let items = consolidate(&routed.circuit).expect("consolidatable");
    let cfg = VerifyConfig::default().level(VerifyLevel::Exact);
    c.bench_function("verify/exact/qft8-grid3x3", |b| {
        b.iter(|| {
            verify(
                black_box(&circuit),
                &Physical::Consolidated {
                    items: &items,
                    n_qubits: map.n_qubits(),
                },
                &routed.layout,
                &cfg,
            )
            .unwrap()
        })
    });
}

/// Monte-Carlo oracle on the wide (16-qubit) regime, fused vs unfused:
/// the consolidated stream applies one 4×4 per block where the raw routed
/// circuit replays every primitive gate.
fn bench_sampled_fusion(c: &mut Criterion) {
    let map = CouplingMap::grid(4, 4);
    let circuit = benchmarks::qft(16);
    let routed = route(&circuit, &map, 0).expect("routable");
    let items = consolidate(&routed.circuit).expect("consolidatable");
    let cfg = VerifyConfig::default().samples(2);
    for (label, physical) in [
        (
            "fused-blocks",
            Physical::Consolidated {
                items: &items,
                n_qubits: map.n_qubits(),
            },
        ),
        ("raw-gates", Physical::Circuit(&routed.circuit)),
    ] {
        c.bench_function(&format!("verify/sampled/qft16-{label}"), |b| {
            b.iter(|| verify(black_box(&circuit), &physical, &routed.layout, &cfg).unwrap())
        });
    }
}

/// Monte-Carlo oracle on the deepest Table VII workload: Multiplier-16
/// routed on the 4×4 grid and replayed as consolidated blocks, as the
/// engine replays it, with two samples.
fn bench_sampled_multiplier(c: &mut Criterion) {
    let map = CouplingMap::grid(4, 4);
    let circuit = benchmarks::multiplier(4);
    let routed = route(&circuit, &map, 0).expect("routable");
    let items = consolidate(&routed.circuit).expect("consolidatable");
    let physical = Physical::Consolidated {
        items: &items,
        n_qubits: map.n_qubits(),
    };
    let cfg = VerifyConfig::default().samples(2);
    c.bench_function("verify/sampled/multiplier16", |b| {
        b.iter(|| verify(black_box(&circuit), &physical, &routed.layout, &cfg).unwrap())
    });
}

/// The engine-integrated path: a family-class batch with Monte-Carlo
/// verification, one pool unit per sample.
fn bench_engine_verified_batch(c: &mut Criterion) {
    let mut batch = Batch::new(CouplingMap::grid(4, 4));
    batch.push("ghz16", benchmarks::ghz(16));
    batch.push("vqe16", benchmarks::vqe_linear(16, 2, 3));
    let config = EngineConfig::default()
        .routing_seeds(2)
        .verify(VerifyLevel::Sampled)
        .verify_samples(2);
    c.bench_function("verify/engine/sampled-batch", |b| {
        b.iter(|| run_batch(black_box(&batch), &config).unwrap())
    });
}

criterion_group!(
    benches,
    bench_exact_oracle,
    bench_sampled_fusion,
    bench_sampled_multiplier,
    bench_engine_verified_batch
);
criterion_main!(benches);
