//! Sweep-layer overhead: the streaming sharded executor end to end.
//!
//! Three rows:
//!
//! - `sweep/smoke_single` — the whole smoke grid in one process: plan,
//!   stream, roll up, render. The baseline the sharding machinery must
//!   not regress.
//! - `sweep/smoke_sharded_merge` — the same grid cut into two shards and
//!   recombined with `merge_reports`, including an in-memory JSONL round
//!   trip through the shard-report dialect (no filesystem, so the row
//!   stays stable under the regression gate). Measures the full sharding
//!   tax: double planning, serialization, parsing, coverage validation
//!   and rollup refold.
//! - `sweep/rollup_fold` — the pure rollup layer: folding 10k synthetic
//!   cells, in ordinal order, into a `RunRollup` and finalizing. This is
//!   the per-cell cost of the one fold every outcome takes after its
//!   cells are sorted, isolated from the engine.

use criterion::{criterion_group, criterion_main, Criterion};
use paradrive_repro::sweep::{
    merge_reports, parse_journal, run_sweep, run_sweep_shard, RunRollup, ShardOptions, SweepCell,
    SweepSpec,
};
use std::hint::black_box;
use std::time::Duration;

fn smoke_spec() -> SweepSpec {
    let mut spec = SweepSpec::smoke();
    spec.threads = 1; // keep the measurement single-threaded and stable
    spec
}

fn bench_single(c: &mut Criterion) {
    let spec = smoke_spec();
    c.bench_function("sweep/smoke_single", |b| {
        b.iter(|| {
            let out = run_sweep(black_box(&spec)).unwrap();
            black_box(out.render())
        })
    });
}

fn bench_sharded_merge(c: &mut Criterion) {
    let spec = smoke_spec();
    c.bench_function("sweep/smoke_sharded_merge", |b| {
        b.iter(|| {
            let mut reports = Vec::new();
            for shard in 0..2 {
                let out = run_sweep_shard(
                    black_box(&spec),
                    &ShardOptions {
                        shards: 2,
                        shard,
                        ..ShardOptions::default()
                    },
                )
                .unwrap();
                let name = format!("bench_shard{shard}");
                let contents = parse_journal(&out.to_jsonl(), &name).unwrap();
                reports.push((name, contents));
            }
            let merged = merge_reports(&spec, reports).unwrap();
            black_box(merged.render())
        })
    });
}

fn bench_rollup_fold(c: &mut Criterion) {
    // Synthetic cells cycling over a handful of group keys, like a real
    // grid does, with values that vary from cell to cell.
    let topologies = ["grid4x4", "ring16", "heavy-hex3", "modular2x8x2"];
    let calibrations = ["uniform", "spread0.25", "hotspot2"];
    let cells: Vec<SweepCell> = (0..10_000u64)
        .map(|i| SweepCell {
            ordinal: i,
            digest: i.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            topology: topologies[i as usize % topologies.len()].to_string(),
            calibration: calibrations[i as usize % calibrations.len()].to_string(),
            benchmark: "GHZ".to_string(),
            costing: "hull",
            verify: "off",
            verification: None,
            suite_seed: 7,
            epoch: 0,
            decision: "-",
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
    c.bench_function("sweep/rollup_fold", |b| {
        b.iter(|| {
            let mut rollup = RunRollup::new();
            for cell in &cells {
                rollup.absorb(black_box(cell));
            }
            black_box((rollup.by_topology(), rollup.by_calibration()))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_single, bench_sharded_merge, bench_rollup_fold
}
criterion_main!(benches);
