//! Scenario sweeps: the topology × benchmark × costing × calibration ×
//! verification × seed cross-product, run as one heterogeneous engine
//! batch per (costing, verification) pair.
//!
//! The paper's headline claims are topology-sensitive — sparse coupling
//! maps insert more routing SWAPs, and every SWAP is a 2Q block the
//! parallel-drive rules discount — so the sweep drives the whole
//! [`topology zoo`](paradrive_transpiler::topology) through the batched
//! engine and reports per-cell routing, duration and fidelity numbers
//! plus per-topology and per-calibration rollups. Device heterogeneity
//! is the fourth axis: every
//! [`calibration scenario family`](paradrive_transpiler::calibration) is
//! instantiated per topology from one deterministic
//! [`SweepSpec::calibration_seed`], and [`SweepSpec::noise_aware`] routes
//! around high-error edges. Semantic verification is the fifth axis
//! ([`SweepSpec::verify`]): each level replays every cell's consolidated
//! output through the [`paradrive_verify`](paradrive_engine::Verification)
//! equivalence oracles, turning the sweep into a self-checking experiment.
//! Calibration drift is the sixth axis ([`SweepSpec::drift`]): a seeded
//! [drift timeline](paradrive_transpiler::calibration::drift) replays the
//! grid across [`SweepSpec::epochs`] calibration snapshots under a
//! [re-transpilation policy](paradrive_engine::RetranspilePolicy), adding
//! an innermost epoch axis to every cell plus per-epoch fleet rollups
//! (mean delivered fidelity, route reuse, re-transpile rate).
//!
//! # Layered for sharding
//!
//! The sweep is split into layers so one grid can be cut across
//! processes and recombined without changing a byte of the report:
//!
//! - [`spec`](self): axes and their parsers ([`SweepSpec`],
//!   [`parse_topology`], [`parse_calibration`]) plus the typed error
//!   surface ([`SweepError`], [`CalibrationParseError`]).
//! - `cell`: deterministic cell identity — [`SweepPlan`] enumerates the
//!   grid in canonical order, assigning every cell a stable ordinal and
//!   a digest over its full axis tuple, anchored to a spec
//!   [fingerprint](SweepPlan::fingerprint).
//! - `rollup`: streaming summaries over an exact, order-independent
//!   accumulator ([`ExactSum`]), so cells folded in any order — live
//!   completions, journal restores, merged shards — give identical bytes.
//! - `exec`: streaming shard execution — [`run_sweep_shard`] turns each
//!   engine or fleet report into a cell as it lands (report retention
//!   O(in-flight), not O(grid)) and folds each run's cells into its
//!   rollups once, and [`merge_reports`] recombines shard reports into
//!   the single-process outcome.
//! - `checkpoint`: the append-only completed-cell [`Journal`] behind
//!   `--journal`/`--resume`, and the shared JSONL dialect for shard
//!   reports and the `--out` mirror.
//! - `render`: the deterministic report ([`SweepOutcome::render`]) and
//!   per-process diagnostics ([`SweepOutcome::render_timings`]).
//!
//! Everything in [`SweepOutcome::render`] is a pure function of the
//! [`SweepSpec`]: wall-clock timings, thread counts and cache counters
//! stay out of the rendered report (ask
//! [`SweepOutcome::render_timings`] for them), so the report is
//! bit-identical at any `threads` setting, any `--shards` split, and
//! across kill/resume cycles — asserted by `tests/sweep_determinism.rs`
//! and `tests/sweep_shards.rs`.

mod cell;
mod checkpoint;
mod exec;
mod render;
mod rollup;
mod spec;

pub use cell::{costing_label, CellId, PlannedCell, SweepCell, SweepPlan};
pub use checkpoint::{parse_journal, read_journal, Journal, JournalContents, Meta};
pub use exec::{merge_reports, run_sweep, run_sweep_shard, ShardOptions, SweepOutcome};
pub use render::splice_shard_traces;
pub use rollup::{
    CalibrationSummary, ExactSum, FleetEpochSummary, FleetSummary, RunRollup, SweepRun,
    TopologySummary,
};
pub use spec::{
    parse_calibration, parse_drift, parse_topology, CalibrationParseError, DriftParseError,
    DriftScenario, SweepError, SweepSpec, TopologyParseError, MAX_TOPOLOGY_QUBITS,
};

#[cfg(test)]
mod tests {
    use super::*;
    use paradrive_engine::VerifyLevel;

    #[test]
    fn calibrated_cells_report_scenario_and_fidelity() {
        let mut spec = SweepSpec::smoke();
        spec.topologies = vec!["grid4x4".into()];
        spec.calibrations = vec!["uniform".into(), "hotspot3".into()];
        let out = run_sweep(&spec).unwrap();
        assert_eq!(out.cells.len(), 2 * 2);
        assert!(out.cells.iter().all(|c| c.optimized_ft > 0.0));
        let groups = &out.runs[0].by_calibration;
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].calibration, "uniform");
        assert_eq!(groups[1].calibration, "hotspot3");
        let text = out.render();
        assert!(text.contains("by calibration") && text.contains("hotspot3"));
    }

    #[test]
    fn verify_axis_reports_verdicts_and_rollups() {
        let mut spec = SweepSpec::smoke();
        spec.topologies = vec!["grid4x4".into()];
        spec.benchmarks = vec!["GHZ".into()];
        spec.verify = vec![VerifyLevel::Off, VerifyLevel::Exact];
        let out = run_sweep(&spec).unwrap();
        // One cell per verification level (single costing).
        assert_eq!(out.cells.len(), 2);
        assert_eq!(out.runs.len(), 2);
        let off = &out.cells[0];
        let exact = &out.cells[1];
        assert_eq!((off.verify, exact.verify), ("off", "exact"));
        assert!(off.verification.is_none());
        // The 16-qubit suite exceeds the dense oracle, so the exact level
        // transparently escalates to the MPS overlap oracle — and passes.
        let v = exact.verification.as_ref().unwrap();
        assert_eq!(v.method(), "mps");
        assert!(!v.failed(), "{v}");
        assert!(out.runs[0].verification.is_none());
        let summary = out.runs[1].verification.as_ref().unwrap();
        assert!(summary.all_passed());
        assert_eq!(summary.mps, 1);
        let text = out.render();
        assert!(text.contains("exact verification"), "{text}");
        assert!(text.contains("verify: 0 exact, 1 mps, 0 sampled"), "{text}");
        assert!(text.contains("mps ok"), "{text}");
    }

    #[test]
    fn unknown_benchmark_is_a_typed_error() {
        let mut spec = SweepSpec::smoke();
        spec.benchmarks = vec!["NOPE".into()];
        let err = run_sweep(&spec).unwrap_err();
        match &err {
            SweepError::UnknownBenchmark { name, known } => {
                assert_eq!(name, "NOPE");
                assert!(known.contains("GHZ"), "{known:?}");
            }
            other => panic!("expected UnknownBenchmark, got {other:?}"),
        }
        let msg = err.to_string();
        assert!(msg.contains("NOPE") && msg.contains("GHZ"), "{msg}");
    }

    #[test]
    fn smoke_sweep_fills_every_cell() {
        let spec = SweepSpec::smoke();
        let out = run_sweep(&spec).unwrap();
        assert_eq!(out.cells.len(), 3 * 2);
        assert_eq!(out.runs.len(), 1);
        assert!(out.cells.iter().all(|c| c.depth > 0 && c.blocks > 0));
        // Cells come back in canonical ordinal order with their planned
        // identity attached.
        let ordinals: Vec<u64> = out.cells.iter().map(|c| c.ordinal).collect();
        assert_eq!(ordinals, (0..6).collect::<Vec<u64>>());
        assert_eq!(
            out.fingerprint,
            SweepPlan::new(&spec).unwrap().fingerprint()
        );
        // Topology matters: GHZ's CX chain embeds SWAP-free on the ring
        // but pays SWAPs on the row-major grid layout.
        let swaps = |topo: &str, bench: &str| {
            out.cells
                .iter()
                .find(|c| c.topology == topo && c.benchmark == bench)
                .unwrap()
                .swaps
        };
        assert_eq!(swaps("ring16", "GHZ"), 0);
        assert!(swaps("grid4x4", "GHZ") > 0);
        let text = out.render();
        assert!(text.contains("ring16") && text.contains("by topology"));
        assert!(!text.contains("ms"), "deterministic report leaked timings");
        assert!(
            !text.contains("cache:"),
            "cache counters are per-process diagnostics, not report content"
        );
        let timings = out.render_timings();
        assert!(timings.contains("threads"));
        assert!(timings.contains("cache:"), "{timings}");
        // The slowest cell is named by its full deterministic label.
        assert!(timings.contains("slowest cell hull:"), "{timings}");
        assert!(timings.contains("/uniform/"), "{timings}");
    }

    #[test]
    fn sweep_trace_carries_cell_labeled_stage_spans() {
        let mut spec = SweepSpec::smoke();
        spec.topologies = vec!["grid4x4".into()];
        spec.verify = vec![VerifyLevel::Sampled];
        let out = run_sweep(&spec).unwrap();
        let trace = &out.runs[0].trace;
        // One span per pipeline stage per cell, labeled by the cell.
        for stage in ["route", "select", "consolidate", "verify", "schedule"] {
            let spans: Vec<_> = trace.spans.iter().filter(|s| s.name == stage).collect();
            assert_eq!(
                spans.len(),
                if stage == "route" { 2 * 2 } else { 2 },
                "{stage}: wrong span count"
            );
            assert!(
                spans
                    .iter()
                    .all(|s| s.label.starts_with("grid4x4/uniform/")),
                "{stage}: spans not cell-labeled: {spans:?}"
            );
        }
        // Route spans keep their per-seed suffix.
        assert!(trace
            .spans
            .iter()
            .any(|s| s.name == "route" && s.label.ends_with("#1")));
        // Cache counters and pipeline counters rode along.
        assert!(trace.counter("cache.baseline.hits").is_some());
        assert_eq!(trace.counter("route.seed_attempts"), Some(4));
        assert!(trace.counter("verify.samples").unwrap_or(0) > 0);
        // The merged export namespaces counters per run and stays valid.
        let merged = out.merged_trace();
        assert!(merged.counter("hull.sampled.route.seed_attempts").is_some());
        assert!(paradrive_obs::json::parse(&merged.to_chrome_json()).is_ok());
    }

    #[test]
    fn out_mirror_round_trips_through_the_journal_reader() {
        let spec = SweepSpec::smoke();
        let out = run_sweep(&spec).unwrap();
        let jsonl = out.to_jsonl();
        let dir = std::env::temp_dir().join("paradrive_sweep_mod_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out_mirror.jsonl");
        std::fs::write(&path, &jsonl).unwrap();
        let contents = read_journal(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(contents.meta.fingerprint, out.fingerprint);
        assert!(contents.done);
        assert_eq!(contents.cells.len(), out.cells.len());
        // Feeding the mirror back through merge reproduces the render.
        let merged = merge_reports(&spec, vec![(path.display().to_string(), contents)]).unwrap();
        assert_eq!(merged.render(), out.render());
        assert_eq!(merged.to_jsonl(), jsonl);
    }
}
