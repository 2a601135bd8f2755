//! `paradrive-engine` — a batched, multi-threaded transpilation engine
//! with a canonical-Weyl decomposition cache.
//!
//! The paper's codesign loop (Section IV-B) scores every basis candidate
//! by transpiling a whole benchmark suite: route with best-of-N seeds,
//! consolidate, charge each block through the decomposition rules, score
//! fidelity. This crate turns that from a one-circuit-at-a-time loop into
//! a batch system:
//!
//! - [`Batch`] / [`Job`] collect circuits over a default topology, with
//!   optional per-job overrides ([`Batch::push_on`]) so one batch can
//!   span a whole topology × workload cross-product (a *heterogeneous*
//!   batch — see the `sweep` CLI in `crates/repro`);
//! - [`run_batch`] fans both circuits *and* the routing seeds inside each
//!   circuit across a [`std::thread::scope`] worker pool — deterministic
//!   and bit-for-bit identical to a sequential best-of-N route,
//!   consolidate and score pass at any thread count. It is the one
//!   implementation of the Table VII pipeline (the `table7` CLI prints
//!   its report). [`run_batch_streaming`] is the constant-memory
//!   variant: each finished [`CircuitReport`] is handed to a caller sink
//!   on the worker that completed it, so peak report retention is
//!   O(in-flight), not O(batch) — the entry point the sharded sweep folds
//!   through;
//! - [`DecompositionCache`] memoizes any
//!   [`CostModel`](paradrive_transpiler::CostModel) across the whole
//!   batch, keyed by the exact bits of the target's canonical
//!   coordinates, and reports hit/miss counters;
//! - [`EngineReport`] aggregates per-circuit results, timings, cache
//!   statistics and the batch wall clock (per-topology and
//!   per-calibration rollups over many batches are the sweep's
//!   `RunRollup`, in `crates/repro`);
//! - jobs may carry a device
//!   [`Calibration`](paradrive_transpiler::calibration::Calibration)
//!   ([`Batch::push_calibrated`]): scheduling then charges per-edge 2Q
//!   durations, fidelity uses per-wire lifetimes and per-edge gate
//!   errors, and [`EngineConfig::noise_aware`] routes around high-error
//!   edges. A uniform calibration reproduces the legacy homogeneous
//!   pipeline bit for bit;
//! - [`EngineConfig::verify`] turns every batch into a self-checking
//!   experiment: each job's consolidated output is replayed through the
//!   [`paradrive_verify`] equivalence oracles (exact up-to-permutation on
//!   small supports, seeded Monte-Carlo beyond), with verdicts surfaced
//!   per circuit ([`CircuitReport::verification`]) and batch-wide
//!   ([`EngineReport::verification_summary`]);
//! - [`run_fleet`] replays jobs over drifting calibration timelines
//!   under a [`RetranspilePolicy`], streaming each `(epoch, job)` report
//!   to a caller sink the way [`run_batch_streaming`] does.
//!
//! # Example
//!
//! ```
//! use paradrive_engine::{run_batch, Batch, EngineConfig};
//! use paradrive_circuit::benchmarks;
//! use paradrive_transpiler::topology::CouplingMap;
//!
//! let mut batch = Batch::new(CouplingMap::grid(3, 3));
//! batch.push("ghz8", benchmarks::ghz(8));
//! batch.push("ghz9", benchmarks::ghz(9));
//! let report = run_batch(&batch, &EngineConfig::default().threads(2).routing_seeds(3))?;
//! assert_eq!(report.circuits.len(), 2);
//! assert!(report.cache_hit_rate().unwrap() > 0.0);
//! # Ok::<(), paradrive_engine::EngineError>(())
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
pub mod cache;
mod engine;
pub mod policy;
mod report;

pub use batch::{Batch, Costing, EngineConfig, Job};
pub use cache::{CacheStats, CachedCostModel, DecompositionCache, ShardStats};
pub use engine::{run_batch, run_batch_streaming, run_batch_streaming_with_caches, JobSink};
pub use paradrive_obs::{StageStats, Trace};
pub use paradrive_verify::{Verification, VerifyLevel};
pub use policy::{run_fleet, EpochDecision, FleetJob, RetranspilePolicy};
pub use report::{BatchSummary, CircuitReport, EngineReport, MetricsSummary, VerificationSummary};

use paradrive_transpiler::TranspileError;

/// Errors produced by the engine.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum EngineError {
    /// A job failed inside the pipeline; the first failure in submission
    /// order is reported.
    Job {
        /// The failing job's name.
        job: String,
        /// The underlying transpilation failure.
        source: TranspileError,
    },
    /// A fleet replay was malformed (see [`run_fleet`]): its jobs
    /// disagreed on the timeline's epoch count.
    Fleet {
        /// What was inconsistent.
        reason: String,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Job { job, source } => write!(f, "job `{job}` failed: {source}"),
            EngineError::Fleet { reason } => write!(f, "fleet replay rejected: {reason}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Job { source, .. } => Some(source),
            EngineError::Fleet { .. } => None,
        }
    }
}
