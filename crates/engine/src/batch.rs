//! Batch submission: [`Job`]s, the [`Batch`] container, and [`EngineConfig`].
//!
//! A batch carries a *default* coupling topology plus, optionally, a
//! per-job override ([`Batch::push_on`]) — one engine run can therefore
//! fan a whole topology × workload cross-product across the worker pool
//! while sharing a single decomposition cache (decomposition costs depend
//! only on the Weyl class, never on the topology, so cache entries are
//! valid across every map in the batch). Topologies and [`Calibration`]s
//! are held behind [`Arc`] so a sweep that reuses one device across many
//! jobs shares a single distance matrix and calibration table.

use paradrive_circuit::benchmarks::standard_suite;
use paradrive_circuit::Circuit;
use paradrive_transpiler::calibration::Calibration;
use paradrive_transpiler::fidelity::FidelityModel;
use paradrive_transpiler::topology::CouplingMap;
use paradrive_verify::{VerifyConfig, VerifyLevel};
use std::sync::Arc;

/// One unit of batch work: a named logical circuit to push through the
/// route → consolidate → schedule → fidelity pipeline, optionally pinned
/// to its own coupling topology and device calibration.
#[derive(Debug, Clone)]
pub struct Job {
    /// Display name carried into the report.
    pub name: String,
    /// The logical circuit.
    pub circuit: Circuit,
    /// Per-job topology override (`None` uses the batch default).
    map: Option<Arc<CouplingMap>>,
    /// Device calibration (`None` runs the homogeneous legacy pipeline).
    calibration: Option<Arc<Calibration>>,
}

impl Job {
    /// Creates a job on the batch's default topology.
    pub fn new(name: impl Into<String>, circuit: Circuit) -> Self {
        Job {
            name: name.into(),
            circuit,
            map: None,
            calibration: None,
        }
    }

    /// Creates a job pinned to its own coupling topology.
    pub fn on(name: impl Into<String>, circuit: Circuit, map: Arc<CouplingMap>) -> Self {
        Job {
            name: name.into(),
            circuit,
            map: Some(map),
            calibration: None,
        }
    }

    /// Attaches a device calibration (builder). The calibration must be
    /// built for exactly the job's topology (same qubit count and edge
    /// set, see `Calibration::validate_for`); mismatches fail the job at
    /// run time with a typed error.
    #[must_use]
    pub fn calibrated(mut self, calibration: Arc<Calibration>) -> Self {
        self.calibration = Some(calibration);
        self
    }

    /// The job's topology override, if any.
    pub fn map(&self) -> Option<&CouplingMap> {
        self.map.as_deref()
    }

    /// The job's device calibration, if any.
    pub fn calibration(&self) -> Option<&Calibration> {
        self.calibration.as_deref()
    }
}

/// A batch of jobs with a default coupling topology and optional per-job
/// overrides (a *heterogeneous* batch).
///
/// Submission order is preserved: report entries come back in the order
/// jobs were pushed, regardless of which worker processed them.
#[derive(Debug, Clone)]
pub struct Batch {
    map: Arc<CouplingMap>,
    jobs: Vec<Job>,
}

impl Batch {
    /// Creates an empty batch whose default topology is `map`.
    pub fn new(map: CouplingMap) -> Self {
        Batch::with_shared(Arc::new(map))
    }

    /// Creates an empty batch around an already-shared topology.
    pub fn with_shared(map: Arc<CouplingMap>) -> Self {
        Batch {
            map,
            jobs: Vec::new(),
        }
    }

    /// The paper's Table VII workload suite on the 4×4 lattice.
    pub fn standard(workload_seed: u64) -> Self {
        let mut batch = Batch::new(CouplingMap::grid(4, 4));
        for b in standard_suite(workload_seed) {
            batch.push(b.name, b.circuit);
        }
        batch
    }

    /// Appends one job on the default topology.
    pub fn push(&mut self, name: impl Into<String>, circuit: Circuit) -> &mut Self {
        self.jobs.push(Job::new(name, circuit));
        self
    }

    /// Appends one job pinned to its own topology.
    pub fn push_on(
        &mut self,
        name: impl Into<String>,
        circuit: Circuit,
        map: Arc<CouplingMap>,
    ) -> &mut Self {
        self.jobs.push(Job::on(name, circuit, map));
        self
    }

    /// Appends one job pinned to its own topology *and* device
    /// calibration — one sweep cell of a topology × calibration
    /// cross-product.
    pub fn push_calibrated(
        &mut self,
        name: impl Into<String>,
        circuit: Circuit,
        map: Arc<CouplingMap>,
        calibration: Arc<Calibration>,
    ) -> &mut Self {
        self.jobs
            .push(Job::on(name, circuit, map).calibrated(calibration));
        self
    }

    /// The batch's default coupling topology.
    pub fn map(&self) -> &CouplingMap {
        &self.map
    }

    /// The effective topology of job `job` (its override, or the default).
    ///
    /// # Panics
    ///
    /// Panics if `job` is out of range.
    pub fn map_for(&self, job: usize) -> &CouplingMap {
        self.jobs[job].map().unwrap_or(&self.map)
    }

    /// The calibration of job `job`, if one is attached.
    ///
    /// # Panics
    ///
    /// Panics if `job` is out of range.
    pub fn calibration_for(&self, job: usize) -> Option<&Calibration> {
        self.jobs[job].calibration()
    }

    /// The submitted jobs, in submission order.
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True when no jobs have been submitted.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }
}

/// How the optimized model prices general (non-named) target classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Costing {
    /// Query the precomputed Monte-Carlo coverage hulls
    /// ([`paradrive_core::rules::ParallelDriveRules`]) — nanoseconds per
    /// target; the paper's Table VII costing.
    #[default]
    Hull,
    /// Synthesize each general target's template on demand
    /// ([`paradrive_core::rules::SynthesizedParallelDrive`]) — the paper's
    /// Algorithm-1 discipline, milliseconds per target; this is the mode
    /// the decomposition cache pays for itself in.
    Synthesized,
}

/// Engine tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Worker threads; `0` uses [`std::thread::available_parallelism`].
    pub threads: usize,
    /// Routing seeds per circuit (best-of-N, the paper uses 10).
    pub routing_seeds: u64,
    /// 1Q layer duration in normalized pulses (the paper uses 0.25).
    pub d_1q: f64,
    /// Decoherence model for the fidelity columns.
    pub fidelity: FidelityModel,
    /// Memoize decomposition costs across the whole batch.
    pub cache: bool,
    /// General-class costing discipline for the optimized model.
    pub costing: Costing,
    /// Keep each job's routed physical circuit in the report (costs
    /// memory; used by determinism tests and downstream consumers).
    pub keep_routed: bool,
    /// Route noise-aware on jobs that carry a calibration: SWAP scoring
    /// penalizes high-error edges and dead edges are never used. Off by
    /// default — the noise-blind scoring is the baseline costing.
    pub noise_aware: bool,
    /// Semantic verification level: each job's consolidated output is
    /// replayed through the equivalence oracles (see
    /// [`paradrive_verify`]): on the worker that finishes the job, or, at
    /// [`VerifyLevel::Sampled`], one sample per pool unit on any worker.
    /// `Off` by default.
    pub verify: VerifyLevel,
    /// Random product-state inputs per circuit for the Monte-Carlo
    /// verification oracle.
    pub verify_samples: u32,
    /// Base seed for the Monte-Carlo verification inputs; verdicts are a
    /// pure function of `(job, seed)`, never of the thread count.
    pub verify_seed: u64,
    /// Bond-dimension cap for the MPS verification oracle.
    pub verify_max_bond: usize,
    /// Overlap-infidelity tolerance (beyond the certified truncation
    /// bound) for the MPS verification oracle.
    pub verify_mps_tol: f64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        let verify_defaults = VerifyConfig::default();
        EngineConfig {
            threads: 0,
            routing_seeds: 10,
            d_1q: 0.25,
            fidelity: FidelityModel::paper(),
            cache: true,
            costing: Costing::default(),
            keep_routed: false,
            noise_aware: false,
            verify: VerifyLevel::Off,
            verify_samples: verify_defaults.samples,
            verify_seed: verify_defaults.seed,
            verify_max_bond: verify_defaults.max_bond,
            verify_mps_tol: verify_defaults.mps_tol,
        }
    }
}

impl EngineConfig {
    /// Sets the worker-thread count (`0` = auto).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the number of routing seeds per circuit.
    pub fn routing_seeds(mut self, seeds: u64) -> Self {
        self.routing_seeds = seeds;
        self
    }

    /// Enables or disables the decomposition cache.
    pub fn cache(mut self, on: bool) -> Self {
        self.cache = on;
        self
    }

    /// Selects the general-class costing discipline.
    pub fn costing(mut self, costing: Costing) -> Self {
        self.costing = costing;
        self
    }

    /// Keeps routed circuits in the report.
    pub fn keep_routed(mut self, on: bool) -> Self {
        self.keep_routed = on;
        self
    }

    /// Enables or disables noise-aware routing on calibrated jobs.
    pub fn noise_aware(mut self, on: bool) -> Self {
        self.noise_aware = on;
        self
    }

    /// Sets the semantic verification level.
    pub fn verify(mut self, level: VerifyLevel) -> Self {
        self.verify = level;
        self
    }

    /// Sets the Monte-Carlo verification sample count.
    pub fn verify_samples(mut self, samples: u32) -> Self {
        self.verify_samples = samples;
        self
    }

    /// Sets the Monte-Carlo verification base seed.
    pub fn verify_seed(mut self, seed: u64) -> Self {
        self.verify_seed = seed;
        self
    }

    /// Sets the MPS verification oracle's bond-dimension cap.
    pub fn verify_max_bond(mut self, max_bond: usize) -> Self {
        self.verify_max_bond = max_bond;
        self
    }

    /// Sets the MPS verification oracle's overlap-infidelity tolerance.
    pub fn verify_mps_tol(mut self, mps_tol: f64) -> Self {
        self.verify_mps_tol = mps_tol;
        self
    }

    /// The per-job verification configuration this engine config implies.
    pub fn verify_config(&self) -> VerifyConfig {
        VerifyConfig::default()
            .level(self.verify)
            .samples(self.verify_samples)
            .seed(self.verify_seed)
            .max_bond(self.verify_max_bond)
            .mps_tol(self.verify_mps_tol)
    }

    /// The effective worker count for this configuration.
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }

    /// The worker count [`crate::run_batch`] will actually spawn for
    /// `batch`: [`EngineConfig::effective_threads`] clamped to the number
    /// of pool units, never below one. Every job has one routing unit per
    /// seed and, at [`VerifyLevel::Sampled`], one sample unit per
    /// Monte-Carlo sample.
    pub fn workers_for(&self, batch: &Batch) -> usize {
        self.pool_workers(batch, 0)
    }

    /// [`EngineConfig::workers_for`] a pool that also re-scores
    /// `rescores` kept routes, one unit each (a fleet epoch).
    pub(crate) fn pool_workers(&self, batch: &Batch, rescores: usize) -> usize {
        let mut per_job = self.routing_seeds.max(1) as usize;
        if self.verify == VerifyLevel::Sampled {
            per_job += self.verify_samples.max(1) as usize;
        }
        self.effective_threads()
            .min((batch.len() * per_job + rescores).max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradrive_circuit::benchmarks;

    #[test]
    fn batch_preserves_submission_order() {
        let mut b = Batch::new(CouplingMap::grid(2, 2));
        b.push("a", benchmarks::ghz(3))
            .push("b", benchmarks::ghz(4));
        assert_eq!(b.len(), 2);
        assert_eq!(b.jobs()[0].name, "a");
        assert_eq!(b.jobs()[1].name, "b");
        assert!(!b.is_empty());
    }

    #[test]
    fn heterogeneous_batch_resolves_per_job_maps() {
        let ring = Arc::new(CouplingMap::ring(8));
        let mut b = Batch::new(CouplingMap::grid(2, 2));
        b.push("default", benchmarks::ghz(4)).push_on(
            "ring",
            benchmarks::ghz(8),
            Arc::clone(&ring),
        );
        assert_eq!(b.map_for(0).label(), "grid2x2");
        assert_eq!(b.map_for(1).label(), "ring8");
        assert!(b.jobs()[0].map().is_none());
        assert_eq!(b.jobs()[1].map().unwrap().n_qubits(), 8);
    }

    #[test]
    fn calibrated_jobs_resolve_per_job_calibrations() {
        let ring = Arc::new(CouplingMap::ring(8));
        let cal = Arc::new(Calibration::uniform(&ring, FidelityModel::paper()));
        let mut b = Batch::new(CouplingMap::grid(2, 2));
        b.push("plain", benchmarks::ghz(4)).push_calibrated(
            "calibrated",
            benchmarks::ghz(8),
            Arc::clone(&ring),
            Arc::clone(&cal),
        );
        assert!(b.calibration_for(0).is_none());
        assert_eq!(b.calibration_for(1).unwrap().label(), "uniform");
        assert_eq!(b.jobs()[1].calibration().unwrap().n_qubits(), 8);
    }

    #[test]
    fn standard_batch_matches_suite() {
        let b = Batch::standard(7);
        assert_eq!(b.len(), 9);
        assert_eq!(b.map().n_qubits(), 16);
    }

    #[test]
    fn config_builders() {
        let c = EngineConfig::default()
            .threads(3)
            .routing_seeds(5)
            .cache(false)
            .keep_routed(true);
        assert_eq!(c.threads, 3);
        assert_eq!(c.effective_threads(), 3);
        assert_eq!(c.routing_seeds, 5);
        assert!(!c.cache);
        assert!(c.keep_routed);
        assert!(EngineConfig::default().effective_threads() >= 1);
    }
}
