//! Deterministic cell identity: the enumerated sweep grid ([`SweepPlan`]),
//! stable per-cell ordinals and digests ([`CellId`]), and the per-cell
//! result row ([`SweepCell`]).
//!
//! Cell identity is the contract every other sharding feature hangs off:
//! the journal records digests so a resumed run can prove a completed
//! cell belongs to *this* spec, shard partitioning is `ordinal % shards`
//! so any process can compute its share without coordination, and merge
//! validates coverage by checking the union of ordinals against the plan.

use super::spec::{
    parse_calibration, parse_drift, parse_topology, DriftScenario, SweepError, SweepSpec,
};
use paradrive_circuit::benchmarks::{standard_suite, wide_suite};
use paradrive_circuit::Circuit;
use paradrive_engine::{Costing, EngineConfig, Verification, VerifyLevel};
use paradrive_transpiler::calibration::drift::CalibrationTimeline;
use paradrive_transpiler::calibration::Calibration;
use paradrive_transpiler::topology::CouplingMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

/// FNV-1a over bytes — the repo's stable, dependency-free hash, here
/// deriving spec fingerprints and cell digests.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The label of a costing discipline (`hull` / `synth`).
pub fn costing_label(c: Costing) -> &'static str {
    match c {
        Costing::Hull => "hull",
        Costing::Synthesized => "synth",
    }
}

/// A cell's deterministic identity within one sweep spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellId {
    /// The cell's position in canonical enumeration order (costing →
    /// verification → topology → calibration → suite seed → benchmark).
    pub ordinal: u64,
    /// FNV-1a digest over the spec fingerprint and the cell's full axis
    /// tuple — a consistency check that a journaled or merged cell really
    /// is the cell its ordinal claims.
    pub digest: u64,
}

impl CellId {
    /// Which shard of `shards` owns this cell (`ordinal % shards`).
    pub fn shard(&self, shards: usize) -> usize {
        (self.ordinal % shards.max(1) as u64) as usize
    }
}

/// One planned cell: identity plus indexes into the plan's axis tables.
#[derive(Debug, Clone)]
pub struct PlannedCell {
    /// The cell's stable identity.
    pub id: CellId,
    /// Index into [`SweepPlan::runs`] — which (costing, verification)
    /// engine run the cell belongs to.
    pub run: usize,
    /// Index into the spec's topology axis.
    pub topology: usize,
    /// Index into the spec's calibration axis.
    pub calibration: usize,
    /// Index into the spec's suite-seed axis.
    pub suite_seed: usize,
    /// Index into the spec's benchmark axis.
    pub benchmark: usize,
    /// The cell's epoch along its drift timeline — always 0 for a static
    /// (driftless) sweep.
    pub epoch: usize,
}

/// The fully resolved sweep grid: parsed axes, the canonical cell
/// enumeration, and the spec fingerprint.
///
/// Everything downstream (execution, journals, merge validation) works
/// from a plan, so two processes given the same spec agree on every
/// ordinal, digest, and shard assignment.
#[derive(Debug)]
pub struct SweepPlan {
    spec: SweepSpec,
    maps: Vec<Arc<CouplingMap>>,
    /// Calibrations indexed `[topology][calibration]` — instantiated per
    /// topology (they carry tables of the device's exact shape) from the
    /// one sweep-wide seed.
    cals: Vec<Vec<Arc<Calibration>>>,
    /// Benchmark circuits indexed `[suite_seed][benchmark]`, with their
    /// canonical suite names.
    circuits: Vec<Vec<(String, Circuit)>>,
    /// The (costing, verification) run axis, in enumeration order.
    runs: Vec<(Costing, VerifyLevel)>,
    cells: Vec<PlannedCell>,
    fingerprint: u64,
    /// The parsed drift scenario, when the sweep has one.
    drift: Option<DriftScenario>,
    /// Drift timelines indexed `[topology][calibration]` (empty without
    /// drift) — each walked from its own seed,
    /// `drift_seed ^ fnv1a("{topology}|{calibration}")`.
    timelines: Vec<Vec<Arc<CalibrationTimeline>>>,
}

/// The longest drift timeline [`SweepPlan::new`] plans. Every epoch adds
/// a calibration snapshot per (topology, calibration) pair and a cell
/// per job, so the bound keeps a typo from growing memory until the
/// process dies.
const MAX_EPOCHS: usize = 1024;

impl SweepPlan {
    /// Resolves `spec` into a plan: parses every axis entry, instantiates
    /// calibrations and workloads, and enumerates the grid.
    ///
    /// # Errors
    ///
    /// Returns a [`SweepError`] for empty axes and unknown
    /// topology/calibration/benchmark names.
    pub fn new(spec: &SweepSpec) -> Result<SweepPlan, SweepError> {
        for (axis, empty) in [
            ("topology", spec.topologies.is_empty()),
            ("benchmark", spec.benchmarks.is_empty()),
            ("costing", spec.costings.is_empty()),
            ("calibration", spec.calibrations.is_empty()),
            ("verification level", spec.verify.is_empty()),
            ("suite seed", spec.suite_seeds.is_empty()),
        ] {
            if empty {
                return Err(SweepError::EmptyAxis(axis));
            }
        }
        let maps: Vec<Arc<CouplingMap>> = spec
            .topologies
            .iter()
            .map(|name| parse_topology(name).map(Arc::new))
            .collect::<Result<_, _>>()?;
        let fidelity = EngineConfig::default().fidelity;
        let mut cals: Vec<Vec<Arc<Calibration>>> = Vec::with_capacity(maps.len());
        for map in &maps {
            let per_map = spec
                .calibrations
                .iter()
                .map(|name| {
                    parse_calibration(name, map, fidelity, spec.calibration_seed).map(Arc::new)
                })
                .collect::<Result<Vec<_>, _>>()?;
            cals.push(per_map);
        }
        // Instantiate each workload seed once; cells clone circuits later.
        // The wide 64-qubit family rides along so `--benchmarks QFT_64`
        // reaches the MPS verification path on big topologies.
        let mut circuits: Vec<Vec<(String, Circuit)>> = Vec::new();
        for &seed in &spec.suite_seeds {
            let mut suite = standard_suite(seed);
            suite.extend(wide_suite(seed));
            let mut rows = Vec::new();
            for want in &spec.benchmarks {
                let b = suite
                    .iter()
                    .find(|b| b.name.eq_ignore_ascii_case(want))
                    .ok_or_else(|| SweepError::UnknownBenchmark {
                        name: want.clone(),
                        known: suite.iter().map(|b| b.name).collect::<Vec<_>>().join(", "),
                    })?;
                rows.push((b.name.to_string(), b.circuit.clone()));
            }
            circuits.push(rows);
        }
        let runs: Vec<(Costing, VerifyLevel)> = spec
            .costings
            .iter()
            .flat_map(|&c| spec.verify.iter().map(move |&v| (c, v)))
            .collect();

        // The drift axis: parse the scenario once, then walk a timeline
        // per (topology, calibration) pair so every device drifts
        // independently but reproducibly from the one sweep-wide seed.
        if spec.epochs == 0 {
            return Err(SweepError::InvalidDrift {
                reason: "a sweep needs at least one epoch".to_string(),
            });
        }
        if spec.epochs > MAX_EPOCHS {
            return Err(SweepError::InvalidDrift {
                reason: format!("{} epochs exceed the maximum of {MAX_EPOCHS}", spec.epochs),
            });
        }
        let drift = spec.drift.as_deref().map(parse_drift).transpose()?;
        if drift.is_none() && spec.epochs > 1 {
            return Err(SweepError::InvalidDrift {
                reason: format!(
                    "{} epochs need a drift scenario (pass --drift calm for a \
                     zero-volatility timeline)",
                    spec.epochs
                ),
            });
        }
        let mut timelines: Vec<Vec<Arc<CalibrationTimeline>>> = Vec::new();
        if let Some(scenario) = &drift {
            for (t, map) in maps.iter().enumerate() {
                let mut per_map = Vec::with_capacity(cals[t].len());
                for cal in &cals[t] {
                    let seed = spec.drift_seed
                        ^ fnv1a(format!("{}|{}", map.label(), cal.label()).as_bytes());
                    let timeline =
                        CalibrationTimeline::generate(cal, map, &scenario.spec(spec.epochs, seed))
                            .map_err(|e| SweepError::InvalidDrift {
                                // The scenario as spelled, which stays short
                                // where the canonical label prints every
                                // digit of a huge sigma.
                                reason: format!(
                                    "scenario `{}` on {}/{}: {e}",
                                    spec.drift.as_deref().unwrap_or(&scenario.label),
                                    map.label(),
                                    cal.label()
                                ),
                            })?;
                    per_map.push(Arc::new(timeline));
                }
                timelines.push(per_map);
            }
        }

        // The fingerprint covers every axis that affects the deterministic
        // report, using *canonical* labels so aliased spellings
        // (`heavyhex3` vs `heavy-hex3`) fingerprint identically. Threads
        // and cache are deliberately excluded — they never change results.
        let mut canon = String::new();
        let mut axis = |name: &str, entries: &[String]| {
            let _ = write!(canon, "{name}=[{}];", entries.join(","));
        };
        axis(
            "topologies",
            &maps
                .iter()
                .map(|m| m.label().to_string())
                .collect::<Vec<_>>(),
        );
        axis(
            "calibrations",
            &cals[0]
                .iter()
                .map(|c| c.label().to_string())
                .collect::<Vec<_>>(),
        );
        axis(
            "benchmarks",
            &circuits[0]
                .iter()
                .map(|(name, _)| name.clone())
                .collect::<Vec<_>>(),
        );
        axis(
            "costings",
            &spec
                .costings
                .iter()
                .map(|&c| costing_label(c).to_string())
                .collect::<Vec<_>>(),
        );
        axis(
            "verify",
            &spec
                .verify
                .iter()
                .map(|v| v.label().to_string())
                .collect::<Vec<_>>(),
        );
        axis(
            "suite_seeds",
            &spec
                .suite_seeds
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>(),
        );
        let _ = write!(
            canon,
            "calibration_seed={};routing_seeds={};noise_aware={}",
            spec.calibration_seed, spec.routing_seeds, spec.noise_aware
        );
        // Drift axes join the fingerprint only when drift is active, so
        // every static spec keeps its pre-drift fingerprint (and old
        // journals stay resumable).
        if let Some(scenario) = &drift {
            let _ = write!(
                canon,
                ";drift={};epochs={};drift_seed={};policy={}",
                scenario.label,
                spec.epochs,
                spec.drift_seed,
                spec.policy.label()
            );
        }
        let fingerprint = fnv1a(canon.as_bytes());

        // Canonical enumeration: costing → verification (the run axis,
        // matching the engine-run loop) then topology → calibration →
        // suite seed → benchmark (the batch submission order within one
        // run) → epoch (innermost, so one job's timeline reads as
        // consecutive rows) — so `cells` sorted by ordinal reproduces the
        // legacy single-process row order exactly when drift is off
        // (epochs is then 1 and the epoch loop degenerates).
        let mut cells = Vec::new();
        for (run, &(costing, verify)) in runs.iter().enumerate() {
            for (t, map) in maps.iter().enumerate() {
                for (c, cal) in cals[t].iter().enumerate() {
                    for (s, suite) in circuits.iter().enumerate() {
                        for (b, circuit) in suite.iter().enumerate() {
                            for epoch in 0..spec.epochs {
                                let ordinal = cells.len() as u64;
                                let mut key = format!(
                                    "{fingerprint:016x}|{}|{}|{}|{}|{}|{}",
                                    costing_label(costing),
                                    verify.label(),
                                    map.label(),
                                    cal.label(),
                                    circuit.0,
                                    spec.suite_seeds[s],
                                );
                                // The epoch joins the digest only when
                                // drift is on, so static cells keep their
                                // pre-drift digests.
                                if drift.is_some() {
                                    let _ = write!(key, "|epoch{epoch}");
                                }
                                let digest = fnv1a(key.as_bytes());
                                cells.push(PlannedCell {
                                    id: CellId { ordinal, digest },
                                    run,
                                    topology: t,
                                    calibration: c,
                                    suite_seed: s,
                                    benchmark: b,
                                    epoch,
                                });
                            }
                        }
                    }
                }
            }
        }
        Ok(SweepPlan {
            spec: spec.clone(),
            maps,
            cals,
            circuits,
            runs,
            cells,
            fingerprint,
            drift,
            timelines,
        })
    }

    /// The spec this plan resolves.
    pub fn spec(&self) -> &SweepSpec {
        &self.spec
    }

    /// The 64-bit spec fingerprint — identical for every process handed
    /// an equivalent spec, regardless of threads or cache settings.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The (costing, verification) run axis in enumeration order.
    pub fn runs(&self) -> &[(Costing, VerifyLevel)] {
        &self.runs
    }

    /// Every cell of the grid in ordinal order.
    pub fn cells(&self) -> &[PlannedCell] {
        &self.cells
    }

    /// The cells shard `shard` of `shards` owns, in ordinal order.
    pub fn shard_cells(&self, shards: usize, shard: usize) -> Vec<&PlannedCell> {
        self.cells
            .iter()
            .filter(|c| c.id.shard(shards) == shard)
            .collect()
    }

    /// The parsed coupling map for a cell.
    pub fn map(&self, cell: &PlannedCell) -> &Arc<CouplingMap> {
        &self.maps[cell.topology]
    }

    /// The instantiated calibration for a cell.
    pub fn calibration(&self, cell: &PlannedCell) -> &Arc<Calibration> {
        &self.cals[cell.topology][cell.calibration]
    }

    /// A cell's benchmark, by canonical suite name and circuit.
    pub fn benchmark(&self, cell: &PlannedCell) -> &(String, Circuit) {
        &self.circuits[cell.suite_seed][cell.benchmark]
    }

    /// A cell's workload seed value.
    pub fn suite_seed(&self, cell: &PlannedCell) -> u64 {
        self.spec.suite_seeds[cell.suite_seed]
    }

    /// The parsed drift scenario, when the sweep has one.
    pub fn drift(&self) -> Option<&DriftScenario> {
        self.drift.as_ref()
    }

    /// The drift timeline a cell rides (`None` for a static sweep). All
    /// epochs of one (topology, calibration) pair share one timeline.
    pub fn timeline(&self, cell: &PlannedCell) -> Option<&Arc<CalibrationTimeline>> {
        self.timelines
            .get(cell.topology)
            .and_then(|per_map| per_map.get(cell.calibration))
    }
}

/// One cell of the cross-product.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Position in canonical enumeration order (see [`SweepPlan`]).
    pub ordinal: u64,
    /// Digest over the spec fingerprint and the cell's axis tuple.
    pub digest: u64,
    /// Topology label.
    pub topology: String,
    /// Calibration scenario label.
    pub calibration: String,
    /// Benchmark name.
    pub benchmark: String,
    /// Costing discipline label (`hull` / `synth`).
    pub costing: &'static str,
    /// Verification level the cell ran under (`off`/`sampled`/`exact`).
    pub verify: &'static str,
    /// The cell's equivalence verdict (`None` with verification off). Pure
    /// function of the spec — part of the deterministic report.
    pub verification: Option<Verification>,
    /// Workload seed the suite was instantiated with.
    pub suite_seed: u64,
    /// The cell's epoch along its drift timeline (0 for static sweeps).
    pub epoch: usize,
    /// What the re-transpilation policy did for this cell: `"-"` on
    /// static sweeps, else `"fresh"`, `"kept"`, or `"retrans"` (see
    /// [`paradrive_engine::EpochDecision`]). Pure function of the spec —
    /// part of the deterministic report.
    pub decision: &'static str,
    /// Routing SWAPs inserted (best of N seeds).
    pub swaps: usize,
    /// Depth of the routed physical circuit.
    pub depth: usize,
    /// Consolidated 2Q blocks.
    pub blocks: usize,
    /// Baseline circuit duration, normalized pulses.
    pub baseline_duration: f64,
    /// Optimized (parallel-drive) duration.
    pub optimized_duration: f64,
    /// Relative duration reduction, percent.
    pub reduction_pct: f64,
    /// Total-fidelity improvement, percent.
    pub ft_improvement_pct: f64,
    /// Absolute optimized total fidelity `F_T` — per-wire lifetimes and
    /// per-edge gate errors under the cell's calibration.
    pub optimized_ft: f64,
    /// Per-cell busy time (routing + pipeline), summed over every worker
    /// that ran part of the cell, so seeds and samples that ran at once
    /// add up — timing-only, never part of the deterministic report (and
    /// zero for cells restored from a journal rather than executed).
    pub wall: Duration,
}

impl SweepCell {
    /// The cell's deterministic label — a pure function of the sweep
    /// axes (`costing:topology/calibration/benchmark@seed`, plus an
    /// `#e<EPOCH>` suffix on fleet cells), so timing diagnostics can
    /// name a cell reproducibly across runs.
    pub fn label(&self) -> String {
        let mut s = format!(
            "{}:{}/{}/{}@{}",
            self.costing, self.topology, self.calibration, self.benchmark, self.suite_seed
        );
        if self.decision != "-" {
            let _ = write!(s, "#e{}", self.epoch);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_enumerates_in_canonical_order_with_stable_ids() {
        let mut spec = SweepSpec::smoke();
        spec.costings = vec![Costing::Hull, Costing::Synthesized];
        spec.verify = vec![VerifyLevel::Off, VerifyLevel::Exact];
        let plan = SweepPlan::new(&spec).unwrap();
        // 2 costings × 2 verify levels × 3 topologies × 1 calibration ×
        // 1 seed × 2 benchmarks.
        assert_eq!(plan.cells().len(), 2 * 2 * 3 * 2);
        assert_eq!(plan.runs().len(), 4);
        // Ordinals are dense and ordered; digests are distinct.
        let mut digests = std::collections::BTreeSet::new();
        for (i, cell) in plan.cells().iter().enumerate() {
            assert_eq!(cell.id.ordinal, i as u64);
            assert!(digests.insert(cell.id.digest), "digest collision at {i}");
        }
        // Run-major enumeration: the first grid's worth of cells all
        // belong to run 0 (hull, off).
        assert!(plan.cells()[..6].iter().all(|c| c.run == 0));
        assert_eq!(plan.cells()[6].run, 1);

        // The same spec re-planned gives identical identity everywhere.
        let again = SweepPlan::new(&spec).unwrap();
        assert_eq!(plan.fingerprint(), again.fingerprint());
        for (a, b) in plan.cells().iter().zip(again.cells()) {
            assert_eq!(a.id, b.id);
        }
    }

    #[test]
    fn fingerprint_tracks_deterministic_axes_only() {
        let spec = SweepSpec::smoke();
        let base = SweepPlan::new(&spec).unwrap().fingerprint();
        // Threads and cache never change results, so they never change
        // the fingerprint.
        let mut threads = spec.clone();
        threads.threads = 7;
        threads.cache = false;
        assert_eq!(SweepPlan::new(&threads).unwrap().fingerprint(), base);
        // Aliased topology spellings canonicalize before hashing.
        let mut alias = spec.clone();
        alias.topologies[0] = "GRID4X4".into();
        assert_eq!(SweepPlan::new(&alias).unwrap().fingerprint(), base);
        // Every deterministic axis moves the fingerprint.
        for mutate in [
            (|s: &mut SweepSpec| s.routing_seeds = 3) as fn(&mut SweepSpec),
            |s| s.calibration_seed = 18,
            |s| s.noise_aware = true,
            |s| s.suite_seeds = vec![8],
            |s| s.benchmarks = vec!["GHZ".into()],
            |s| s.verify = vec![VerifyLevel::Exact],
        ] {
            let mut changed = spec.clone();
            mutate(&mut changed);
            assert_ne!(
                SweepPlan::new(&changed).unwrap().fingerprint(),
                base,
                "axis change did not move the fingerprint"
            );
        }
    }

    #[test]
    fn drift_axes_extend_identity_only_when_active() {
        use paradrive_engine::RetranspilePolicy;
        let spec = SweepSpec::smoke();
        let base = SweepPlan::new(&spec).unwrap();
        // Drift knobs are fingerprint- and digest-neutral while drift is
        // off: a static spec keeps its pre-drift identity.
        let mut knobs = spec.clone();
        knobs.drift_seed = 99;
        knobs.policy = RetranspilePolicy::Never;
        let same = SweepPlan::new(&knobs).unwrap();
        assert_eq!(same.fingerprint(), base.fingerprint());
        for (a, b) in base.cells().iter().zip(same.cells()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.epoch, 0);
        }
        assert!(base.drift().is_none());
        assert!(base.timeline(&base.cells()[0]).is_none());

        // Turning drift on multiplies the grid by the epoch count, with
        // the epoch as the innermost axis and distinct digests per epoch.
        let mut drift = spec.clone();
        drift.drift = Some("walk0.05".into());
        drift.epochs = 3;
        let plan = SweepPlan::new(&drift).unwrap();
        assert_ne!(plan.fingerprint(), base.fingerprint());
        assert_eq!(plan.cells().len(), base.cells().len() * 3);
        let mut digests = std::collections::BTreeSet::new();
        for (i, cell) in plan.cells().iter().enumerate() {
            assert_eq!(cell.id.ordinal, i as u64);
            assert_eq!(cell.epoch, i % 3);
            assert!(digests.insert(cell.id.digest), "digest collision at {i}");
        }
        // All epochs of one (topology, calibration) share one generated
        // timeline of the planned length.
        let timeline = plan.timeline(&plan.cells()[0]).unwrap();
        assert_eq!(timeline.epochs(), 3);
        assert!(Arc::ptr_eq(
            timeline,
            plan.timeline(&plan.cells()[2]).unwrap()
        ));

        // Every drift knob moves the fingerprint once drift is on.
        for mutate in [
            (|s: &mut SweepSpec| s.epochs = 4) as fn(&mut SweepSpec),
            |s| s.drift_seed = 31,
            |s| s.policy = RetranspilePolicy::Never,
            |s| s.drift = Some("walk0.1".into()),
        ] {
            let mut changed = drift.clone();
            mutate(&mut changed);
            assert_ne!(
                SweepPlan::new(&changed).unwrap().fingerprint(),
                plan.fingerprint(),
                "drift knob change did not move the fingerprint"
            );
        }

        // Inconsistent drift axes are typed errors.
        let mut epochs_without_drift = spec.clone();
        epochs_without_drift.epochs = 2;
        assert!(matches!(
            SweepPlan::new(&epochs_without_drift).unwrap_err(),
            SweepError::InvalidDrift { .. }
        ));
        let mut zero_epochs = drift.clone();
        zero_epochs.epochs = 0;
        assert!(matches!(
            SweepPlan::new(&zero_epochs).unwrap_err(),
            SweepError::InvalidDrift { .. }
        ));
        let mut bad_scenario = drift.clone();
        bad_scenario.drift = Some("storm".into());
        assert!(matches!(
            SweepPlan::new(&bad_scenario).unwrap_err(),
            SweepError::Drift(_)
        ));
        // Dead-edge events need a later epoch to fire in; the generator's
        // rejection surfaces with the scenario and device named.
        let mut eventful_one_epoch = drift.clone();
        eventful_one_epoch.drift = Some("walk0.05dead1".into());
        eventful_one_epoch.epochs = 1;
        match SweepPlan::new(&eventful_one_epoch).unwrap_err() {
            SweepError::InvalidDrift { reason } => {
                assert!(reason.contains("walk0.05dead1"), "{reason}");
            }
            other => panic!("expected InvalidDrift, got {other:?}"),
        }
    }

    #[test]
    fn epoch_counts_past_the_bound_are_rejected_before_any_timeline() {
        // Billions of epochs would grow timelines until the process dies;
        // the bound answers at once, and the bound itself still plans.
        let mut spec = SweepSpec::smoke();
        spec.topologies = vec!["grid4x4".into()];
        spec.benchmarks = vec!["GHZ".into()];
        spec.drift = Some("walk0.1".into());
        for epochs in [MAX_EPOCHS + 1, u32::MAX as usize, usize::MAX] {
            spec.epochs = epochs;
            match SweepPlan::new(&spec).unwrap_err() {
                SweepError::InvalidDrift { reason } => {
                    assert!(reason.contains("maximum of 1024"), "{reason}");
                }
                other => panic!("expected InvalidDrift, got {other:?}"),
            }
        }
        spec.epochs = MAX_EPOCHS;
        assert_eq!(SweepPlan::new(&spec).unwrap().cells().len(), MAX_EPOCHS);
    }

    #[test]
    fn shard_partition_is_total_and_disjoint() {
        let spec = SweepSpec::smoke();
        let plan = SweepPlan::new(&spec).unwrap();
        for shards in 1..=5 {
            let mut seen = std::collections::BTreeSet::new();
            for shard in 0..shards {
                for cell in plan.shard_cells(shards, shard) {
                    assert!(seen.insert(cell.id.ordinal), "cell owned twice");
                    assert_eq!(cell.id.shard(shards), shard);
                }
            }
            assert_eq!(seen.len(), plan.cells().len(), "{shards} shards lost cells");
        }
    }

    #[test]
    fn empty_axes_are_rejected_with_the_axis_named() {
        let mut spec = SweepSpec::smoke();
        spec.benchmarks.clear();
        match SweepPlan::new(&spec).unwrap_err() {
            SweepError::EmptyAxis(axis) => assert_eq!(axis, "benchmark"),
            other => panic!("expected EmptyAxis, got {other:?}"),
        }
    }

    #[test]
    fn unknown_benchmark_is_reported_with_suite() {
        let mut spec = SweepSpec::smoke();
        spec.benchmarks = vec!["NOPE".into()];
        match SweepPlan::new(&spec).unwrap_err() {
            SweepError::UnknownBenchmark { name, known } => {
                assert_eq!(name, "NOPE");
                assert!(known.contains("GHZ"), "{known}");
            }
            other => panic!("expected UnknownBenchmark, got {other:?}"),
        }
    }
}
