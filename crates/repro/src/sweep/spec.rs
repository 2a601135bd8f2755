//! Sweep axes and their grammars: [`SweepSpec`], the topology and
//! calibration parsers, and the typed error surface ([`SweepError`]).

use paradrive_engine::{Costing, EngineError, RetranspilePolicy, VerifyLevel};
use paradrive_transpiler::calibration::drift::DriftSpec;
use paradrive_transpiler::calibration::Calibration;
use paradrive_transpiler::fidelity::FidelityModel;
use paradrive_transpiler::topology::CouplingMap;

/// A sweep configuration: which cross-product to run and how.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Topology names, parsed by [`parse_topology`].
    pub topologies: Vec<String>,
    /// Benchmark names from the paper's Table VII suite.
    pub benchmarks: Vec<String>,
    /// Costing disciplines to sweep (one engine run each).
    pub costings: Vec<Costing>,
    /// Calibration scenario names, parsed by [`parse_calibration`] and
    /// instantiated per topology.
    pub calibrations: Vec<String>,
    /// Verification levels to sweep (one engine run per costing × level;
    /// `Off` keeps the legacy un-verified run).
    pub verify: Vec<VerifyLevel>,
    /// Workload seeds (one `standard_suite` instantiation each).
    pub suite_seeds: Vec<u64>,
    /// Seed for the stochastic calibration generators (`spread`,
    /// `hotspot`) — one value covers the whole sweep deterministically.
    pub calibration_seed: u64,
    /// Best-of-N routing seeds per circuit.
    pub routing_seeds: u64,
    /// Route noise-aware on calibrated cells (the noise-blind scoring
    /// stays the baseline when off).
    pub noise_aware: bool,
    /// Worker threads (`0` = all cores). Never affects the report.
    pub threads: usize,
    /// Decomposition cache on/off.
    pub cache: bool,
    /// Calibration drift scenario, parsed by [`parse_drift`] — `None`
    /// keeps the static (single-epoch) sweep. With drift on, every cell
    /// becomes an epoch column of a fleet replay (see
    /// [`paradrive_engine::run_fleet`]).
    pub drift: Option<String>,
    /// Timeline length per cell when drift is on. Must be 1 for a static
    /// sweep — the planner rejects `epochs > 1` without a drift scenario.
    pub epochs: usize,
    /// Seed for the drift timelines; each (topology, calibration) pair
    /// derives its own walk seed from this, so fleets on different
    /// devices drift independently but reproducibly.
    pub drift_seed: u64,
    /// The re-transpilation policy fleet cells run under. Ignored (but
    /// still fingerprint-neutral) without drift.
    pub policy: RetranspilePolicy,
}

impl SweepSpec {
    /// The default full sweep: four zoo topologies × four benchmarks ×
    /// both costing disciplines × three calibration scenarios.
    pub fn full() -> Self {
        SweepSpec {
            topologies: ["grid4x4", "ring16", "heavyhex3", "modular2x8x2"]
                .map(String::from)
                .to_vec(),
            benchmarks: ["GHZ", "VQE_L", "QFT", "QAOA"].map(String::from).to_vec(),
            costings: vec![Costing::Hull, Costing::Synthesized],
            calibrations: ["uniform", "spread0.3", "hotspot2"]
                .map(String::from)
                .to_vec(),
            verify: vec![VerifyLevel::Off],
            suite_seeds: vec![7],
            calibration_seed: 17,
            routing_seeds: 10,
            noise_aware: false,
            threads: 0,
            cache: true,
            drift: None,
            epochs: 1,
            drift_seed: 29,
            policy: RetranspilePolicy::Adaptive {
                max_fidelity_loss: 0.05,
            },
        }
    }

    /// A tiny cross-product for CI smoke runs: three topologies × two
    /// family-class benchmarks × hull costing × the uniform calibration.
    pub fn smoke() -> Self {
        SweepSpec {
            topologies: ["grid4x4", "ring16", "modular2x8x2"]
                .map(String::from)
                .to_vec(),
            benchmarks: ["GHZ", "VQE_L"].map(String::from).to_vec(),
            costings: vec![Costing::Hull],
            calibrations: vec!["uniform".to_string()],
            verify: vec![VerifyLevel::Off],
            suite_seeds: vec![7],
            calibration_seed: 17,
            routing_seeds: 2,
            noise_aware: false,
            threads: 0,
            cache: true,
            drift: None,
            epochs: 1,
            drift_seed: 29,
            policy: RetranspilePolicy::Adaptive {
                max_fidelity_loss: 0.05,
            },
        }
    }
}

/// The largest device [`parse_topology`] builds, in qubits. The coupling
/// map keeps an all-pairs distance table, so this caps it at 128 MiB; the
/// largest zoo topology, `heavyhex6`, has 81 qubits.
pub const MAX_TOPOLOGY_QUBITS: usize = 4096;

/// The most worker threads `engine --threads` and `sweep --threads`
/// accept. Every one is an OS thread the engine spawns per batch.
pub const MAX_THREADS: usize = 256;

/// The most best-of-N routing seeds per circuit `engine --seeds` and
/// `sweep --seeds` accept. Every seed is a routing unit with its own
/// result slot.
pub const MAX_ROUTING_SEEDS: u64 = 1024;

/// The most Monte-Carlo verification samples per circuit `engine
/// --verify-samples` accepts. Every sample is a pool unit with its own
/// outcome slot.
pub const MAX_VERIFY_SAMPLES: u32 = 1024;

/// Parses the value of a count flag such as `--threads`, rejecting
/// anything above `max` (one of [`MAX_THREADS`], [`MAX_ROUTING_SEEDS`],
/// [`MAX_VERIFY_SAMPLES`]) before any work is sized by it.
///
/// # Errors
///
/// A message naming `flag`: the parse error, or the maximum the value
/// exceeds.
pub fn parse_count<T>(flag: &str, value: &str, max: T) -> Result<T, String>
where
    T: std::str::FromStr + PartialOrd + std::fmt::Display,
    T::Err: std::fmt::Display,
{
    let n: T = value.parse().map_err(|e| format!("{flag}: {e}"))?;
    if n > max {
        return Err(format!("{flag} must be at most {max}, not {n}"));
    }
    Ok(n)
}

/// A rejected topology spec, with the reason classified.
///
/// Every variant carries the offending input verbatim so batch callers
/// (CLI `--topologies`, sweep specs) can report which entry failed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TopologyParseError {
    /// The name matched no family of the grammar.
    UnknownFamily(String),
    /// A parameter was not an integer, or the family got the wrong number
    /// of `x`-separated dimensions.
    MalformedDims(String),
    /// A dimension parsed but was zero — a degenerate (empty or
    /// disconnected) device that the constructors would otherwise panic
    /// on or silently build.
    ZeroDim {
        /// The rejected spec.
        name: String,
        /// Which dimension (0-based, in grammar order) was zero.
        position: usize,
    },
    /// The dimensions describe more than [`MAX_TOPOLOGY_QUBITS`] qubits
    /// (or a count that overflows `usize`): a device the constructors
    /// would abort or panic trying to allocate.
    TooLarge(String),
    /// The dimensions were well-formed but the topology constructor
    /// rejected their combination (e.g. more inter-chip links than chip
    /// qubits).
    Rejected {
        /// The rejected spec.
        name: String,
        /// The constructor's reason.
        reason: String,
    },
}

impl std::fmt::Display for TopologyParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyParseError::UnknownFamily(name) => write!(
                f,
                "unknown topology `{name}` (expected grid<R>x<C>, line<N>, ring<N>, \
                 heavyhex<D>, or modular<CHIPS>x<SIZE>x<LINKS>)"
            ),
            TopologyParseError::MalformedDims(name) => {
                write!(f, "malformed topology dimensions in `{name}`")
            }
            TopologyParseError::ZeroDim { name, position } => write!(
                f,
                "degenerate topology `{name}`: dimension {} is zero",
                position + 1
            ),
            TopologyParseError::TooLarge(name) => write!(
                f,
                "topology `{name}` has more than {MAX_TOPOLOGY_QUBITS} qubits"
            ),
            TopologyParseError::Rejected { name, reason } => {
                write!(f, "invalid topology `{name}`: {reason}")
            }
        }
    }
}

impl std::error::Error for TopologyParseError {}

/// Parses a topology name into a coupling map.
///
/// Grammar (case-insensitive, `-`/`_` ignored): `grid<R>x<C>`,
/// `line<N>`, `ring<N>`, `heavyhex<D>`, `modular<CHIPS>x<SIZE>x<LINKS>`.
///
/// # Errors
///
/// Returns a [`TopologyParseError`] classifying the rejection: unknown
/// family, malformed dimensions, a zero dimension (`ring0`,
/// `heavy_hex0`, `modular0x4x1`, …), more than [`MAX_TOPOLOGY_QUBITS`]
/// qubits, or constructor-level rejection.
pub fn parse_topology(name: &str) -> Result<CouplingMap, TopologyParseError> {
    let flat: String = name
        .chars()
        .filter(|c| *c != '-' && *c != '_')
        .collect::<String>()
        .to_ascii_lowercase();
    let malformed = || TopologyParseError::MalformedDims(name.to_string());
    let dims = |s: &str| -> Result<Vec<usize>, TopologyParseError> {
        s.split('x')
            .map(|d| d.parse::<usize>().map_err(|_| malformed()))
            .collect()
    };
    let positive = |v: usize, position: usize| -> Result<usize, TopologyParseError> {
        (v > 0).then_some(v).ok_or(TopologyParseError::ZeroDim {
            name: name.to_string(),
            position,
        })
    };
    // The qubit count, computed with checked arithmetic (`None` on
    // overflow), must fit under the cap before any constructor runs.
    let bounded = |qubits: Option<usize>| -> Result<(), TopologyParseError> {
        match qubits {
            Some(n) if n <= MAX_TOPOLOGY_QUBITS => Ok(()),
            _ => Err(TopologyParseError::TooLarge(name.to_string())),
        }
    };
    if let Some(rest) = flat.strip_prefix("grid") {
        let d = dims(rest)?;
        let [rows, cols] = d[..] else {
            return Err(malformed());
        };
        let (rows, cols) = (positive(rows, 0)?, positive(cols, 1)?);
        bounded(rows.checked_mul(cols))?;
        return Ok(CouplingMap::grid(rows, cols));
    }
    if let Some(rest) = flat.strip_prefix("line") {
        let n: usize = rest.parse().map_err(|_| malformed())?;
        bounded(Some(positive(n, 0)?))?;
        return Ok(CouplingMap::line(n));
    }
    if let Some(rest) = flat.strip_prefix("ring") {
        let n: usize = rest.parse().map_err(|_| malformed())?;
        bounded(Some(positive(n, 0)?))?;
        return Ok(CouplingMap::ring(n));
    }
    if let Some(rest) = flat.strip_prefix("heavyhex") {
        let d: usize = rest.parse().map_err(|_| malformed())?;
        let d = positive(d, 0)?;
        // (5d² − 3d) / 2 qubits; 3d ≤ 5d² whenever 5d² fits.
        bounded(
            d.checked_mul(d)
                .and_then(|d2| d2.checked_mul(5))
                .map(|five_d2| (five_d2 - 3 * d) / 2),
        )?;
        return Ok(CouplingMap::heavy_hex(d));
    }
    if let Some(rest) = flat.strip_prefix("modular") {
        let d = dims(rest)?;
        let [chips, size, links] = d[..] else {
            return Err(malformed());
        };
        // Links may legitimately be zero for a single chip; the
        // constructor owns that rule. Chip count and size must be
        // positive for the device to exist at all.
        positive(chips, 0)?;
        positive(size, 1)?;
        bounded(chips.checked_mul(size))?;
        return CouplingMap::modular(chips, size, links).map_err(|e| {
            TopologyParseError::Rejected {
                name: name.to_string(),
                reason: e.to_string(),
            }
        });
    }
    Err(TopologyParseError::UnknownFamily(name.to_string()))
}

/// A rejected calibration scenario spec, with the reason classified —
/// the calibration counterpart of [`TopologyParseError`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CalibrationParseError {
    /// The name matched no scenario family of the grammar.
    UnknownScenario(String),
    /// The family's parameter was not a number of the expected kind.
    MalformedParameter(String),
    /// The parameter parsed but the scenario generator rejected it (e.g.
    /// more hotspot edges than the device has, a negative gradient).
    Rejected {
        /// The rejected spec.
        name: String,
        /// The generator's reason.
        reason: String,
    },
}

impl std::fmt::Display for CalibrationParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CalibrationParseError::UnknownScenario(name) => write!(
                f,
                "unknown calibration `{name}` (expected uniform, spread<SIGMA>, \
                 hotspot<K>, or gradient<STRENGTH>)"
            ),
            CalibrationParseError::MalformedParameter(name) => {
                write!(f, "malformed calibration parameter in `{name}`")
            }
            CalibrationParseError::Rejected { name, reason } => {
                write!(f, "invalid calibration `{name}`: {reason}")
            }
        }
    }
}

impl std::error::Error for CalibrationParseError {}

/// Parses a calibration scenario name against a topology.
///
/// Grammar (case-insensitive): `uniform`, `spread<SIGMA>`,
/// `hotspot<K>`, `gradient<STRENGTH>` — e.g. `spread0.3` for lognormal
/// variation with σ = 0.3, `hotspot2` for two seeded dead/degraded edges.
/// Labels produced by the generators parse back to an equivalent
/// scenario, so they can be copied from a report into `--calibrations`.
///
/// ```
/// use paradrive_repro::sweep::parse_calibration;
/// use paradrive_transpiler::fidelity::FidelityModel;
/// use paradrive_transpiler::topology::CouplingMap;
///
/// let map = CouplingMap::grid(4, 4);
/// let cal = parse_calibration("hotspot2", &map, FidelityModel::paper(), 17)?;
/// assert_eq!(cal.label(), "hotspot2");
/// assert!(!cal.is_uniform());
/// # Ok::<(), paradrive_repro::sweep::CalibrationParseError>(())
/// ```
///
/// # Errors
///
/// Returns a [`CalibrationParseError`] classifying the rejection: unknown
/// scenario family, malformed parameter, or a parameter the generator
/// rejected.
pub fn parse_calibration(
    name: &str,
    map: &CouplingMap,
    base: FidelityModel,
    seed: u64,
) -> Result<Calibration, CalibrationParseError> {
    let flat = name.to_ascii_lowercase();
    let malformed = || CalibrationParseError::MalformedParameter(name.to_string());
    let rejected = |e: paradrive_transpiler::TranspileError| CalibrationParseError::Rejected {
        name: name.to_string(),
        reason: e.to_string(),
    };
    let param = |rest: &str| -> Result<f64, CalibrationParseError> {
        rest.parse::<f64>().map_err(|_| malformed())
    };
    if flat == "uniform" {
        return Ok(Calibration::uniform(map, base));
    }
    if let Some(rest) = flat.strip_prefix("spread") {
        return Calibration::spread(map, base, param(rest)?, seed).map_err(rejected);
    }
    if let Some(rest) = flat.strip_prefix("hotspot") {
        let k: usize = rest.parse().map_err(|_| malformed())?;
        return Calibration::hotspot(map, base, k, seed).map_err(rejected);
    }
    if let Some(rest) = flat.strip_prefix("gradient") {
        return Calibration::gradient(map, base, param(rest)?).map_err(rejected);
    }
    Err(CalibrationParseError::UnknownScenario(name.to_string()))
}

/// A rejected drift scenario spec, with the reason classified — the
/// drift counterpart of [`CalibrationParseError`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DriftParseError {
    /// The name matched no scenario family of the grammar.
    UnknownScenario(String),
    /// A parameter was not a number of the expected kind.
    MalformedParameter(String),
}

impl std::fmt::Display for DriftParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriftParseError::UnknownScenario(name) => write!(
                f,
                "unknown drift scenario `{name}` (expected calm, walk<SIGMA>, \
                 or walk<SIGMA>dead<K>)"
            ),
            DriftParseError::MalformedParameter(name) => {
                write!(f, "malformed drift parameter in `{name}`")
            }
        }
    }
}

impl std::error::Error for DriftParseError {}

/// A parsed drift scenario — the per-device-independent part of a
/// [`DriftSpec`] (epochs and the walk seed are supplied per sweep and
/// per (topology, calibration) pair when the timeline is generated).
#[derive(Debug, Clone, PartialEq)]
pub struct DriftScenario {
    /// Canonical scenario label (aliased spellings normalize here, so
    /// fingerprints and reports agree on one name).
    pub label: String,
    /// Lognormal σ of the per-qubit T1/T2 random walk.
    pub qubit_sigma: f64,
    /// Lognormal σ of the per-edge error-rate random walk.
    pub edge_sigma: f64,
    /// Abrupt dead-edge events scheduled across the timeline.
    pub dead_edges: usize,
}

impl DriftScenario {
    /// Instantiates the scenario as a concrete [`DriftSpec`] for one
    /// timeline.
    pub fn spec(&self, epochs: usize, seed: u64) -> DriftSpec {
        DriftSpec {
            epochs,
            qubit_sigma: self.qubit_sigma,
            edge_sigma: self.edge_sigma,
            dead_edges: self.dead_edges,
            seed,
        }
    }
}

/// Parses a drift scenario name.
///
/// Grammar (case-insensitive): `calm` (the zero-volatility timeline —
/// bit-identical to the static sweep at every epoch), `walk<SIGMA>`
/// (lognormal random walks with σ = SIGMA on qubit lifetimes and edge
/// error rates), `walk<SIGMA>dead<K>` (the walk plus K seeded abrupt
/// dead-edge events). Labels produced by the parser parse back to the
/// same scenario, so they can be copied from a report into `--drift`.
///
/// ```
/// use paradrive_repro::sweep::parse_drift;
///
/// let s = parse_drift("walk0.02dead2")?;
/// assert_eq!((s.edge_sigma, s.dead_edges), (0.02, 2));
/// assert_eq!(parse_drift(&s.label)?, s);
/// # Ok::<(), paradrive_repro::sweep::DriftParseError>(())
/// ```
///
/// # Errors
///
/// Returns a [`DriftParseError`] classifying the rejection. Semantic
/// rejections (negative σ, more dead edges than the device has) surface
/// later, when the timeline generator runs against a concrete topology.
pub fn parse_drift(name: &str) -> Result<DriftScenario, DriftParseError> {
    let flat = name.to_ascii_lowercase();
    let malformed = || DriftParseError::MalformedParameter(name.to_string());
    if flat == "calm" {
        return Ok(DriftScenario {
            label: "calm".to_string(),
            qubit_sigma: 0.0,
            edge_sigma: 0.0,
            dead_edges: 0,
        });
    }
    if let Some(rest) = flat.strip_prefix("walk") {
        let (sigma, dead_edges) = match rest.split_once("dead") {
            Some((s, k)) => (s, k.parse::<usize>().map_err(|_| malformed())?),
            None => (rest, 0),
        };
        let sigma: f64 = sigma.parse().map_err(|_| malformed())?;
        let label = if dead_edges > 0 {
            format!("walk{sigma}dead{dead_edges}")
        } else {
            format!("walk{sigma}")
        };
        return Ok(DriftScenario {
            label,
            qubit_sigma: sigma,
            edge_sigma: sigma,
            dead_edges,
        });
    }
    Err(DriftParseError::UnknownScenario(name.to_string()))
}

/// Everything a sweep can fail with, classified — replaces the former
/// stringly-typed `Result<_, String>` surface of `run_sweep`.
#[derive(Debug)]
#[non_exhaustive]
pub enum SweepError {
    /// An axis of the cross-product was empty.
    EmptyAxis(&'static str),
    /// A topology name was rejected.
    Topology(TopologyParseError),
    /// A calibration scenario name was rejected.
    Calibration(CalibrationParseError),
    /// A drift scenario name was rejected.
    Drift(DriftParseError),
    /// The drift axis was inconsistent: `epochs > 1` without a drift
    /// scenario, zero epochs, or a timeline the generator rejected
    /// against a concrete device.
    InvalidDrift {
        /// What was wrong (self-contained, names the scenario and device
        /// where relevant).
        reason: String,
    },
    /// A benchmark name matched nothing in the suite.
    UnknownBenchmark {
        /// The unmatched name.
        name: String,
        /// The suite's known benchmark names, comma-joined.
        known: String,
    },
    /// The shard selection was out of range (`shard` must be `< shards`,
    /// `shards` must be positive).
    ShardOutOfRange {
        /// Requested shard index.
        shard: usize,
        /// Requested shard count.
        shards: usize,
    },
    /// An engine run failed (e.g. a benchmark wider than its topology).
    Engine(EngineError),
    /// A journal or shard-report file could not be read or written.
    Io {
        /// The file involved.
        path: String,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// A journal or shard-report line did not parse or failed validation.
    Corrupt {
        /// The file involved.
        path: String,
        /// 1-based line number (0 when the problem is file-level).
        line: usize,
        /// What was wrong.
        reason: String,
    },
    /// A journal or shard report belongs to a different sweep (or shard)
    /// than the one being resumed or merged.
    SpecMismatch {
        /// The file involved.
        path: String,
        /// How it disagrees.
        reason: String,
    },
    /// Merged shard reports do not cover the grid exactly once.
    Coverage(String),
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::EmptyAxis(axis) => {
                write!(f, "sweep needs at least one {axis}")
            }
            SweepError::Topology(e) => e.fmt(f),
            SweepError::Calibration(e) => e.fmt(f),
            SweepError::Drift(e) => e.fmt(f),
            SweepError::InvalidDrift { reason } => {
                write!(f, "invalid drift axis: {reason}")
            }
            SweepError::UnknownBenchmark { name, known } => {
                write!(f, "unknown benchmark `{name}` (suite: {known})")
            }
            SweepError::ShardOutOfRange { shard, shards } => write!(
                f,
                "shard {shard} out of range for {shards} shard(s) (need 0 <= shard < shards)"
            ),
            SweepError::Engine(e) => e.fmt(f),
            SweepError::Io { path, source } => write!(f, "{path}: {source}"),
            SweepError::Corrupt { path, line, reason } => {
                if *line == 0 {
                    write!(f, "{path}: {reason}")
                } else {
                    write!(f, "{path}:{line}: {reason}")
                }
            }
            SweepError::SpecMismatch { path, reason } => {
                write!(f, "{path}: sweep mismatch: {reason}")
            }
            SweepError::Coverage(reason) => write!(f, "incomplete shard coverage: {reason}"),
        }
    }
}

impl std::error::Error for SweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SweepError::Topology(e) => Some(e),
            SweepError::Calibration(e) => Some(e),
            SweepError::Drift(e) => Some(e),
            SweepError::Engine(e) => Some(e),
            SweepError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<TopologyParseError> for SweepError {
    fn from(e: TopologyParseError) -> Self {
        SweepError::Topology(e)
    }
}

impl From<CalibrationParseError> for SweepError {
    fn from(e: CalibrationParseError) -> Self {
        SweepError::Calibration(e)
    }
}

impl From<DriftParseError> for SweepError {
    fn from(e: DriftParseError) -> Self {
        SweepError::Drift(e)
    }
}

impl From<EngineError> for SweepError {
    fn from(e: EngineError) -> Self {
        SweepError::Engine(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_above_their_maxima_are_rejected_with_the_flag_named() {
        assert_eq!(parse_count("--threads", "256", MAX_THREADS), Ok(256));
        assert_eq!(parse_count("--seeds", "0", MAX_ROUTING_SEEDS), Ok(0));
        assert_eq!(
            parse_count("--verify-samples", "1024", MAX_VERIFY_SAMPLES),
            Ok(1024)
        );
        assert_eq!(
            parse_count("--threads", "257", MAX_THREADS).unwrap_err(),
            "--threads must be at most 256, not 257"
        );
        assert_eq!(
            parse_count("--seeds", "100000", MAX_ROUTING_SEEDS).unwrap_err(),
            "--seeds must be at most 1024, not 100000"
        );
        assert_eq!(
            parse_count("--verify-samples", "1025", MAX_VERIFY_SAMPLES).unwrap_err(),
            "--verify-samples must be at most 1024, not 1025"
        );
        for bad in ["-1", "1e3", "", "99999999999999999999999"] {
            let err = parse_count("--seeds", bad, MAX_ROUTING_SEEDS).unwrap_err();
            assert!(err.starts_with("--seeds: "), "{bad}: {err}");
        }
    }

    #[test]
    fn topology_grammar_round_trips() {
        assert_eq!(parse_topology("grid4x4").unwrap().label(), "grid4x4");
        assert_eq!(parse_topology("RING16").unwrap().label(), "ring16");
        assert_eq!(parse_topology("heavy-hex3").unwrap().label(), "heavy-hex3");
        assert_eq!(parse_topology("heavy_hex3").unwrap().label(), "heavy-hex3");
        assert_eq!(parse_topology("line16").unwrap().label(), "line16");
        assert_eq!(
            parse_topology("modular2x8x2").unwrap().label(),
            "modular2x8x2"
        );
        // Every zoo label parses back to itself, so labels can be copied
        // from a report straight into `--topologies`.
        for name in ["grid4x4", "ring16", "heavy-hex3", "line16", "modular2x8x2"] {
            let label = parse_topology(name).unwrap().label().to_string();
            assert_eq!(parse_topology(&label).unwrap().label(), label);
        }
    }

    #[test]
    fn topology_rejection_grammar_is_typed() {
        use TopologyParseError as E;
        let zero = |name: &str, position: usize| E::ZeroDim {
            name: name.to_string(),
            position,
        };
        // One row per rejection class × family: (spec, expected error).
        let table: Vec<(&str, E)> = vec![
            // Unknown families.
            ("torus4", E::UnknownFamily("torus4".into())),
            ("", E::UnknownFamily("".into())),
            // Malformed dimensions: wrong arity or non-integers.
            ("grid4", E::MalformedDims("grid4".into())),
            ("gridx4", E::MalformedDims("gridx4".into())),
            ("grid4x4x4", E::MalformedDims("grid4x4x4".into())),
            ("line", E::MalformedDims("line".into())),
            ("ring1.5", E::MalformedDims("ring1.5".into())),
            ("heavyhexx", E::MalformedDims("heavyhexx".into())),
            ("modular2x8", E::MalformedDims("modular2x8".into())),
            ("modular2x8x", E::MalformedDims("modular2x8x".into())),
            // Degenerate (zero-size) specs, including the aliased
            // spellings — these used to surface as untyped strings.
            ("ring0", zero("ring0", 0)),
            ("line0", zero("line0", 0)),
            ("grid0x4", zero("grid0x4", 0)),
            ("grid4x0", zero("grid4x0", 1)),
            ("heavy_hex0", zero("heavy_hex0", 0)),
            ("heavy-hex0", zero("heavy-hex0", 0)),
            ("modular0x4x1", zero("modular0x4x1", 0)),
            ("modular2x0x1", zero("modular2x0x1", 1)),
            // Oversized devices, rejected before any constructor
            // allocates: these used to abort on a failed allocation or
            // panic with `capacity overflow`.
            ("grid100000x100000", E::TooLarge("grid100000x100000".into())),
            (
                "heavyhex4000000000",
                E::TooLarge("heavyhex4000000000".into()),
            ),
            (
                "modular100000x100000x1",
                E::TooLarge("modular100000x100000x1".into()),
            ),
            (
                "line18446744073709551615",
                E::TooLarge("line18446744073709551615".into()),
            ),
            ("ring4097", E::TooLarge("ring4097".into())),
        ];
        for (spec, expected) in table {
            assert_eq!(
                parse_topology(spec).unwrap_err(),
                expected,
                "`{spec}` misclassified"
            );
        }
        // Constructor-level rejections (well-formed, positive dimensions,
        // impossible combination) surface as typed errors, not panics.
        for bad in ["modular2x8x9", "modular2x8x0"] {
            match parse_topology(bad).unwrap_err() {
                E::Rejected { name, reason } => {
                    assert_eq!(name, bad);
                    assert!(!reason.is_empty());
                }
                other => panic!("`{bad}`: expected Rejected, got {other:?}"),
            }
        }
        // But zero links on a single chip is a real device.
        assert!(parse_topology("modular1x4x0").is_ok());
        // Errors render through Display for CLI surfacing.
        let msg = parse_topology("ring0").unwrap_err().to_string();
        assert!(msg.contains("ring0"), "{msg}");
    }

    #[test]
    fn calibration_grammar_round_trips() {
        let map = parse_topology("grid4x4").unwrap();
        let base = FidelityModel::paper();
        for name in [
            "uniform",
            "spread0.3",
            "spread0.125",
            "hotspot2",
            "gradient1.5",
        ] {
            let cal = parse_calibration(name, &map, base, 17).unwrap();
            // Labels copied from a report parse back to an equivalent
            // scenario (same generator, same parameters, same seed).
            let again = parse_calibration(cal.label(), &map, base, 17).unwrap();
            assert_eq!(cal, again, "label `{}` did not round-trip", cal.label());
        }
        assert_eq!(
            parse_calibration("UNIFORM", &map, base, 0).unwrap().label(),
            "uniform"
        );
    }

    #[test]
    fn drift_grammar_round_trips_and_rejections_are_typed() {
        let calm = parse_drift("CALM").unwrap();
        assert_eq!(calm.label, "calm");
        assert_eq!(
            (calm.qubit_sigma, calm.edge_sigma, calm.dead_edges),
            (0.0, 0.0, 0)
        );
        let walk = parse_drift("walk0.02").unwrap();
        assert_eq!(walk.label, "walk0.02");
        assert_eq!(
            (walk.qubit_sigma, walk.edge_sigma, walk.dead_edges),
            (0.02, 0.02, 0)
        );
        let eventful = parse_drift("walk0.1dead2").unwrap();
        assert_eq!(eventful.label, "walk0.1dead2");
        assert_eq!(eventful.dead_edges, 2);
        // Labels parse back to the same scenario.
        for name in ["calm", "walk0.02", "walk0.1dead2"] {
            let s = parse_drift(name).unwrap();
            assert_eq!(
                parse_drift(&s.label).unwrap(),
                s,
                "label `{name}` did not round-trip"
            );
        }
        // The scenario instantiates a concrete DriftSpec.
        let spec = eventful.spec(4, 99);
        assert_eq!((spec.epochs, spec.dead_edges, spec.seed), (4, 2, 99));
        assert_eq!(spec.edge_sigma, 0.1);
        // Rejections are classified.
        use DriftParseError as E;
        assert_eq!(
            parse_drift("storm").unwrap_err(),
            E::UnknownScenario("storm".into())
        );
        assert_eq!(
            parse_drift("walk").unwrap_err(),
            E::MalformedParameter("walk".into())
        );
        assert_eq!(
            parse_drift("walk0.1dead").unwrap_err(),
            E::MalformedParameter("walk0.1dead".into())
        );
        assert_eq!(
            parse_drift("walk0.1dead1.5").unwrap_err(),
            E::MalformedParameter("walk0.1dead1.5".into())
        );
        let msg = parse_drift("storm").unwrap_err().to_string();
        assert!(msg.contains("storm") && msg.contains("calm"), "{msg}");
    }

    #[test]
    fn calibration_rejection_grammar_is_typed() {
        use CalibrationParseError as E;
        let map = parse_topology("grid4x4").unwrap();
        let base = FidelityModel::paper();
        // One row per rejection class × family: (spec, expected error).
        let table: Vec<(&str, E)> = vec![
            // Unknown scenario families.
            ("fog", E::UnknownScenario("fog".into())),
            ("", E::UnknownScenario("".into())),
            ("uniform2", E::UnknownScenario("uniform2".into())),
            // Malformed parameters: missing, non-numeric, or the wrong
            // numeric kind (hotspot counts edges, so `2.5` is malformed).
            ("spread", E::MalformedParameter("spread".into())),
            ("spreadx", E::MalformedParameter("spreadx".into())),
            ("hotspot", E::MalformedParameter("hotspot".into())),
            ("hotspot2.5", E::MalformedParameter("hotspot2.5".into())),
            ("gradient", E::MalformedParameter("gradient".into())),
            ("gradient1.5x", E::MalformedParameter("gradient1.5x".into())),
        ];
        for (spec, expected) in table {
            assert_eq!(
                parse_calibration(spec, &map, base, 17).unwrap_err(),
                expected,
                "`{spec}` misclassified"
            );
        }
        // Generator-level rejections (well-formed parameter, impossible
        // scenario) carry the generator's reason.
        for bad in ["hotspot999", "gradient-1", "spread-0.5"] {
            match parse_calibration(bad, &map, base, 17).unwrap_err() {
                E::Rejected { name, reason } => {
                    assert_eq!(name, bad);
                    assert!(!reason.is_empty());
                }
                other => panic!("`{bad}`: expected Rejected, got {other:?}"),
            }
        }
        // Errors render through Display for CLI surfacing.
        let msg = parse_calibration("fog", &map, base, 17)
            .unwrap_err()
            .to_string();
        assert!(msg.contains("fog") && msg.contains("uniform"), "{msg}");
    }
}
