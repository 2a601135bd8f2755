//! Line-oriented sweep persistence: crash-safe completion journals and
//! shard reports, in one shared JSONL dialect.
//!
//! Every file starts with a `sweep-meta` line carrying the spec
//! [fingerprint](super::SweepPlan::fingerprint) and shard coordinates,
//! followed by one `cell` line per completed cell, and ends with a
//! `shard-done` line once the shard finished cleanly. The same grammar
//! serves three roles:
//!
//! - **journal** (`--journal`): appended one line per completion, in
//!   completion order, flushed per line — a killed run loses at most the
//!   torn tail of its final line, which [`read_journal`] truncates away
//!   on `--resume`.
//! - **shard report / `--out` mirror**: written at the end of a run, the
//!   same lines with the cells sorted by ordinal — fully deterministic
//!   bytes for a given spec and shard. It carries no rollups: `sweep
//!   merge` re-derives them from the cells.
//! - **merge input**: `sweep merge` accepts either of the above; coverage
//!   validation downstream catches incomplete journals. Mirrors written
//!   before the rollups left them also carry `rollup`, `verification`
//!   and `fleet` summary lines, which the reader skips.
//!
//! Numbers that must survive the round trip exactly use conservative
//! encodings: `u64` digests and seeds travel as strings (JSON numbers go
//! through `f64`, exact only below 2^53), finite `f64`s use Rust's
//! shortest-round-trip `Display`, and non-finite values are spelled as
//! the quoted strings `"NaN"`, `"inf"` and `"-inf"`.

use super::cell::SweepCell;
use super::spec::SweepError;
use paradrive_engine::Verification;
use paradrive_obs::json::{self, Value};
use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::Path;
use std::time::Duration;

/// Identity header shared by journals and shard reports: which spec the
/// file belongs to and which slice of the grid it covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Meta {
    /// The owning spec's fingerprint (see [`super::SweepPlan::fingerprint`]).
    pub fingerprint: u64,
    /// Total shard count the grid was partitioned into.
    pub shards: usize,
    /// This file's shard index in `0..shards`.
    pub shard: usize,
}

/// Formats an `f64` as a JSON value that parses back bit-identically:
/// shortest-round-trip decimal for finite values, quoted sentinels for
/// the non-finite ones JSON cannot spell.
fn fmt_f64(x: f64) -> String {
    if x.is_nan() {
        "\"NaN\"".to_string()
    } else if x == f64::INFINITY {
        "\"inf\"".to_string()
    } else if x == f64::NEG_INFINITY {
        "\"-inf\"".to_string()
    } else {
        format!("{x}")
    }
}

/// The `sweep-meta` header line.
pub(crate) fn meta_line(meta: &Meta) -> String {
    format!(
        "{{\"type\":\"sweep-meta\",\"fingerprint\":\"{:016x}\",\"shards\":{},\"shard\":{}}}",
        meta.fingerprint, meta.shards, meta.shard
    )
}

/// The `shard-done` trailer line.
pub(crate) fn done_line(cells: usize) -> String {
    format!("{{\"type\":\"shard-done\",\"cells\":{cells}}}")
}

fn verification_json(v: &Verification) -> String {
    match v {
        Verification::Exact {
            fidelity,
            columns,
            width,
            passed,
        } => format!(
            "{{\"method\":\"exact\",\"fidelity\":{},\"columns\":{columns},\"width\":{width},\"passed\":{passed}}}",
            fmt_f64(*fidelity)
        ),
        Verification::Mps {
            fidelity,
            trunc_bound,
            max_bond_used,
            width,
            passed,
        } => format!(
            "{{\"method\":\"mps\",\"fidelity\":{},\"trunc_bound\":{},\"max_bond_used\":{max_bond_used},\"width\":{width},\"passed\":{passed}}}",
            fmt_f64(*fidelity),
            fmt_f64(*trunc_bound)
        ),
        Verification::Sampled {
            min_fidelity,
            samples,
            width,
            passed,
        } => format!(
            "{{\"method\":\"sampled\",\"min_fidelity\":{},\"samples\":{samples},\"width\":{width},\"passed\":{passed}}}",
            fmt_f64(*min_fidelity)
        ),
        Verification::Skipped { reason } => {
            format!("{{\"method\":\"skip\",\"reason\":{}}}", json::escape(reason))
        }
        Verification::Error { reason } => {
            format!("{{\"method\":\"error\",\"reason\":{}}}", json::escape(reason))
        }
    }
}

/// One `cell` line: the full [`SweepCell`] minus its wall time, which is
/// non-deterministic and deliberately not persisted (restored cells
/// report [`Duration::ZERO`]).
pub(crate) fn cell_line(cell: &SweepCell) -> String {
    let mut s = String::with_capacity(256);
    let _ = write!(
        s,
        "{{\"type\":\"cell\",\"ordinal\":{},\"digest\":\"{:016x}\",\"topology\":{},\"calibration\":{},\"benchmark\":{},\"costing\":\"{}\",\"verify\":\"{}\",\"suite_seed\":\"{}\"",
        cell.ordinal,
        cell.digest,
        json::escape(&cell.topology),
        json::escape(&cell.calibration),
        json::escape(&cell.benchmark),
        cell.costing,
        cell.verify,
        cell.suite_seed,
    );
    let _ = write!(
        s,
        ",\"epoch\":{},\"decision\":\"{}\"",
        cell.epoch, cell.decision
    );
    let _ = write!(
        s,
        ",\"swaps\":{},\"depth\":{},\"blocks\":{},\"baseline_duration\":{},\"optimized_duration\":{},\"reduction_pct\":{},\"ft_improvement_pct\":{},\"optimized_ft\":{}",
        cell.swaps,
        cell.depth,
        cell.blocks,
        fmt_f64(cell.baseline_duration),
        fmt_f64(cell.optimized_duration),
        fmt_f64(cell.reduction_pct),
        fmt_f64(cell.ft_improvement_pct),
        fmt_f64(cell.optimized_ft),
    );
    match &cell.verification {
        Some(v) => {
            let _ = write!(s, ",\"verification\":{}}}", verification_json(v));
        }
        None => s.push_str(",\"verification\":null}"),
    }
    s
}

fn str_field<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("missing string field `{key}`"))
}

fn u64_str_field(v: &Value, key: &str, radix: u32) -> Result<u64, String> {
    let s = str_field(v, key)?;
    u64::from_str_radix(s, radix).map_err(|e| format!("bad u64 in `{key}` ({s:?}): {e}"))
}

fn usize_field(v: &Value, key: &str) -> Result<usize, String> {
    let n = v
        .get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("missing numeric field `{key}`"))?;
    if n < 0.0 || n.fract() != 0.0 || n > u32::MAX as f64 {
        return Err(format!(
            "field `{key}` is not a small non-negative integer: {n}"
        ));
    }
    Ok(n as usize)
}

fn f64_field(v: &Value, key: &str) -> Result<f64, String> {
    match v.get(key) {
        Some(Value::Num(n)) => Ok(*n),
        Some(Value::Str(s)) => match s.as_str() {
            "NaN" => Ok(f64::NAN),
            "inf" => Ok(f64::INFINITY),
            "-inf" => Ok(f64::NEG_INFINITY),
            other => Err(format!("field `{key}` has unknown sentinel {other:?}")),
        },
        _ => Err(format!("missing f64 field `{key}`")),
    }
}

fn bool_field(v: &Value, key: &str) -> Result<bool, String> {
    match v.get(key) {
        Some(Value::Bool(b)) => Ok(*b),
        _ => Err(format!("missing bool field `{key}`")),
    }
}

fn parse_verification(v: &Value) -> Result<Option<Verification>, String> {
    let v = match v.get("verification") {
        None => return Err("missing field `verification`".to_string()),
        Some(Value::Null) => return Ok(None),
        Some(v) => v,
    };
    let method = str_field(v, "method")?;
    let parsed = match method {
        "exact" => Verification::Exact {
            fidelity: f64_field(v, "fidelity")?,
            columns: usize_field(v, "columns")?,
            width: usize_field(v, "width")?,
            passed: bool_field(v, "passed")?,
        },
        "mps" => Verification::Mps {
            fidelity: f64_field(v, "fidelity")?,
            trunc_bound: f64_field(v, "trunc_bound")?,
            max_bond_used: usize_field(v, "max_bond_used")?,
            width: usize_field(v, "width")?,
            passed: bool_field(v, "passed")?,
        },
        "sampled" => Verification::Sampled {
            min_fidelity: f64_field(v, "min_fidelity")?,
            samples: usize_field(v, "samples")?,
            width: usize_field(v, "width")?,
            passed: bool_field(v, "passed")?,
        },
        "skip" => Verification::Skipped {
            reason: str_field(v, "reason")?.to_string(),
        },
        "error" => Verification::Error {
            reason: str_field(v, "reason")?.to_string(),
        },
        other => return Err(format!("unknown verification method {other:?}")),
    };
    Ok(Some(parsed))
}

fn parse_cell(v: &Value) -> Result<SweepCell, String> {
    let costing = match str_field(v, "costing")? {
        "hull" => "hull",
        "synth" => "synth",
        other => return Err(format!("unknown costing label {other:?}")),
    };
    let verify = match str_field(v, "verify")? {
        "off" => "off",
        "sampled" => "sampled",
        "mps" => "mps",
        "exact" => "exact",
        other => return Err(format!("unknown verify label {other:?}")),
    };
    // Drift fields parse leniently: journals written before the fleet
    // sweep existed carry neither, and default to a static cell.
    let epoch = match v.get("epoch") {
        None => 0,
        Some(_) => usize_field(v, "epoch")?,
    };
    let decision = match v.get("decision") {
        None => "-",
        Some(_) => match str_field(v, "decision")? {
            "-" => "-",
            "fresh" => "fresh",
            "kept" => "kept",
            "retrans" => "retrans",
            other => return Err(format!("unknown decision label {other:?}")),
        },
    };
    Ok(SweepCell {
        ordinal: u64_str_field_num(v, "ordinal")?,
        digest: u64_str_field(v, "digest", 16)?,
        topology: str_field(v, "topology")?.to_string(),
        calibration: str_field(v, "calibration")?.to_string(),
        benchmark: str_field(v, "benchmark")?.to_string(),
        costing,
        verify,
        verification: parse_verification(v)?,
        suite_seed: u64_str_field(v, "suite_seed", 10)?,
        epoch,
        decision,
        swaps: usize_field(v, "swaps")?,
        depth: usize_field(v, "depth")?,
        blocks: usize_field(v, "blocks")?,
        baseline_duration: f64_field(v, "baseline_duration")?,
        optimized_duration: f64_field(v, "optimized_duration")?,
        reduction_pct: f64_field(v, "reduction_pct")?,
        ft_improvement_pct: f64_field(v, "ft_improvement_pct")?,
        optimized_ft: f64_field(v, "optimized_ft")?,
        wall: Duration::ZERO,
    })
}

/// Ordinals are dense grid positions (far below 2^53), so they travel as
/// plain JSON numbers, unlike the 64-bit digests.
fn u64_str_field_num(v: &Value, key: &str) -> Result<u64, String> {
    let n = v
        .get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("missing numeric field `{key}`"))?;
    if n < 0.0 || n.fract() != 0.0 || n >= 9_007_199_254_740_992.0 {
        return Err(format!("field `{key}` is not an exact ordinal: {n}"));
    }
    Ok(n as u64)
}

fn parse_meta(v: &Value) -> Result<Meta, String> {
    let (shards, shard) = (usize_field(v, "shards")?, usize_field(v, "shard")?);
    if shard >= shards {
        return Err(SweepError::ShardOutOfRange { shard, shards }.to_string());
    }
    Ok(Meta {
        fingerprint: u64_str_field(v, "fingerprint", 16)?,
        shards,
        shard,
    })
}

/// Everything recovered from one journal or shard report.
#[derive(Debug)]
pub struct JournalContents {
    /// The file's identity header.
    pub meta: Meta,
    /// Completed cells, in file (completion) order.
    pub cells: Vec<SweepCell>,
    /// Whether a `shard-done` trailer was present (the run finished).
    pub done: bool,
}

/// Parses a journal or shard report, tolerating exactly one torn tail
/// line (a crash mid-append). Corruption anywhere else is an error —
/// only the final line can legitimately be incomplete.
pub fn read_journal(path: &Path) -> Result<JournalContents, SweepError> {
    let text = fs::read_to_string(path).map_err(|source| SweepError::Io {
        path: path.display().to_string(),
        source,
    })?;
    parse_journal(&text, &path.display().to_string())
}

/// Parses journal text already in memory; `origin` names the source in
/// any [`SweepError::Corrupt`] it reports. [`read_journal`] is the
/// file-reading wrapper; this entry point lets in-process pipelines (and
/// benchmarks) round-trip the JSONL dialect without touching disk.
pub fn parse_journal(text: &str, origin: &str) -> Result<JournalContents, SweepError> {
    let corrupt = |line: usize, reason: String| SweepError::Corrupt {
        path: origin.to_string(),
        line,
        reason,
    };
    let lines: Vec<&str> = text.lines().collect();
    let torn_tail_ok = |idx: usize| idx + 1 == lines.len() && !text.ends_with('\n');
    let mut meta = None;
    let mut cells = Vec::new();
    let mut done = false;
    for (idx, line) in lines.iter().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value = match json::parse(line) {
            Ok(v) => v,
            Err(_) if torn_tail_ok(idx) => break,
            Err(e) => return Err(corrupt(idx + 1, format!("unparseable JSON: {e}"))),
        };
        let kind = value.get("type").and_then(Value::as_str).unwrap_or("");
        let parsed: Result<(), String> = match kind {
            "sweep-meta" => parse_meta(&value).map(|m| {
                meta = Some(m);
            }),
            "cell" => parse_cell(&value).map(|c| {
                cells.push(c);
            }),
            "shard-done" => {
                done = true;
                Ok(())
            }
            // Older `--out` mirrors carry rollup summary lines; merge
            // re-derives every rollup from the cells and skips these.
            "rollup" | "verification" | "fleet" => Ok(()),
            other => Err(format!("unknown line type {other:?}")),
        };
        if let Err(reason) = parsed {
            if torn_tail_ok(idx) {
                // The crash tore this line mid-write; drop it. Whatever
                // half-cell it described was never acknowledged.
                if kind == "cell" {
                    break;
                }
            }
            return Err(corrupt(idx + 1, reason));
        }
    }
    let meta = meta.ok_or_else(|| corrupt(1, "missing sweep-meta header".to_string()))?;
    Ok(JournalContents { meta, cells, done })
}

/// An open, in-flight completion journal: one line appended and flushed
/// per completed cell, so a killed run can resume from everything that
/// finished.
#[derive(Debug)]
pub struct Journal {
    file: fs::File,
    path: String,
}

impl Journal {
    /// Starts a fresh journal at `path` (truncating any previous file)
    /// and writes the identity header.
    pub fn create(path: &Path, meta: Meta) -> Result<Journal, SweepError> {
        let io_err = |source: std::io::Error| SweepError::Io {
            path: path.display().to_string(),
            source,
        };
        let mut file = fs::File::create(path).map_err(io_err)?;
        writeln!(file, "{}", meta_line(&meta)).map_err(io_err)?;
        file.flush().map_err(io_err)?;
        Ok(Journal {
            file,
            path: path.display().to_string(),
        })
    }

    /// Reopens an existing journal for `--resume`: validates that its
    /// header matches `meta` (same spec fingerprint and shard
    /// coordinates), truncates any torn tail, rewrites the surviving
    /// prefix, and returns the journal (open for appending) plus the
    /// restored cells. A missing or empty file degrades to
    /// [`Journal::create`] with no restored cells.
    pub fn resume(path: &Path, meta: Meta) -> Result<(Journal, Vec<SweepCell>), SweepError> {
        if !path.exists() {
            return Ok((Journal::create(path, meta)?, Vec::new()));
        }
        let contents = read_journal(path)?;
        if contents.meta != meta {
            let have = contents.meta;
            return Err(SweepError::SpecMismatch {
                path: path.display().to_string(),
                reason: format!(
                    "journal belongs to fingerprint {:016x} shard {}/{}, this run is fingerprint {:016x} shard {}/{}",
                    have.fingerprint, have.shard, have.shards,
                    meta.fingerprint, meta.shard, meta.shards
                ),
            });
        }
        // Rewrite the validated prefix so the file is clean again, then
        // keep appending where it left off.
        let mut journal = Journal::create(path, meta)?;
        for cell in &contents.cells {
            journal.append(cell)?;
        }
        Ok((journal, contents.cells))
    }

    fn io_err(&self, source: std::io::Error) -> SweepError {
        SweepError::Io {
            path: self.path.clone(),
            source,
        }
    }

    /// Appends one completed cell and flushes, making it durable.
    pub fn append(&mut self, cell: &SweepCell) -> Result<(), SweepError> {
        writeln!(self.file, "{}", cell_line(cell)).map_err(|e| self.io_err(e))?;
        self.file.flush().map_err(|e| self.io_err(e))
    }

    /// Writes the `shard-done` trailer marking a cleanly finished run.
    pub fn finish(&mut self, cells: usize) -> Result<(), SweepError> {
        writeln!(self.file, "{}", done_line(cells)).map_err(|e| self.io_err(e))?;
        self.file.flush().map_err(|e| self.io_err(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_cell(ordinal: u64) -> SweepCell {
        SweepCell {
            ordinal,
            digest: 0xdead_beef_0000_0001 + ordinal,
            topology: "grid4x4".to_string(),
            calibration: "hotspot2".to_string(),
            benchmark: "QFT\ttab\"quote\"".to_string(),
            costing: "hull",
            verify: "exact",
            verification: Some(Verification::Exact {
                fidelity: 0.999_999_999_999_9,
                columns: 16,
                width: 4,
                passed: true,
            }),
            suite_seed: u64::MAX - 3, // exercises the >2^53 string path
            epoch: 2,
            decision: "kept",
            swaps: 3,
            depth: 41,
            blocks: 17,
            baseline_duration: 123.456_789_012_345_67,
            optimized_duration: 98.000_000_000_000_01,
            reduction_pct: 20.62,
            ft_improvement_pct: f64::NAN,
            optimized_ft: 0.87,
            wall: Duration::from_millis(5),
        }
    }

    fn assert_cells_round_trip(a: &SweepCell, b: &SweepCell) {
        assert_eq!(a.ordinal, b.ordinal);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.topology, b.topology);
        assert_eq!(a.calibration, b.calibration);
        assert_eq!(a.benchmark, b.benchmark);
        assert_eq!(a.costing, b.costing);
        assert_eq!(a.verify, b.verify);
        assert_eq!(a.suite_seed, b.suite_seed);
        assert_eq!(a.epoch, b.epoch);
        assert_eq!(a.decision, b.decision);
        assert_eq!(a.swaps, b.swaps);
        assert_eq!(
            a.baseline_duration.to_bits(),
            b.baseline_duration.to_bits(),
            "f64 round trip must be bit-exact"
        );
        assert_eq!(
            a.optimized_duration.to_bits(),
            b.optimized_duration.to_bits()
        );
        assert!(a.ft_improvement_pct.is_nan() == b.ft_improvement_pct.is_nan());
        assert_eq!(
            format!("{:?}", a.verification),
            format!("{:?}", b.verification)
        );
        assert_eq!(b.wall, Duration::ZERO, "wall time is never persisted");
    }

    #[test]
    fn cell_lines_round_trip_bitwise() {
        let cell = sample_cell(7);
        let line = cell_line(&cell);
        let parsed = parse_cell(&json::parse(&line).unwrap()).unwrap();
        assert_cells_round_trip(&cell, &parsed);

        // Non-finite sentinels and every verification variant.
        let mut hostile = sample_cell(8);
        hostile.baseline_duration = f64::INFINITY;
        hostile.optimized_duration = f64::NEG_INFINITY;
        hostile.verification = Some(Verification::Error {
            reason: "oracle \"died\"\n".to_string(),
        });
        let parsed = parse_cell(&json::parse(&cell_line(&hostile)).unwrap()).unwrap();
        assert_cells_round_trip(&hostile, &parsed);
        let mut skip = sample_cell(9);
        skip.verification = Some(Verification::Skipped {
            reason: "width".to_string(),
        });
        let parsed = parse_cell(&json::parse(&cell_line(&skip)).unwrap()).unwrap();
        assert_cells_round_trip(&skip, &parsed);
        let mut mps = sample_cell(11);
        mps.verify = "mps";
        mps.verification = Some(Verification::Mps {
            fidelity: 0.999_876_543_21,
            trunc_bound: 3.2e-4,
            max_bond_used: 37,
            width: 64,
            passed: true,
        });
        let parsed = parse_cell(&json::parse(&cell_line(&mps)).unwrap()).unwrap();
        assert_cells_round_trip(&mps, &parsed);
        let mut none = sample_cell(10);
        none.verification = None;
        let parsed = parse_cell(&json::parse(&cell_line(&none)).unwrap()).unwrap();
        assert!(parsed.verification.is_none());
    }

    #[test]
    fn pre_drift_cell_lines_parse_to_static_cells() {
        // A line written before the fleet sweep existed has no
        // epoch/decision fields; it must parse as an epoch-0 static cell.
        let mut cell = sample_cell(3);
        cell.epoch = 0;
        cell.decision = "-";
        let line = cell_line(&cell).replace(",\"epoch\":0,\"decision\":\"-\"", "");
        assert!(!line.contains("epoch"), "{line}");
        let parsed = parse_cell(&json::parse(&line).unwrap()).unwrap();
        assert_eq!((parsed.epoch, parsed.decision), (0, "-"));
        assert_cells_round_trip(&cell, &parsed);
        // Unknown decision labels are rejected, not defaulted.
        let bad = cell_line(&cell).replace("\"decision\":\"-\"", "\"decision\":\"maybe\"");
        let err = parse_cell(&json::parse(&bad).unwrap()).unwrap_err();
        assert!(err.contains("decision"), "{err}");
    }

    #[test]
    fn journal_appends_resumes_and_truncates_torn_tail() {
        let dir = std::env::temp_dir().join("paradrive_checkpoint_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal_torn.jsonl");
        let meta = Meta {
            fingerprint: 0xfeed_f00d_1234_5678,
            shards: 4,
            shard: 1,
        };
        let mut journal = Journal::create(&path, meta).unwrap();
        journal.append(&sample_cell(1)).unwrap();
        journal.append(&sample_cell(5)).unwrap();
        drop(journal);

        // Simulate a crash mid-append: half a cell line, no newline.
        let mut text = fs::read_to_string(&path).unwrap();
        text.push_str(&cell_line(&sample_cell(9))[..40]);
        fs::write(&path, &text).unwrap();

        let (mut journal, restored) = Journal::resume(&path, meta).unwrap();
        assert_eq!(
            restored.iter().map(|c| c.ordinal).collect::<Vec<_>>(),
            vec![1, 5],
            "torn tail must be dropped, durable cells kept"
        );
        journal.append(&sample_cell(9)).unwrap();
        journal.finish(3).unwrap();
        drop(journal);

        let contents = read_journal(&path).unwrap();
        assert_eq!(contents.meta, meta);
        assert_eq!(contents.cells.len(), 3);
        assert!(contents.done);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_rejects_foreign_journals_and_interior_corruption() {
        let dir = std::env::temp_dir().join("paradrive_checkpoint_test");
        fs::create_dir_all(&dir).unwrap();
        let meta = Meta {
            fingerprint: 1,
            shards: 2,
            shard: 0,
        };

        // A journal written by a different spec must not be resumed.
        let foreign = dir.join("journal_foreign.jsonl");
        let other = Meta {
            fingerprint: 2,
            ..meta
        };
        drop(Journal::create(&foreign, other).unwrap());
        let err = Journal::resume(&foreign, meta).unwrap_err();
        assert!(
            matches!(err, SweepError::SpecMismatch { .. }),
            "got {err:?}"
        );
        fs::remove_file(&foreign).unwrap();

        // Corruption anywhere but the tail is an error, not a truncation.
        let corrupt_path = dir.join("journal_corrupt.jsonl");
        let text = format!(
            "{}\nnot json at all\n{}\n",
            meta_line(&meta),
            cell_line(&sample_cell(0))
        );
        fs::write(&corrupt_path, text).unwrap();
        let err = read_journal(&corrupt_path).unwrap_err();
        match err {
            SweepError::Corrupt { line, .. } => assert_eq!(line, 2),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        fs::remove_file(&corrupt_path).unwrap();
    }

    #[test]
    fn impossible_shard_headers_are_corrupt() {
        for (shards, shard) in [(0, 0), (1, 5), (2, 2)] {
            let meta = Meta {
                fingerprint: 1,
                shards,
                shard,
            };
            let text = format!("{}\n{}\n", meta_line(&meta), done_line(0));
            match parse_journal(&text, "report.jsonl").unwrap_err() {
                SweepError::Corrupt { line, reason, .. } => {
                    assert_eq!(line, 1);
                    assert!(reason.contains("out of range"), "{reason}");
                }
                other => panic!("expected Corrupt, got {other:?}"),
            }
        }
        let fine = Meta {
            fingerprint: 1,
            shards: 2,
            shard: 1,
        };
        let text = format!("{}\n{}\n", meta_line(&fine), done_line(0));
        assert_eq!(parse_journal(&text, "report.jsonl").unwrap().meta, fine);
    }
}
