//! The sharded sweep's acceptance guarantees: any shard split merges
//! back to the single-process report byte-for-byte, and a killed run
//! resumed from its journal finishes with bit-identical output.

use paradrive_engine::VerifyLevel;
use paradrive_repro::sweep::{
    merge_reports, read_journal, run_sweep, run_sweep_shard, ShardOptions, SweepError,
    SweepOutcome, SweepSpec,
};
use std::fs;
use std::path::PathBuf;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("paradrive_shards_{name}"));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// A small but multi-axis spec: the smoke cross-product with three
/// verification levels — off, Monte-Carlo, and the MPS overlap oracle —
/// so shard merges and journal resumes cover every verdict shape.
fn spec() -> SweepSpec {
    let mut spec = SweepSpec::smoke();
    spec.verify = vec![VerifyLevel::Off, VerifyLevel::Sampled, VerifyLevel::Mps];
    spec
}

fn at_threads(spec: &SweepSpec, threads: usize, opts: &ShardOptions<'_>) -> SweepOutcome {
    let mut spec = spec.clone();
    spec.threads = threads;
    run_sweep_shard(&spec, opts).unwrap_or_else(|e| panic!("shard sweep: {e}"))
}

#[test]
fn every_shard_split_merges_to_the_single_process_report() {
    let dir = temp_dir("merge");
    let spec = spec();
    let reference = run_sweep(&spec).unwrap();
    let want = reference.render();
    let want_jsonl = reference.to_jsonl();

    for shards in 1..=5 {
        // Alternate worker-thread counts across shards: the merged
        // report must not care how each shard was parallelized.
        let mut reports = Vec::new();
        for shard in 0..shards {
            let threads = if shard % 2 == 0 { 1 } else { 4 };
            let out = at_threads(
                &spec,
                threads,
                &ShardOptions {
                    shards,
                    shard,
                    ..ShardOptions::default()
                },
            );
            // Each shard holds only its slice, in ordinal order.
            assert!(out
                .cells
                .iter()
                .all(|c| c.ordinal % shards as u64 == shard as u64));
            let path = dir.join(format!("s{shards}_{shard}.jsonl"));
            fs::write(&path, out.to_jsonl()).unwrap();
            reports.push((path.display().to_string(), read_journal(&path).unwrap()));
        }
        let total: usize = reports.iter().map(|(_, c)| c.cells.len()).sum();
        assert_eq!(
            total,
            reference.cells.len(),
            "{shards}-way split lost cells"
        );
        let merged = merge_reports(&spec, reports).unwrap();
        assert_eq!(
            merged.render(),
            want,
            "{shards}-way shard merge is not byte-identical"
        );
        assert_eq!(
            merged.to_jsonl(),
            want_jsonl,
            "{shards}-way merged JSONL mirror diverged"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn resume_after_a_torn_journal_is_bit_identical() {
    let dir = temp_dir("resume");
    let spec = spec();
    let journal_path = dir.join("journal.jsonl");

    // A clean run establishes the reference render and a full journal.
    let opts = ShardOptions {
        journal: Some(&journal_path),
        ..ShardOptions::default()
    };
    let reference = at_threads(&spec, 4, &opts);
    let want = reference.render();
    let full = fs::read_to_string(&journal_path).unwrap();
    let lines: Vec<&str> = full.lines().collect();
    // meta + one cell per grid cell + shard-done trailer.
    assert_eq!(lines.len(), reference.cells.len() + 2);

    // Simulate a mid-sweep kill: keep the header and the first three
    // completed cells, plus half of a fourth line torn mid-write.
    let mut torn = lines[..4].join("\n");
    torn.push('\n');
    torn.push_str(&lines[4][..lines[4].len() / 2]);
    fs::write(&journal_path, &torn).unwrap();

    let resumed = at_threads(
        &spec,
        1, // different thread count than the original run, on purpose
        &ShardOptions {
            journal: Some(&journal_path),
            resume: true,
            ..ShardOptions::default()
        },
    );
    assert_eq!(
        resumed.render(),
        want,
        "resumed render differs from the uninterrupted run"
    );
    assert_eq!(resumed.to_jsonl(), reference.to_jsonl());
    // Restored cells carry no wall time; freshly run cells do.
    let zero_wall = resumed.cells.iter().filter(|c| c.wall.is_zero()).count();
    assert_eq!(zero_wall, 3, "exactly the restored cells have no wall time");

    // After the resumed run the journal is complete and re-resumable:
    // everything restores, no engine work happens (threads stays 0).
    let contents = read_journal(&journal_path).unwrap();
    assert!(contents.done);
    assert_eq!(contents.cells.len(), reference.cells.len());
    let replay = at_threads(
        &spec,
        4,
        &ShardOptions {
            journal: Some(&journal_path),
            resume: true,
            ..ShardOptions::default()
        },
    );
    assert_eq!(replay.render(), want);
    assert!(replay.runs.iter().all(|r| r.threads == 0));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn sharding_misuse_is_rejected_with_typed_errors() {
    let spec = spec();
    // Shard index past the split.
    let err = run_sweep_shard(
        &spec,
        &ShardOptions {
            shards: 2,
            shard: 2,
            ..ShardOptions::default()
        },
    )
    .unwrap_err();
    assert!(matches!(
        err,
        SweepError::ShardOutOfRange {
            shard: 2,
            shards: 2
        }
    ));

    // Merging a shard report into the wrong spec trips the fingerprint.
    let dir = temp_dir("misuse");
    let path = dir.join("shard.jsonl");
    let out = run_sweep(&spec).unwrap();
    fs::write(&path, out.to_jsonl()).unwrap();
    let contents = read_journal(&path).unwrap();
    let mut other = spec.clone();
    other.calibration_seed += 1;
    let err = merge_reports(&other, vec![(path.display().to_string(), contents)]).unwrap_err();
    assert!(matches!(err, SweepError::SpecMismatch { .. }), "{err:?}");

    // An incomplete journal (missing cells) fails coverage, naming the gap.
    let partial = run_sweep_shard(
        &spec,
        &ShardOptions {
            shards: 2,
            shard: 0,
            ..ShardOptions::default()
        },
    )
    .unwrap();
    fs::write(&path, partial.to_jsonl()).unwrap();
    let contents = read_journal(&path).unwrap();
    let err = merge_reports(&spec, vec![(path.display().to_string(), contents)]).unwrap_err();
    match err {
        SweepError::Coverage(msg) => {
            assert!(msg.contains("missing"), "{msg}");
        }
        other => panic!("expected Coverage, got {other:?}"),
    }
    let _ = fs::remove_dir_all(&dir);
}

/// A cell whose ordinal and digest still match the plan but whose axis
/// labels were edited fails both `--resume` and `merge` with a
/// `SpecMismatch` naming the field, instead of rendering under a label
/// the plan never ran.
#[test]
fn relabeled_cells_are_rejected_on_resume_and_merge() {
    let dir = temp_dir("relabel");
    let spec = spec();
    let journal_path = dir.join("journal.jsonl");
    let reference = at_threads(
        &spec,
        2,
        &ShardOptions {
            journal: Some(&journal_path),
            ..ShardOptions::default()
        },
    );
    let journal = fs::read_to_string(&journal_path).unwrap();
    let report = reference.to_jsonl();
    let report_path = dir.join("report.jsonl");
    let mismatch = |err: SweepError| match err {
        SweepError::SpecMismatch { reason, .. } => reason,
        other => panic!("expected SpecMismatch, got {other:?}"),
    };
    for (field, from, to) in [
        (
            "topology",
            r#""topology":"grid4x4""#,
            r#""topology":"ring16""#,
        ),
        (
            "calibration",
            r#""calibration":"uniform""#,
            r#""calibration":"spread0.3""#,
        ),
        ("benchmark", r#""benchmark":"GHZ""#, r#""benchmark":"QFT""#),
        ("costing", r#""costing":"hull""#, r#""costing":"synth""#),
        ("verify", r#""verify":"off""#, r#""verify":"sampled""#),
        ("suite seed", r#""suite_seed":"7""#, r#""suite_seed":"11""#),
        ("epoch", r#""epoch":0"#, r#""epoch":2"#),
    ] {
        assert!(journal.contains(from) && report.contains(from), "{from}");
        fs::write(&journal_path, journal.replacen(from, to, 1)).unwrap();
        let err = run_sweep_shard(
            &spec,
            &ShardOptions {
                journal: Some(&journal_path),
                resume: true,
                ..ShardOptions::default()
            },
        )
        .unwrap_err();
        let reason = mismatch(err);
        assert!(reason.contains(field), "resume, {field}: {reason}");

        fs::write(&report_path, report.replacen(from, to, 1)).unwrap();
        let contents = read_journal(&report_path).unwrap();
        let err =
            merge_reports(&spec, vec![(report_path.display().to_string(), contents)]).unwrap_err();
        let reason = mismatch(err);
        assert!(reason.contains(field), "merge, {field}: {reason}");
    }
    let _ = fs::remove_dir_all(&dir);
}
