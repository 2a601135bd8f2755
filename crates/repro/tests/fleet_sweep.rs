//! The drifted sweep's acceptance guarantees, end to end through the
//! CLI-facing sweep layer: the adaptive policy strictly beats never
//! re-transpiling on delivered fidelity and strictly undercuts always
//! re-transpiling on cost; a calm (zero-volatility) timeline reproduces
//! the static sweep's numbers in every epoch; and the drifted report —
//! fleet rollups included — is bit-identical across thread counts,
//! shard splits, and journal resumes cut after any number of cells.

use paradrive_engine::RetranspilePolicy;
use paradrive_obs::json;
use paradrive_repro::sweep::{
    merge_reports, read_journal, run_sweep, run_sweep_shard, ShardOptions, SweepOutcome, SweepSpec,
};
use std::fs;
use std::path::PathBuf;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("paradrive_fleet_{name}"));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// The acceptance grid: one 16-qubit topology under a zero-sigma walk
/// with two abrupt dead-edge events over five epochs — drift severe
/// enough for stale routes to bleed fidelity, with quiet epochs left
/// over for the adaptive policy to keep routes through.
fn drifting_spec() -> SweepSpec {
    let mut spec = SweepSpec::smoke();
    spec.topologies = vec!["grid4x4".into()];
    spec.benchmarks = vec!["QFT".into(), "GHZ".into(), "VQE_L".into()];
    spec.noise_aware = true;
    spec.routing_seeds = 2;
    spec.threads = 2;
    spec.drift = Some("walk0dead2".into());
    spec.epochs = 5;
    spec.drift_seed = 11;
    spec
}

fn at_threads(spec: &SweepSpec, threads: usize, opts: &ShardOptions<'_>) -> SweepOutcome {
    let mut spec = spec.clone();
    spec.threads = threads;
    run_sweep_shard(&spec, opts).unwrap_or_else(|e| panic!("fleet sweep: {e}"))
}

#[test]
fn adaptive_beats_never_and_undercuts_always_end_to_end() {
    let run = |policy: RetranspilePolicy| {
        let mut spec = drifting_spec();
        spec.policy = policy;
        run_sweep(&spec).unwrap()
    };
    let never = run(RetranspilePolicy::Never);
    let always = run(RetranspilePolicy::Always);
    let adaptive = run(RetranspilePolicy::Adaptive {
        max_fidelity_loss: 0.05,
    });
    let fleet = |out: &SweepOutcome| out.runs[0].fleet.clone().expect("drifted run has a fleet");
    let (never, always, adaptive) = (fleet(&never), fleet(&always), fleet(&adaptive));

    assert!(
        adaptive.mean_delivered_ft > never.mean_delivered_ft,
        "adaptive {} must beat never {}",
        adaptive.mean_delivered_ft,
        never.mean_delivered_ft
    );
    assert!(
        adaptive.total_retranspiles < always.total_retranspiles,
        "adaptive {} must cost less than always {}",
        adaptive.total_retranspiles,
        always.total_retranspiles
    );
    assert!(adaptive.total_retranspiles > 0, "the dead edges must bite");
    assert_eq!(never.total_retranspiles, 0);
    assert_eq!(always.total_retranspiles, 3 * 4);
    assert!(adaptive.retranspile_rate < 1.0);
    // Quiet epochs under the zero-sigma walk are pure keeps: the cache
    // decay is event-driven, not noise-driven.
    assert!(adaptive
        .epochs
        .iter()
        .skip(1)
        .any(|e| e.route_reuse_rate == 1.0));
    assert_eq!(adaptive.epochs.len(), 5);
    assert!(adaptive.epochs.iter().all(|e| e.cells == 3));
    assert_eq!(adaptive.epochs[0].fresh, 3);
}

#[test]
fn fleet_rollups_land_in_the_rendered_report_and_jsonl_mirror() {
    let mut spec = drifting_spec();
    spec.policy = RetranspilePolicy::Adaptive {
        max_fidelity_loss: 0.05,
    };
    let out = run_sweep(&spec).unwrap();
    let text = out.render();
    assert!(text.contains("fleet:"), "{text}");
    assert!(text.contains("re-transpile rate"), "{text}");
    assert!(text.contains("route reuse"), "{text}");
    assert!(text.contains("mean delivered F[T]opt"), "{text}");
    // Drifted rows carry the epoch and decision columns.
    assert!(text.contains(" ep "), "{text}");
    assert!(text.contains("fresh"), "{text}");
    assert!(text.contains("retrans") || text.contains("kept"), "{text}");
    // The JSONL mirror is the journal dialect and nothing else: the
    // header, one cell line per cell in ordinal order, and the trailer.
    // It round-trips through the journal reader + merge, which re-derives
    // the fleet rollup from the cells.
    let jsonl = out.to_jsonl();
    let mut ordinals: Vec<u64> = out.cells.iter().map(|c| c.ordinal).collect();
    ordinals.sort_unstable();
    let want: Vec<String> = std::iter::once("sweep-meta".to_string())
        .chain(ordinals.iter().map(|o| format!("cell {o}")))
        .chain(std::iter::once("shard-done".to_string()))
        .collect();
    let got: Vec<String> = jsonl
        .lines()
        .map(|line| {
            let v = json::parse(line).unwrap();
            let kind = v.get("type").and_then(json::Value::as_str).unwrap_or("?");
            match v.get("ordinal").and_then(json::Value::as_f64) {
                Some(o) => format!("{kind} {o}"),
                None => kind.to_string(),
            }
        })
        .collect();
    assert_eq!(got, want, "{jsonl}");
    let dir = temp_dir("mirror");
    let path = dir.join("out.jsonl");
    fs::write(&path, &jsonl).unwrap();
    let contents = read_journal(&path).unwrap();
    assert_eq!(contents.cells.len(), out.cells.len());
    let merged = merge_reports(&spec, vec![(path.display().to_string(), contents)]).unwrap();
    assert_eq!(merged.render(), text);
    assert_eq!(merged.to_jsonl(), jsonl);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn calm_timeline_epochs_mirror_the_static_sweep() {
    let mut calm = SweepSpec::smoke();
    calm.topologies = vec!["grid4x4".into()];
    calm.drift = Some("calm".into());
    calm.epochs = 3;
    let mut still = calm.clone();
    still.drift = None;
    still.epochs = 1;

    let drifted = run_sweep(&calm).unwrap();
    let reference = run_sweep(&still).unwrap();
    assert_eq!(drifted.cells.len(), 3 * reference.cells.len());
    for epoch in 0..3 {
        let slice: Vec<_> = drifted.cells.iter().filter(|c| c.epoch == epoch).collect();
        assert_eq!(slice.len(), reference.cells.len());
        for (c, s) in slice.iter().zip(&reference.cells) {
            assert_eq!(c.decision, if epoch == 0 { "fresh" } else { "kept" });
            assert_eq!((&c.topology, &c.benchmark), (&s.topology, &s.benchmark));
            assert_eq!(c.suite_seed, s.suite_seed);
            assert_eq!((c.swaps, c.depth, c.blocks), (s.swaps, s.depth, s.blocks));
            // Zero volatility means every epoch's numbers are the static
            // sweep's numbers, bit for bit.
            assert_eq!(c.optimized_ft.to_bits(), s.optimized_ft.to_bits());
            assert_eq!(c.baseline_duration.to_bits(), s.baseline_duration.to_bits());
            assert_eq!(
                c.optimized_duration.to_bits(),
                s.optimized_duration.to_bits()
            );
        }
    }
    let fleet = drifted.runs[0].fleet.as_ref().unwrap();
    assert_eq!(
        fleet.total_retranspiles, 0,
        "calm fleets never re-transpile"
    );
    assert!(fleet
        .epochs
        .iter()
        .skip(1)
        .all(|e| e.route_reuse_rate == 1.0));
}

#[test]
fn drifted_report_is_thread_shard_and_resume_invariant() {
    let dir = temp_dir("invariance");
    let mut spec = drifting_spec();
    spec.benchmarks = vec!["GHZ".into(), "QFT".into()];
    spec.drift = Some("walk0.05dead1".into());
    spec.epochs = 3;

    let reference = run_sweep(&spec).unwrap();
    let want = reference.render();
    let want_jsonl = reference.to_jsonl();
    assert_eq!(reference.cells.len(), 2 * 3);

    // Thread invariance: the fleet replay is a pure function of the spec.
    for threads in [1, 4] {
        let out = at_threads(&spec, threads, &ShardOptions::default());
        assert_eq!(out.render(), want, "{threads}-thread render diverged");
        assert_eq!(out.to_jsonl(), want_jsonl);
    }

    // Shard invariance: the epoch axis is innermost, so a 2-way split
    // interleaves epochs across shards — each shard re-runs the full
    // timeline but only emits its own cells.
    let mut reports = Vec::new();
    for shard in 0..2 {
        let out = at_threads(
            &spec,
            if shard == 0 { 1 } else { 4 },
            &ShardOptions {
                shards: 2,
                shard,
                ..ShardOptions::default()
            },
        );
        assert!(out.cells.iter().all(|c| c.ordinal % 2 == shard as u64));
        let path = dir.join(format!("s{shard}.jsonl"));
        fs::write(&path, out.to_jsonl()).unwrap();
        reports.push((path.display().to_string(), read_journal(&path).unwrap()));
    }
    let merged = merge_reports(&spec, reports).unwrap();
    assert_eq!(merged.render(), want, "2-way shard merge diverged");
    assert_eq!(merged.to_jsonl(), want_jsonl);

    // Resume invariance: cells are journaled in completion order, so a
    // kill can leave any prefix of them, cutting across epochs and jobs.
    // Keep the journal's header plus the first k cells, torn mid-line on
    // the next line, for every k, and resume with another thread count.
    let journal_path = dir.join("journal.jsonl");
    let opts = ShardOptions {
        journal: Some(&journal_path),
        ..ShardOptions::default()
    };
    let journaled = at_threads(&spec, 2, &opts);
    assert_eq!(journaled.render(), want);
    let full = fs::read_to_string(&journal_path).unwrap();
    let lines: Vec<&str> = full.lines().collect();
    assert_eq!(lines.len(), reference.cells.len() + 2);
    for k in 0..=reference.cells.len() {
        let mut torn = lines[..1 + k].join("\n");
        torn.push('\n');
        torn.push_str(&lines[1 + k][..lines[1 + k].len() / 2]);
        fs::write(&journal_path, &torn).unwrap();
        let resumed = at_threads(
            &spec,
            if k % 2 == 0 { 1 } else { 4 },
            &ShardOptions {
                journal: Some(&journal_path),
                resume: true,
                ..ShardOptions::default()
            },
        );
        // The k restored cells were read back; the rest of every job's
        // timeline was re-derived, not guessed.
        assert_eq!(resumed.render(), want, "resume after {k} cell(s) diverged");
        assert_eq!(resumed.to_jsonl(), want_jsonl, "resume after {k} cell(s)");
        assert!(
            resumed.cells.iter().all(|c| c.wall.is_zero()),
            "fleet cells carry no wall time"
        );
        let rejournaled = read_journal(&journal_path).unwrap();
        assert!(rejournaled.done, "resume after {k} cell(s) did not finish");
        assert_eq!(rejournaled.cells.len(), reference.cells.len());
    }
    let _ = fs::remove_dir_all(&dir);
}

/// `sweep --timings` on a drifted sweep: the warm cache pair every epoch
/// shares is reported (not "disabled"), and since fleet cells carry no
/// wall time of their own the timings say so instead of naming a 0.0 ms
/// "slowest" cell. Neither diagnostic reaches the deterministic render.
#[test]
fn drifted_timings_report_the_fleet_cache_and_untimed_cells() {
    let mut spec = SweepSpec::smoke();
    spec.topologies = vec!["grid4x4".into()];
    spec.benchmarks = vec!["GHZ".into()];
    spec.noise_aware = true;
    spec.drift = Some("walk0.05dead1".into());
    spec.epochs = 3;

    let cached = run_sweep(&spec).unwrap();
    let stats = cached.runs[0].cache.expect("the fleet's cache pair is on");
    assert!(stats.hits > 0 && stats.misses > 0, "{stats:?}");
    let timings = cached.render_timings();
    assert!(!timings.contains("cache: disabled"), "{timings}");
    assert!(
        timings.contains("fleet runs do not time cells"),
        "{timings}"
    );
    assert!(!timings.contains("slowest cell"), "{timings}");

    spec.cache = false;
    let uncached = run_sweep(&spec).unwrap();
    assert!(uncached.runs[0].cache.is_none());
    assert!(uncached.render_timings().contains("cache: disabled"));
    assert_eq!(uncached.render(), cached.render());
}
