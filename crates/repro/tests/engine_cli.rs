//! The `engine` CLI rejects malformed verification flags, and both the
//! `engine` and `sweep` CLIs reject counts above their documented maxima,
//! at parse time: the process fails before any job runs (so no test here
//! sizes work by a large value), names the flag on stderr and prints no
//! report. Both print their usage on stdout and succeed under `--help`.

use paradrive_repro::sweep::{MAX_ROUTING_SEEDS, MAX_THREADS, MAX_VERIFY_SAMPLES};
use std::process::{Command, Output};

/// Runs `engine` on GHZ with `args` and asserts the flag was rejected.
fn assert_rejected(args: &[&str], flag: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_engine"))
        .args(["--threads", "1", "--seeds", "2"])
        .args(args)
        .arg("GHZ")
        .output()
        .expect("engine launches");
    assert_output_rejected(&out, args, flag);
}

/// Asserts a CLI run failed before printing a report, naming `flag`.
fn assert_output_rejected(out: &Output, args: &[&str], flag: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "{args:?} was accepted; stderr:\n{stderr}"
    );
    assert!(
        stderr.contains(flag),
        "{args:?}: stderr does not name {flag}:\n{stderr}"
    );
    assert!(
        out.stdout.is_empty(),
        "{args:?} printed a report:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

/// `--help` is a successful run: the usage on stdout, nothing on stderr.
#[test]
fn help_prints_the_usage_on_stdout_and_succeeds() {
    for (bin, name) in [
        (env!("CARGO_BIN_EXE_engine"), "engine"),
        (env!("CARGO_BIN_EXE_sweep"), "sweep"),
    ] {
        for flag in ["--help", "-h"] {
            let out = Command::new(bin).arg(flag).output().expect("CLI launches");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(out.status.success(), "{name} {flag} failed:\n{stdout}");
            assert!(
                stdout.starts_with(&format!("usage: {name} ")),
                "{name} {flag} printed no usage:\n{stdout}"
            );
            assert!(stdout.contains("limits: --threads at most"), "{stdout}");
            assert!(
                out.stderr.is_empty(),
                "{name} {flag} wrote to stderr:\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
        }
    }
}

#[test]
fn non_finite_or_negative_mps_tolerances_are_rejected() {
    for tol in ["nan", "-1", "inf"] {
        assert_rejected(
            &["--verify", "mps", "--verify-mps-tol", tol],
            "--verify-mps-tol",
        );
    }
}

#[test]
fn zero_verify_samples_are_rejected() {
    assert_rejected(
        &["--verify", "sampled", "--verify-samples", "0"],
        "--verify-samples",
    );
}

#[test]
fn a_zero_bond_cap_is_rejected() {
    assert_rejected(
        &["--verify", "mps", "--verify-max-bond", "0"],
        "--verify-max-bond",
    );
}

#[test]
fn engine_counts_above_their_maxima_are_rejected() {
    for (flag, max) in [
        ("--threads", MAX_THREADS as u64),
        ("--seeds", MAX_ROUTING_SEEDS),
        ("--verify-samples", u64::from(MAX_VERIFY_SAMPLES)),
    ] {
        for value in [max + 1, 100_000] {
            let value = value.to_string();
            assert_rejected(&["--verify", "sampled", flag, &value], flag);
        }
    }
}

#[test]
fn sweep_counts_above_their_maxima_are_rejected() {
    for (flag, max) in [
        ("--threads", MAX_THREADS as u64),
        ("--seeds", MAX_ROUTING_SEEDS),
    ] {
        let value = (max + 1).to_string();
        let args = ["--smoke", "--benchmarks", "GHZ", flag, &value];
        let out = Command::new(env!("CARGO_BIN_EXE_sweep"))
            .args(args)
            .output()
            .expect("sweep launches");
        assert_output_rejected(&out, &args, flag);
    }
}
