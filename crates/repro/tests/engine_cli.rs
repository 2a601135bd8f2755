//! The `engine` CLI rejects malformed verification flags at parse time:
//! the process fails before any job runs, names the flag on stderr and
//! prints no report.

use std::process::Command;

/// Runs `engine` on GHZ with `args` and asserts the flag was rejected.
fn assert_rejected(args: &[&str], flag: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_engine"))
        .args(["--threads", "1", "--seeds", "2"])
        .args(args)
        .arg("GHZ")
        .output()
        .expect("engine launches");
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
