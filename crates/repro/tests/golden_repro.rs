//! Golden snapshot tests for the paper-figure binaries: the committed
//! expected output is compared **verbatim**, locking paper-figure
//! determinism across refactors. The binaries are seeded and print no
//! wall-clock content, so any diff is a real behavior change — update the
//! golden file deliberately (`cargo run --release -p paradrive-repro
//! --bin <name> -- <args> > crates/repro/tests/golden/<file>.txt`, with
//! the arguments the test passes) when one is intended.

use std::process::Command;

fn run_golden(bin: &str, args: &[&str], golden: &str) {
    let out = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("failed to launch {bin}: {e}"));
    assert!(
        out.status.success(),
        "{bin} exited with {:?}; stderr:\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("binary output is UTF-8");
    if stdout != golden {
        // Locate the first diverging line for a readable failure.
        let mismatch = stdout
            .lines()
            .zip(golden.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b);
        match mismatch {
            Some((i, (got, want))) => panic!(
                "{bin}: output diverged from the golden snapshot at line {}:\n  got:  {got}\n  want: {want}",
                i + 1
            ),
            None => panic!(
                "{bin}: output length diverged from the golden snapshot ({} vs {} bytes)",
                stdout.len(),
                golden.len()
            ),
        }
    }
}

#[test]
fn table1_output_matches_golden_snapshot() {
    run_golden(
        env!("CARGO_BIN_EXE_table1"),
        &[],
        include_str!("golden/table1.txt"),
    );
}

#[test]
fn fig1_output_matches_golden_snapshot() {
    run_golden(
        env!("CARGO_BIN_EXE_fig1"),
        &[],
        include_str!("golden/fig1.txt"),
    );
}

/// Pins every consolidated-class count of the routed suite and the λ of
/// Eq. 6 computed from their totals, exactly.
#[test]
fn fig3b_output_matches_golden_snapshot() {
    run_golden(
        env!("CARGO_BIN_EXE_fig3b"),
        &[],
        include_str!("golden/fig3b.txt"),
    );
}

/// Pins every Table VII row (SWAPs, both durations, the reduction and
/// both fidelity improvements) and the suite-mean reduction.
#[test]
fn table7_output_matches_golden_snapshot() {
    run_golden(
        env!("CARGO_BIN_EXE_table7"),
        &[],
        include_str!("golden/table7.txt"),
    );
}

/// Pins a drifted fleet sweep: fresh, kept and re-transpiled cells under
/// sampled verification, and the topology, calibration, fleet and
/// verification rollups. Family-class benchmarks only, so no coverage
/// stack is built.
#[test]
fn drifted_sweep_output_matches_golden_snapshot() {
    run_golden(
        env!("CARGO_BIN_EXE_sweep"),
        &[
            "--smoke",
            "--topologies",
            "grid4x4,ring16",
            "--calibrations",
            "spread0.2,spread0.3",
            "--benchmarks",
            "GHZ,VQE_L",
            "--verify",
            "sampled",
            "--noise-aware",
            "--drift",
            "walk0.05dead1",
            "--epochs",
            "4",
        ],
        include_str!("golden/sweep_drift.txt"),
    );
}
