//! Table VII: end-to-end transpilation results — baseline vs
//! parallel-drive durations and fidelities for the 16-qubit suite.

use paradrive_engine::{run_batch, Batch, EngineConfig};
use paradrive_repro::header;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    header("Table VII — Transpilation results, D[1Q]=0.25, Linear SLF");
    let report = run_batch(
        &Batch::standard(7),
        &EngineConfig::default().routing_seeds(10),
    )
    .map_err(|e| format!("suite run failed: {e}"))?;
    println!(
        "{:<12} {:>9} {:>11} {:>11} {:>10} {:>8} {:>9}",
        "benchmark", "swaps", "baseline", "optimized", "dur. red%", "FQ imp%", "FT imp%"
    );
    for r in report.circuits.iter().map(|c| &c.result) {
        println!(
            "{:<12} {:>9} {:>11.2} {:>11.2} {:>10.2} {:>8.2} {:>9.2}",
            r.name,
            r.swaps,
            r.baseline_duration,
            r.optimized_duration,
            r.duration_reduction_pct,
            r.fq_improvement_pct,
            r.ft_improvement_pct
        );
    }
    println!(
        "\naverage duration reduction: {:.2}%   (paper: 17.8%, range 11.2–27.6%)",
        report.average_reduction_pct()
    );
    println!("paper per-benchmark reductions: QV 11.2, VQE_L 16.5, GHZ 15.0, HLF 13.9,");
    println!("  QFT 19.5, Adder 17.6, QAOA 25.3, VQE_F 14.0, Multiplier 27.6");
    Ok(())
}
