//! Scoring one transpiled circuit for the Table VI and VII comparisons.
//!
//! [`evaluate_with_calibration`] schedules a routed, consolidated circuit
//! under the baseline and optimized cost models and turns both durations
//! into decoherence fidelities. Both models see exactly the same circuit,
//! so the comparison isolates the decomposition rules (as in the paper).
//! Routing, best-seed selection and consolidation run in the batch engine
//! (`paradrive-engine`), which scores every job through this function.

use crate::rules::{BaselineSqrtIswap, ParallelDriveRules};
use paradrive_transpiler::calibration::Calibration;
use paradrive_transpiler::consolidate::Item;
use paradrive_transpiler::fidelity::{
    relative_improvement_pct, relative_reduction_pct, FidelityModel,
};
use paradrive_transpiler::schedule::{schedule, schedule_with_calibration, ScheduleOptions};
use paradrive_transpiler::CostModel;

/// The transpilation outcome for one benchmark (one Table VII row).
#[derive(Debug, Clone)]
pub struct BenchmarkResult {
    /// Benchmark name.
    pub name: String,
    /// Inserted SWAP count (routing diagnostic).
    pub swaps: usize,
    /// Number of consolidated 2Q blocks.
    pub blocks: usize,
    /// Baseline circuit duration in normalized pulses.
    pub baseline_duration: f64,
    /// Optimized (parallel-drive) duration.
    pub optimized_duration: f64,
    /// Relative duration reduction, percent.
    pub duration_reduction_pct: f64,
    /// Relative per-qubit fidelity improvement, percent.
    pub fq_improvement_pct: f64,
    /// Relative total-circuit fidelity improvement, percent.
    pub ft_improvement_pct: f64,
    /// Absolute total fidelity `F_T` under the baseline rules — per-wire
    /// lifetimes and per-edge gate errors when a calibration is attached.
    pub baseline_total_fidelity: f64,
    /// Absolute total fidelity `F_T` under the optimized rules.
    pub optimized_total_fidelity: f64,
}

/// Scores an already routed-and-consolidated circuit under a baseline and
/// an optimized cost model, optionally on a calibrated device.
///
/// Without a calibration, scheduling charges the models' homogeneous
/// durations and the `F_T` columns use `fidelity`. With one, scheduling
/// charges per-edge 2Q durations and per-qubit 1Q factors, and the `F_T`
/// columns use per-wire lifetimes times the per-edge gate-error survival
/// product (the calibration's own baseline model supersedes `fidelity`
/// there). A [uniform](Calibration::uniform) calibration whose baseline
/// equals `fidelity` is bit-identical to `None` in every output field.
#[allow(clippy::too_many_arguments)]
pub fn evaluate_with_calibration(
    name: &str,
    items: &[Item],
    swaps: usize,
    baseline: &dyn CostModel,
    optimized: &dyn CostModel,
    device_qubits: usize,
    circuit_qubits: usize,
    fidelity: FidelityModel,
    calibration: Option<&Calibration>,
) -> BenchmarkResult {
    let blocks = items
        .iter()
        .filter(|i| matches!(i, Item::Block { .. }))
        .count();
    let run = |model: &dyn CostModel| match calibration {
        Some(cal) => {
            schedule_with_calibration(items, model, device_qubits, ScheduleOptions::default(), cal)
        }
        None => schedule(items, model, device_qubits),
    };
    let base = run(baseline);
    let opt = run(optimized);

    let fq_base = fidelity.qubit_fidelity(base.duration);
    let fq_opt = fidelity.qubit_fidelity(opt.duration);
    let (ft_base, ft_opt) = match calibration {
        Some(cal) => {
            // Both models route/consolidate identically, so they share one
            // gate-error survival product.
            let survival = cal.gate_error_product(items);
            let ft = |d: f64| {
                cal.total_fidelity(d, circuit_qubits)
                    .expect("job admission validates the circuit fits its calibrated device")
            };
            (ft(base.duration) * survival, ft(opt.duration) * survival)
        }
        None => (
            fidelity.total_fidelity(base.duration, circuit_qubits),
            fidelity.total_fidelity(opt.duration, circuit_qubits),
        ),
    };

    BenchmarkResult {
        name: name.to_string(),
        swaps,
        blocks,
        baseline_duration: base.duration,
        optimized_duration: opt.duration,
        duration_reduction_pct: relative_reduction_pct(base.duration, opt.duration),
        fq_improvement_pct: relative_improvement_pct(fq_base, fq_opt),
        ft_improvement_pct: relative_improvement_pct(ft_base, ft_opt),
        baseline_total_fidelity: ft_base,
        optimized_total_fidelity: ft_opt,
    }
}

/// One Table VI row: gate infidelity baseline vs optimized.
#[derive(Debug, Clone)]
pub struct InfidelityRow {
    /// Target name.
    pub target: String,
    /// Baseline infidelity `1 − F`.
    pub baseline: f64,
    /// Optimized infidelity.
    pub optimized: f64,
    /// Relative improvement, percent.
    pub improved_pct: f64,
}

/// Computes Table VI: two-qubit gate infidelities under the decoherence
/// model (both qubit wires decay for the gate's duration).
pub fn gate_infidelities(d_1q: f64, fidelity: FidelityModel) -> Vec<InfidelityRow> {
    use crate::rules::total_duration;
    use paradrive_weyl::WeylPoint;
    let baseline = BaselineSqrtIswap::new(d_1q);
    let optimized = ParallelDriveRules::new(d_1q);
    // E[Haar] and W(λ) rows use the paper's expected-K values on the
    // baseline and the Table V references on the optimized side; CNOT and
    // SWAP are exact model outputs.
    let two_q_inf = |d: f64| 1.0 - fidelity.total_fidelity(d, 2);
    let mut rows = Vec::new();
    for (name, point) in [("CNOT", WeylPoint::CNOT), ("SWAP", WeylPoint::SWAP)] {
        let b = total_duration(baseline.cost(point), d_1q);
        let o = total_duration(optimized.cost(point), d_1q);
        rows.push(InfidelityRow {
            target: name.to_string(),
            baseline: two_q_inf(b),
            optimized: two_q_inf(o),
            improved_pct: relative_reduction_pct(two_q_inf(b), two_q_inf(o)),
        });
    }
    // E[Haar]: baseline E[D] = 2.21·0.5 + 3.21·D[1Q] (Table III: 1.91 at
    // 0.25). Optimized: the joint parallel-drive templates keep the same 2Q
    // time but absorb interior layers — the Table V fit 1.085 + 2.5·D[1Q]
    // reproduces 1.71 at D[1Q] = 0.25.
    let haar_b = two_q_inf(0.5 * 2.21 + 3.21 * d_1q);
    let haar_o = two_q_inf(1.085 + 2.5 * d_1q);
    rows.push(InfidelityRow {
        target: "E[Haar]".to_string(),
        baseline: haar_b,
        optimized: haar_o,
        improved_pct: relative_reduction_pct(haar_b, haar_o),
    });
    let lambda = paradrive_coverage::PAPER_LAMBDA;
    let w_b = lambda * two_q_inf(total_duration(baseline.cost(WeylPoint::CNOT), d_1q))
        + (1.0 - lambda) * two_q_inf(total_duration(baseline.cost(WeylPoint::SWAP), d_1q));
    let w_o = lambda * two_q_inf(total_duration(optimized.cost(WeylPoint::CNOT), d_1q))
        + (1.0 - lambda) * two_q_inf(total_duration(optimized.cost(WeylPoint::SWAP), d_1q));
    rows.push(InfidelityRow {
        target: "W(0.47)".to_string(),
        baseline: w_b,
        optimized: w_o,
        improved_pct: relative_reduction_pct(w_b, w_o),
    });
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradrive_circuit::{benchmarks, Circuit};
    use paradrive_transpiler::consolidate::consolidate;
    use paradrive_transpiler::routing::route_best_of;
    use paradrive_transpiler::topology::CouplingMap;

    /// Routes `circuit` best-of-3 onto the 4×4 lattice, consolidates it
    /// and scores it at D[1Q] = 0.25, optionally on a calibrated device.
    fn route_and_score(
        name: &str,
        circuit: &Circuit,
        cal: Option<&Calibration>,
    ) -> BenchmarkResult {
        let routed = route_best_of(circuit, &CouplingMap::grid(4, 4), 3).unwrap();
        let items = consolidate(&routed.circuit).unwrap();
        evaluate_with_calibration(
            name,
            &items,
            routed.swaps_inserted,
            &BaselineSqrtIswap::new(0.25),
            &ParallelDriveRules::new(0.25),
            16,
            16,
            FidelityModel::paper(),
            cal,
        )
    }

    #[test]
    fn ghz_improves_under_parallel_drive() {
        let r = route_and_score("GHZ", &benchmarks::ghz(16), None);
        assert!(r.optimized_duration < r.baseline_duration);
        assert!(r.duration_reduction_pct > 5.0, "{r:?}");
        assert!(r.ft_improvement_pct > 0.0);
    }

    #[test]
    fn qft_improves_substantially() {
        // QFT is full of small controlled phases — fractional parallel-drive
        // pulses shine here.
        let r = route_and_score("QFT", &benchmarks::qft(16), None);
        assert!(
            r.duration_reduction_pct > 10.0,
            "reduction {}",
            r.duration_reduction_pct
        );
    }

    #[test]
    fn calibrated_uniform_evaluation_is_bit_identical() {
        let c = benchmarks::ghz(16);
        let cal = Calibration::uniform(&CouplingMap::grid(4, 4), FidelityModel::paper());
        let legacy = route_and_score("GHZ", &c, None);
        let calibrated = route_and_score("GHZ", &c, Some(&cal));
        assert_eq!(
            legacy.baseline_duration.to_bits(),
            calibrated.baseline_duration.to_bits()
        );
        assert_eq!(
            legacy.optimized_duration.to_bits(),
            calibrated.optimized_duration.to_bits()
        );
        assert_eq!(
            legacy.ft_improvement_pct.to_bits(),
            calibrated.ft_improvement_pct.to_bits()
        );
        assert_eq!(
            legacy.optimized_total_fidelity.to_bits(),
            calibrated.optimized_total_fidelity.to_bits()
        );
    }

    #[test]
    fn hotspot_calibration_penalizes_total_fidelity() {
        let c = benchmarks::qft(16);
        let clean = route_and_score("QFT", &c, None);
        // Every edge dead would be extreme; 6 seeded hotspots on a QFT that
        // blankets the lattice will almost surely be crossed.
        let cal =
            Calibration::hotspot(&CouplingMap::grid(4, 4), FidelityModel::paper(), 6, 3).unwrap();
        let hot = route_and_score("QFT", &c, Some(&cal));
        assert!(
            hot.optimized_total_fidelity < clean.optimized_total_fidelity,
            "hotspot {} should cost fidelity vs clean {}",
            hot.optimized_total_fidelity,
            clean.optimized_total_fidelity
        );
        // Durations grow too: dead edges are slower, not just noisier.
        assert!(hot.optimized_duration > clean.optimized_duration);
    }

    #[test]
    fn table6_values_match_paper() {
        let rows = gate_infidelities(0.25, FidelityModel::paper());
        let get = |n: &str| rows.iter().find(|r| r.target == n).unwrap();
        let cnot = get("CNOT");
        assert!((cnot.baseline - 0.0035).abs() < 2e-4, "{}", cnot.baseline);
        assert!((cnot.optimized - 0.0030).abs() < 2e-4);
        assert!((cnot.improved_pct - 14.3).abs() < 2.0);
        let swap = get("SWAP");
        assert!((swap.baseline - 0.0050).abs() < 2e-4);
        assert!((swap.optimized - 0.0045).abs() < 2e-4);
        let haar = get("E[Haar]");
        assert!((haar.baseline - 0.0038).abs() < 2e-4);
        assert!((haar.optimized - 0.0034).abs() < 2e-4);
    }
}
