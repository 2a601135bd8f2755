//! Fig. 3b: the target-gate "shot chart" — frequency of consolidated 2Q
//! classes over the benchmark suite routed onto the 4×4 lattice, and the
//! λ fit of Eq. 6.

use paradrive_circuit::benchmarks::standard_suite;
use paradrive_repro::header;
use paradrive_transpiler::consolidate::{class_histogram, consolidate, lambda_fit};
use paradrive_transpiler::routing::route_best_of;
use paradrive_transpiler::topology::CouplingMap;
use std::collections::BTreeMap;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    header("Fig. 3b — Consolidated 2Q class frequencies, 16q suite on 4x4");
    let map = CouplingMap::grid(4, 4);
    let mut totals: BTreeMap<String, usize> = BTreeMap::new();
    let mut all_items = Vec::new();
    for b in standard_suite(7) {
        let routed = route_best_of(&b.circuit, &map, 4)
            .map_err(|e| format!("routing {} failed: {e}", b.name))?;
        let items = consolidate(&routed.circuit)
            .map_err(|e| format!("consolidating {} failed: {e}", b.name))?;
        let hist = class_histogram(&items);
        println!("\n[{}]  swaps inserted: {}", b.name, routed.swaps_inserted);
        for (label, count) in &hist {
            println!("  {label:<14} {count}");
            *totals.entry(label.clone()).or_insert(0) += count;
        }
        all_items.extend(items);
    }
    println!("\n[suite totals]");
    let mut rows: Vec<_> = totals.into_iter().collect();
    rows.sort_by_key(|(_, count)| std::cmp::Reverse(*count));
    for (label, count) in &rows {
        println!("  {label:<14} {count}");
    }
    // Eq. 6 over the pooled suite, as the paper pools its workloads.
    let lambda = lambda_fit(&all_items).ok_or("lambda fit failed: no CNOT/SWAP blocks found")?;
    println!("\nλ = CNOT/(CNOT+SWAP) = {lambda:.3}   (paper: 731/(731+828) ≈ 0.47)");
    Ok(())
}
