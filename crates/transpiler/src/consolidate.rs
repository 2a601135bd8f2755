//! Consolidation: merge gate runs into two-qubit unitary blocks and
//! extract each block's Weyl-chamber target.
//!
//! Consecutive gates on the same qubit pair — including any 1Q gates on
//! those qubits in between — collapse into a single 4×4 block whose
//! canonical coordinates drive the decomposition cost lookup. This is how a
//! `CNOT` immediately followed by a `SWAP` on the same pair becomes a
//! single iSWAP-class block (the paper's Fig. 3b footnote), and why QFT's
//! small controlled phases appear as CNOT-family points near the identity.
//!
//! A block's Weyl point is a pure function of its unitary's bits, and
//! routed circuits repeat blocks exactly (every bare SWAP, every CX on a
//! fresh pair), so one [`consolidate`] call extracts each distinct block
//! once and reuses the point for its bit-identical repeats.

use crate::TranspileError;
use paradrive_circuit::{Circuit, Op};
use paradrive_linalg::{paulis, CMat};
use paradrive_weyl::magic::coordinates;
use paradrive_weyl::WeylPoint;
use std::collections::hash_map::{Entry, HashMap};

/// One element of a consolidated circuit.
#[derive(Debug, Clone)]
pub enum Item {
    /// A standalone 1Q gate run on one qubit (already merged; `virtual_only`
    /// marks runs realizable purely as frame updates).
    OneQRun {
        /// The physical qubit.
        q: usize,
        /// Merged 2×2 unitary of the run.
        unitary: CMat,
        /// True when every gate in the run was a virtual-Z.
        virtual_only: bool,
    },
    /// A consolidated two-qubit block.
    Block {
        /// First physical qubit.
        a: usize,
        /// Second physical qubit.
        b: usize,
        /// Merged 4×4 unitary.
        unitary: CMat,
        /// Canonical Weyl point of the block.
        point: WeylPoint,
        /// Number of primitive 2Q gates merged into this block.
        merged_gates: usize,
    },
}

impl Item {
    /// The qubits this item touches.
    pub fn qubits(&self) -> Vec<usize> {
        match self {
            Item::OneQRun { q, .. } => vec![*q],
            Item::Block { a, b, .. } => vec![*a, *b],
        }
    }
}

/// Consolidates a routed circuit into blocks and 1Q runs.
///
/// # Errors
///
/// Returns [`TranspileError::Weyl`] if a block's coordinates cannot be
/// extracted (cannot happen for unitary IR gates).
pub fn consolidate(circuit: &Circuit) -> Result<Vec<Item>, TranspileError> {
    let n = circuit.n_qubits();
    // Open 2Q blocks keyed by qubit pair, plus per-qubit membership.
    struct Open {
        a: usize,
        b: usize,
        u: CMat,
        merged: usize,
    }
    let mut open: Vec<Open> = Vec::new();
    let mut qubit_block: Vec<Option<usize>> = vec![None; n];
    // Pending standalone 1Q runs.
    let mut pending_1q: Vec<Option<(CMat, bool)>> = vec![None; n];
    let mut out: Vec<Item> = Vec::new();
    // Points extracted so far, keyed by the exact bits of the block.
    let mut extracted: HashMap<[u64; 32], WeylPoint> = HashMap::new();

    // Emission preserves program order well enough for scheduling because
    // items are re-ordered per-qubit there anyway.
    let mut close_block = |open: &mut Vec<Open>,
                           qubit_block: &mut Vec<Option<usize>>,
                           out: &mut Vec<Item>,
                           idx: usize|
     -> Result<(), TranspileError> {
        let blk = open.swap_remove(idx);
        // Fix up the index of the block that swapped into `idx`.
        if idx < open.len() {
            let moved = &open[idx];
            qubit_block[moved.a] = Some(idx);
            qubit_block[moved.b] = Some(idx);
        }
        qubit_block[blk.a] = None;
        qubit_block[blk.b] = None;
        let extract = || coordinates(&blk.u).map_err(|e| TranspileError::Weyl(e.to_string()));
        let point = match bits(&blk.u) {
            Some(key) => match extracted.entry(key) {
                Entry::Occupied(hit) => *hit.get(),
                Entry::Vacant(miss) => *miss.insert(extract()?),
            },
            None => extract()?,
        };
        out.push(Item::Block {
            a: blk.a,
            b: blk.b,
            unitary: blk.u,
            point,
            merged_gates: blk.merged,
        });
        Ok(())
    };

    for op in circuit.ops() {
        match op {
            Op::OneQ { gate, q } => {
                if let Some(bi) = qubit_block[*q] {
                    // Fold into the open block.
                    let blk = &mut open[bi];
                    let g = gate.unitary();
                    let full = if *q == blk.a {
                        paulis::tensor(&g, &CMat::identity(2))
                    } else {
                        paulis::tensor(&CMat::identity(2), &g)
                    };
                    blk.u = full.mul(&blk.u);
                } else {
                    let g = gate.unitary();
                    let entry = pending_1q[*q].take();
                    pending_1q[*q] = Some(match entry {
                        Some((u, v)) => (g.mul(&u), v && gate.is_virtual_z()),
                        None => (g, gate.is_virtual_z()),
                    });
                }
            }
            Op::TwoQ { gate, a, b } => {
                let same_pair = match (qubit_block[*a], qubit_block[*b]) {
                    (Some(x), Some(y)) if x == y => Some(x),
                    _ => None,
                };
                if let Some(bi) = same_pair {
                    let g4 = if open[bi].a == *a {
                        gate.unitary()
                    } else {
                        // Operands reversed relative to the block: conjugate
                        // by SWAP.
                        let s = paradrive_weyl::gates::swap();
                        s.mul(&gate.unitary()).mul(&s)
                    };
                    let blk = &mut open[bi];
                    blk.u = g4.mul(&blk.u);
                    blk.merged += 1;
                } else {
                    // Close any blocks touching a or b.
                    for q in [*a, *b] {
                        if let Some(bi) = qubit_block[q] {
                            close_block(&mut open, &mut qubit_block, &mut out, bi)?;
                        }
                    }
                    // Flush pending 1Q runs on a and b by absorbing them
                    // into the new block (exterior 1Q gates merge with the
                    // decomposition template's own exterior layers).
                    let mut u = gate.unitary();
                    for (idx, q) in [(0usize, *a), (1usize, *b)] {
                        if let Some((g, _virtual)) = pending_1q[q].take() {
                            let lead = if idx == 0 {
                                paulis::tensor(&g, &CMat::identity(2))
                            } else {
                                paulis::tensor(&CMat::identity(2), &g)
                            };
                            u = u.mul(&lead);
                        }
                    }
                    let bi = open.len();
                    open.push(Open {
                        a: *a,
                        b: *b,
                        u,
                        merged: 1,
                    });
                    qubit_block[*a] = Some(bi);
                    qubit_block[*b] = Some(bi);
                }
            }
        }
    }
    // Close remaining blocks.
    while !open.is_empty() {
        close_block(&mut open, &mut qubit_block, &mut out, 0)?;
    }
    // Flush remaining 1Q runs.
    for (q, entry) in pending_1q.iter_mut().enumerate() {
        if let Some((u, virtual_only)) = entry.take() {
            out.push(Item::OneQRun {
                q,
                unitary: u,
                virtual_only,
            });
        }
    }
    Ok(out)
}

/// The bit patterns of a 4×4 block's entries, real and imaginary part
/// of each in row-major order (`None` for any other shape, which
/// `coordinates` rejects). Blocks that differ only in the sign of a zero
/// get different keys.
fn bits(u: &CMat) -> Option<[u64; 32]> {
    if (u.rows(), u.cols()) != (4, 4) {
        return None;
    }
    let mut key = [0; 32];
    for (words, z) in key.chunks_exact_mut(2).zip(u.as_slice()) {
        words[0] = z.re.to_bits();
        words[1] = z.im.to_bits();
    }
    Some(key)
}

/// Counts consolidated blocks by named Weyl class — the data behind the
/// paper's Fig. 3b shot chart and the λ fit of Eq. 6.
pub fn class_histogram(items: &[Item]) -> Vec<(String, usize)> {
    let mut counts: std::collections::BTreeMap<String, usize> = Default::default();
    for item in items {
        if let Item::Block { point, .. } = item {
            let label = classify_point(*point);
            *counts.entry(label).or_insert(0) += 1;
        }
    }
    let mut v: Vec<(String, usize)> = counts.into_iter().collect();
    v.sort_by_key(|(_, count)| std::cmp::Reverse(*count));
    v
}

/// The λ ratio of Eq. 6: CNOT-class blocks over CNOT + SWAP blocks.
pub fn lambda_fit(items: &[Item]) -> Option<f64> {
    let hist = class_histogram(items);
    let get = |name: &str| -> usize {
        hist.iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| *c)
            .unwrap_or(0)
    };
    let cnot = get("CNOT");
    let swap = get("SWAP");
    if cnot + swap == 0 {
        None
    } else {
        Some(cnot as f64 / (cnot + swap) as f64)
    }
}

fn classify_point(p: WeylPoint) -> String {
    const TOL: f64 = 1e-6;
    for (name, q) in [
        ("I", WeylPoint::IDENTITY),
        ("CNOT", WeylPoint::CNOT),
        ("iSWAP", WeylPoint::ISWAP),
        ("SWAP", WeylPoint::SWAP),
        ("sqrt_iSWAP", WeylPoint::SQRT_ISWAP),
        ("B", WeylPoint::B),
        ("sqrt_CNOT", WeylPoint::SQRT_CNOT),
    ] {
        if p.chamber_dist(q) < TOL {
            return name.to_string();
        }
    }
    if p.c3 < TOL && p.c2 < TOL {
        "CNOT-family".to_string()
    } else {
        "other".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradrive_circuit::{OneQ, TwoQ};

    /// Asserts an [`Item`] matches a pattern and runs a body with its
    /// bindings — one shared failure arm instead of a `panic!` per site.
    macro_rules! expect_item {
        ($item:expr, $pat:pat => $body:expr) => {
            match $item {
                $pat => $body,
                other => panic!("unexpected item: {other:?}"),
            }
        };
    }

    #[test]
    fn cnot_swap_merges_to_iswap() {
        let mut c = Circuit::new(2);
        c.push_2q(TwoQ::Cx, 0, 1);
        c.push_2q(TwoQ::Swap, 0, 1);
        let items = consolidate(&c).unwrap();
        assert_eq!(items.len(), 1);
        expect_item!(&items[0], Item::Block { point, merged_gates, .. } => {
            assert_eq!(*merged_gates, 2);
            assert!(
                point.chamber_dist(WeylPoint::ISWAP) < 1e-7,
                "CNOT·SWAP should be iSWAP class, got {point}"
            );
        });
    }

    #[test]
    fn interleaved_1q_folds_into_block() {
        let mut c = Circuit::new(2);
        c.push_2q(TwoQ::Cx, 0, 1);
        c.push_1q(OneQ::H, 0);
        c.push_2q(TwoQ::Cx, 0, 1);
        let items = consolidate(&c).unwrap();
        assert_eq!(items.len(), 1, "items: {items:?}");
    }

    #[test]
    fn different_pairs_break_blocks() {
        let mut c = Circuit::new(3);
        c.push_2q(TwoQ::Cx, 0, 1);
        c.push_2q(TwoQ::Cx, 1, 2);
        c.push_2q(TwoQ::Cx, 0, 1);
        let items = consolidate(&c).unwrap();
        let blocks = items
            .iter()
            .filter(|i| matches!(i, Item::Block { .. }))
            .count();
        assert_eq!(blocks, 3);
    }

    #[test]
    fn reversed_operands_merge() {
        // CX(0,1) then CX(1,0): same pair, orientation handled by SWAP
        // conjugation; together they form a non-CNOT class (DCNOT family).
        let mut c = Circuit::new(2);
        c.push_2q(TwoQ::Cx, 0, 1);
        c.push_2q(TwoQ::Cx, 1, 0);
        let items = consolidate(&c).unwrap();
        assert_eq!(items.len(), 1);
        expect_item!(&items[0], Item::Block { point, .. } => {
            // CX(0,1)·CX(1,0) ≅ DCNOT ≅ CAN(π/2, π/4, ... ) — at any
            // rate NOT the CNOT class and NOT identity.
            assert!(point.chamber_dist(WeylPoint::CNOT) > 0.1);
            assert!(point.chamber_dist(WeylPoint::IDENTITY) > 0.1);
        });
    }

    #[test]
    fn standalone_1q_runs_merge() {
        let mut c = Circuit::new(1);
        c.push_1q(OneQ::Rz(0.2), 0);
        c.push_1q(OneQ::S, 0);
        let items = consolidate(&c).unwrap();
        assert_eq!(items.len(), 1);
        expect_item!(&items[0], Item::OneQRun { virtual_only, .. } => assert!(virtual_only));
    }

    #[test]
    fn non_virtual_1q_flagged() {
        let mut c = Circuit::new(1);
        c.push_1q(OneQ::Rz(0.2), 0);
        c.push_1q(OneQ::H, 0);
        let items = consolidate(&c).unwrap();
        expect_item!(&items[0], Item::OneQRun { virtual_only, .. } => assert!(!virtual_only));
    }

    #[test]
    fn leading_1q_absorbed_into_block() {
        let mut c = Circuit::new(2);
        c.push_1q(OneQ::H, 0);
        c.push_2q(TwoQ::Cx, 0, 1);
        let items = consolidate(&c).unwrap();
        // The H is absorbed: one block, no standalone run, class unchanged.
        assert_eq!(items.len(), 1);
        expect_item!(&items[0], Item::Block { point, .. } => {
            assert!(point.chamber_dist(WeylPoint::CNOT) < 1e-7);
        });
    }

    /// Repeated blocks reuse an earlier block's point, and only a block
    /// with exactly the same bits does: `CZ` (last entry `-1 - 0i`) and a
    /// twin whose last entry is `-1 + 0i` compare `==` but extract
    /// different points.
    #[test]
    fn repeated_blocks_keep_their_own_points() {
        let cz = TwoQ::Cz.unitary();
        let mut signed = cz.clone();
        signed[(3, 3)].im = -signed[(3, 3)].im;
        assert_eq!(cz, signed);
        assert_ne!(cz[(3, 3)].im.to_bits(), signed[(3, 3)].im.to_bits());
        let mut c = Circuit::new(3);
        for _ in 0..3 {
            c.push_2q(TwoQ::Cx, 0, 1);
            c.push_2q(TwoQ::Cx, 1, 2);
        }
        for u in [&cz, &signed, &cz, &signed] {
            c.push_2q(TwoQ::Unitary(Box::new(u.clone())), 0, 1);
            c.push_2q(TwoQ::Cx, 1, 2);
        }
        let items = consolidate(&c).unwrap();
        let point_bits = |p: WeylPoint| [p.c1.to_bits(), p.c2.to_bits(), p.c3.to_bits()];
        let mut points = Vec::new();
        for item in &items {
            expect_item!(item, Item::Block { unitary, point, .. } => {
                assert_eq!(point_bits(*point), point_bits(coordinates(unitary).unwrap()));
                points.push(point_bits(*point));
            });
        }
        assert_eq!(points.len(), 14);
        let (plain, signed) = (points[6], points[8]);
        assert_ne!(
            plain, signed,
            "the signed-zero twin must extract its own point"
        );
        assert_eq!(points[10], plain);
        assert_eq!(points[12], signed);
    }

    #[test]
    fn lambda_fit_counts_cnot_vs_swap() {
        let mut c = Circuit::new(4);
        c.push_2q(TwoQ::Cx, 0, 1);
        c.push_2q(TwoQ::Cz, 2, 3);
        c.push_2q(TwoQ::Swap, 1, 2);
        let items = consolidate(&c).unwrap();
        let lambda = lambda_fit(&items).unwrap();
        assert!((lambda - 2.0 / 3.0).abs() < 1e-12);
    }
}
