//! The physical side of an equivalence check, and its compaction onto the
//! circuit's qubit support.

use crate::VerifyError;
use paradrive_circuit::{Circuit, Op};
use paradrive_linalg::CMat;
use paradrive_sim::{MpsState, SimError, State};
use paradrive_transpiler::consolidate::Item;

/// The transpiled program being checked against the original circuit.
#[derive(Debug, Clone, Copy)]
pub enum Physical<'a> {
    /// A routed physical circuit, applied gate by gate.
    Circuit(&'a Circuit),
    /// A consolidated routed circuit: every two-qubit block is applied as
    /// one fused 4×4 unitary and every merged 1Q run as one 2×2 — fewer,
    /// denser applies than the raw gate stream, and a check of the
    /// consolidation pass itself.
    Consolidated {
        /// The consolidated item stream (see
        /// [`paradrive_transpiler::consolidate::consolidate`]).
        items: &'a [Item],
        /// Width of the physical device the items act on.
        n_qubits: usize,
    },
}

impl Physical<'_> {
    /// Width of the physical register.
    pub fn n_qubits(&self) -> usize {
        match self {
            Physical::Circuit(c) => c.n_qubits(),
            Physical::Consolidated { n_qubits, .. } => *n_qubits,
        }
    }

    /// Marks every qubit some operation touches.
    fn mark_touched(&self, touched: &mut [bool]) {
        match self {
            Physical::Circuit(c) => {
                for op in c.ops() {
                    for q in op.qubits() {
                        touched[q] = true;
                    }
                }
            }
            Physical::Consolidated { items, .. } => {
                for item in *items {
                    for q in item.qubits() {
                        touched[q] = true;
                    }
                }
            }
        }
    }

    /// The program as a flat list of matrix applications, remapped through
    /// `pos` (physical index → compact index).
    fn apps(&self, pos: &[usize]) -> Vec<GateApp> {
        match self {
            Physical::Circuit(c) => c
                .ops()
                .iter()
                .map(|op| match op {
                    Op::OneQ { gate, q } => GateApp::One {
                        g: gate.unitary(),
                        q: pos[*q],
                    },
                    Op::TwoQ { gate, a, b } => GateApp::Two {
                        g: gate.unitary(),
                        a: pos[*a],
                        b: pos[*b],
                    },
                })
                .collect(),
            Physical::Consolidated { items, .. } => items
                .iter()
                .map(|item| match item {
                    Item::OneQRun { q, unitary, .. } => GateApp::One {
                        g: unitary.clone(),
                        q: pos[*q],
                    },
                    Item::Block { a, b, unitary, .. } => GateApp::Two {
                        g: unitary.clone(),
                        a: pos[*a],
                        b: pos[*b],
                    },
                })
                .collect(),
        }
    }
}

/// One matrix application over compact indices.
#[derive(Debug)]
pub(crate) enum GateApp {
    /// A 2×2 on one wire.
    One { g: CMat, q: usize },
    /// A 4×4 on a wire pair (`a` is the high bit).
    Two { g: CMat, a: usize, b: usize },
}

/// The physical program compacted onto its qubit support: the logical
/// wires plus every qubit an operation touches, closed under the output
/// permutation. Compact wires `0..n_logical` are exactly the logical
/// wires (the router's initial layout is trivial), so the original
/// circuit needs no remapping. The default is the empty program on no
/// wires.
#[derive(Debug, Default)]
pub(crate) struct CompactProgram {
    /// Support width (`n_logical ≤ width ≤ n_physical`).
    pub width: usize,
    /// Logical circuit width.
    pub n_logical: usize,
    /// The remapped matrix applications.
    pub apps: Vec<GateApp>,
    /// The output permutation over compact wires: compact logical wire `l`
    /// reads its final state from compact physical wire `perm[l]` (the
    /// argument [`State::permuted`] expects).
    pub perm: Vec<usize>,
}

impl CompactProgram {
    /// Applies the program to a compact-width register.
    pub fn apply_to(&self, state: &mut State) -> Result<(), SimError> {
        for app in &self.apps {
            match app {
                GateApp::One { g, q } => state.apply_1q(g, *q)?,
                GateApp::Two { g, a, b } => state.apply_2q(g, *a, *b)?,
            }
        }
        Ok(())
    }

    /// Applies the program to a compact-width MPS register (the wide
    /// oracle's path; truncation failures propagate for the escalation
    /// ladder to handle).
    pub fn apply_to_mps(&self, state: &mut MpsState) -> Result<(), SimError> {
        for app in &self.apps {
            match app {
                GateApp::One { g, q } => state.apply_1q(g, *q)?,
                GateApp::Two { g, a, b } => state.apply_2q(g, *a, *b)?,
            }
        }
        Ok(())
    }
}

/// Builds the compact program for `physical` under `layout`.
pub(crate) fn compact(
    original: &Circuit,
    physical: &Physical<'_>,
    layout: &[usize],
) -> Result<CompactProgram, VerifyError> {
    let n_phys = physical.n_qubits();
    let n_log = original.n_qubits();
    if n_log > n_phys {
        return Err(VerifyError::WidthMismatch {
            logical: n_log,
            physical: n_phys,
        });
    }
    if layout.len() != n_phys {
        return Err(VerifyError::BadLayout);
    }
    let mut seen = vec![false; n_phys];
    for &p in layout {
        if p >= n_phys || seen[p] {
            return Err(VerifyError::BadLayout);
        }
        seen[p] = true;
    }

    // The support: logical wires, everything an op touches, closed under
    // the permutation (a SWAP that moved a logical state marks both ends,
    // so closure normally adds nothing — it guards odd hand-built layouts).
    let mut in_support = vec![false; n_phys];
    in_support.iter_mut().take(n_log).for_each(|s| *s = true);
    physical.mark_touched(&mut in_support);
    loop {
        let mut changed = false;
        for l in 0..n_phys {
            if in_support[l] != in_support[layout[l]] {
                in_support[l] = true;
                in_support[layout[l]] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let support: Vec<usize> = (0..n_phys).filter(|&q| in_support[q]).collect();
    let mut pos = vec![usize::MAX; n_phys];
    for (c, &p) in support.iter().enumerate() {
        pos[p] = c;
    }
    let apps = physical.apps(&pos);
    let perm = support.iter().map(|&p| pos[layout[p]]).collect();
    Ok(CompactProgram {
        width: support.len(),
        n_logical: n_log,
        apps,
        perm,
    })
}
