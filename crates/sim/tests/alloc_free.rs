//! Zero-allocation regression tests for the per-gate and permutation hot
//! paths: after a register's buffers are warm, applying gates, permuting,
//! and resetting must not touch the heap.
//!
//! The whole file is one test function: the allocation counter is a
//! process global, and the default test harness runs `#[test]`s on
//! parallel threads whose allocations would bleed into each other's
//! counts.

// The workspace denies unsafe code; this counting allocator is the one
// sanctioned exception (`GlobalAlloc` is an unsafe trait). It only
// increments an atomic and defers to the system allocator.
#![allow(unsafe_code)]

use paradrive_circuit::{OneQ, TwoQ};
use paradrive_linalg::C64;
use paradrive_sim::{KernelPath, State};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOC_CALLS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::SeqCst);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations performed while running `f`.
fn allocations(f: impl FnOnce()) -> usize {
    let before = ALLOC_CALLS.load(Ordering::SeqCst);
    f();
    ALLOC_CALLS.load(Ordering::SeqCst) - before
}

#[test]
fn warm_gate_permute_and_reset_paths_never_allocate() {
    let n = 10;
    // Everything allocation-bearing happens up front: the gate matrices,
    // the registers, the permutation, the prep factors — and one call of
    // each warm-up path (kernel detection's env lookup, the permute
    // scratch buffer).
    let h = OneQ::H.unitary();
    let rz = OneQ::Rz(0.37).unitary();
    let cx = TwoQ::Cx.unitary();
    let iswap = TwoQ::ISwap.unitary();
    // A real fused block, as consolidation emits for CX·(Ry⊗Ry).
    let real_block = cx.mul(&OneQ::Ry(0.4).unitary().kron(&OneQ::Ry(-1.3).unitary()));
    let mut st = State::zero(n);
    let mut logical = State::zero(n - 2);
    let mut wide = State::zero(n);
    let perm: Vec<usize> = (0..n).map(|q| (q + 3) % n).collect();
    let factors = vec![C64::new(0.6, 0.0); 2 * (n - 2)];
    for path in [KernelPath::Scalar, KernelPath::Lanes] {
        st.apply_1q_with(&h, 0, path).unwrap();
    }
    let _ = State::run(&paradrive_circuit::Circuit::new(1)); // warms KernelPath::detected()
    st.permute(&perm).unwrap();

    for path in [KernelPath::Scalar, KernelPath::Lanes] {
        let count = allocations(|| {
            for q in 0..n {
                st.apply_1q_with(&h, q, path).unwrap();
                st.apply_1q_with(&rz, q, path).unwrap();
            }
            for a in 0..n - 1 {
                st.apply_2q_with(&cx, a, a + 1, path).unwrap();
                st.apply_2q_with(&iswap, a + 1, a, path).unwrap();
                st.apply_2q_with(&real_block, a, a + 1, path).unwrap();
            }
        });
        assert_eq!(count, 0, "gate applies allocated on the {path:?} path");
    }

    let count = allocations(|| {
        for _ in 0..8 {
            st.permute(&perm).unwrap();
        }
    });
    assert_eq!(count, 0, "warm permute allocated");

    let count = allocations(|| {
        st.reset_zero();
        st.reset_basis(5);
        logical.reset_product(&factors).unwrap();
        wide.reset_embed(&logical).unwrap();
    });
    assert_eq!(count, 0, "reset paths allocated");

    // One warm Monte-Carlo verification sample, as the sampled oracle
    // runs it: prepare both registers, replay, then take the overlap
    // through the output permutation without moving the physical state.
    let anc_bits = 2;
    let count = allocations(|| {
        logical.reset_product(&factors).unwrap();
        wide.reset_embed(&logical).unwrap();
        for q in 0..n - 2 {
            logical.apply_1q(&h, q).unwrap();
            wide.apply_1q(&h, q).unwrap();
        }
        for a in 0..n - 1 {
            wide.apply_2q(&cx, a, a + 1).unwrap();
            wide.apply_2q(&real_block, a + 1, a).unwrap();
        }
        let read = wide.permuted_read(&perm).unwrap();
        let mut ip = C64::ZERO;
        for (y, &w) in logical.amplitudes().iter().enumerate() {
            ip += w.conj() * read.get(y << anc_bits);
        }
        std::hint::black_box(ip);
    });
    assert_eq!(count, 0, "a warm verification sample allocated");

    // The linalg mul_vec_into satellite: the replay-loop form of the
    // matrix-vector product works entirely in caller buffers.
    let v = vec![C64::ONE, C64::ZERO];
    let mut out = vec![C64::ZERO; 2];
    let count = allocations(|| {
        for _ in 0..16 {
            h.mul_vec_into(&v, &mut out);
        }
    });
    assert_eq!(count, 0, "mul_vec_into allocated");

    // Sanity: the counter itself works — a cold permute on a fresh
    // register does allocate its scratch buffer.
    let mut cold = State::zero(n);
    assert!(
        allocations(|| cold.permute(&perm).unwrap()) > 0,
        "counter failed to observe the cold-path allocation"
    );
}
