//! Dense `f32` tensor algebra for the CAE-Ensemble reproduction.
//!
//! This crate is the numeric substrate underneath the autograd engine and the
//! neural models. It provides a row-major, contiguous [`Tensor`] plus the
//! kernels the paper's models need:
//!
//! * elementwise arithmetic and activations,
//! * 2-D and batched 3-D matrix multiplication (register-blocked kernels),
//! * 1-D convolution with *same* and *causal* padding ([`Padding`]):
//!   one implicit-im2col engine over batch-folded inputs for training
//!   and scoring alike,
//! * reductions and axis utilities,
//! * seeded random initialization,
//! * optional thread-level parallelism over batches via a persistent
//!   worker pool ([`par`]),
//! * a thread-local scratch-buffer pool backing tensor storage
//!   ([`scratch`]).
//!
//! # Kernel layering
//!
//! Compute is organized in three layers:
//!
//! 1. **Dispatch** ([`simd`]): detects AVX2+FMA once at runtime (cached
//!    in an atomic) and exposes the `CAE_TENSOR_FORCE_SCALAR` /
//!    [`simd::set_force_scalar`] overrides. It also hosts the vectorized
//!    elementwise kernels (activations and their gradients, reductions,
//!    softmax passes) next to their portable scalar twins.
//! 2. **Packed GEMM core** (`gemm`, x86_64 only): every dense
//!    contraction — `matmul`/`matmul_tn`/`matmul_nt`, the three `bmm`
//!    variants, the convolution engine (forward and input gradient) and
//!    the kernel gradient — is expressed as `C += A·B` over packed
//!    operand panels and executed by one 6×16 AVX2+FMA register-tile
//!    microkernel. Panels live in pooled scratch; row blocks or column
//!    panels fan out over the worker pool.
//! 3. **Portable kernels** (`matmul`, `conv`): the unrolled scalar
//!    loops, used when AVX2 is unavailable or the scalar path is forced,
//!    and for contractions too small to amortize packing.
//!
//! Within a dispatch path results are bit-exact across thread counts;
//! across paths they agree to ≤1e-4 relative tolerance (see
//! `tests/determinism.rs` and `tests/properties.rs`).
//!
//! Shape mismatches are programming errors and panic with a descriptive
//! message, mirroring the convention of mainstream array libraries.
//!
//! # Example
//!
//! ```
//! use cae_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b);
//! assert_eq!(c.data(), a.data());
//! ```

// Every unsafe operation inside an `unsafe fn` must sit in its own
// `unsafe` block with a SAFETY comment — keeps the per-operation
// invariants of the SIMD kernels and the worker pool auditable (and
// machine-checked by clippy's `undocumented_unsafe_blocks`).
#![deny(unsafe_op_in_unsafe_fn)]

mod activate;
mod conv;
#[cfg(target_arch = "x86_64")]
mod gemm;
pub mod infer;
mod init;
mod matmul;
pub mod obs;
pub mod par;
mod reduce;
pub mod scratch;
mod shape;
pub mod simd;
mod tensor;

pub use conv::Padding;
pub use shape::Shape;
pub use tensor::Tensor;

/// Absolute tolerance used by the test-suites of the numeric crates.
pub const TEST_EPS: f32 = 1e-4;

/// Asserts two slices are elementwise close within `tol`.
///
/// Intended for tests across the workspace; panics with the first
/// offending index on failure.
pub fn assert_close(a: &[f32], b: &[f32], tol: f32) {
    assert_eq!(
        a.len(),
        b.len(),
        "length mismatch: {} vs {}",
        a.len(),
        b.len()
    );
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert!(
            (x - y).abs() <= tol,
            "values differ at index {i}: {x} vs {y} (tol {tol})"
        );
    }
}
