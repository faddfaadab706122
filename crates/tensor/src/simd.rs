//! Runtime ISA dispatch and vectorized elementwise kernels.
//!
//! Every hot loop in this crate funnels through this module: the packed
//! GEMM core (`gemm.rs`) asks it which instruction set to use, and
//! the bandwidth-bound elementwise kernels (activations, their gradients,
//! reductions, softmax passes) call the dispatched helpers below.
//!
//! # Dispatch model
//!
//! The instruction set is detected **once at runtime** — on the first call
//! to [`active`] — via `is_x86_feature_detected!` and cached in an atomic,
//! so the per-kernel cost of dispatch is a single relaxed load. Two
//! overrides force the portable scalar path:
//!
//! * the `CAE_TENSOR_FORCE_SCALAR` environment variable (any value other
//!   than `0`, `false`, or empty), read once at first use;
//! * [`set_force_scalar`], a process-global runtime switch used by the
//!   test suites and `perf_report` to pit the two paths against each
//!   other inside one process.
//!
//! On non-x86_64 targets (or x86_64 without AVX2+FMA) the scalar path is
//! the only path and the overrides are no-ops.
//!
//! # Determinism contract
//!
//! Within one dispatch path results are deterministic and independent of
//! the worker-thread count (see `tests/determinism.rs`). Elementwise
//! results are also independent of an element's position in its slice:
//! the 8-lane kernels evaluate the `len % 8` tail through the same lane
//! code, so a value computes identically in any batch row or layout. *Across* paths
//! results differ in the last bits — the AVX2 kernels use 8-lane partial
//! accumulators and fused multiply-adds, and the transcendental kernels
//! use a polynomial `exp` — but agree to ≤1e-4 relative tolerance
//! (property-tested in `tests/properties.rs`).

use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::OnceLock;

/// Instruction set driving the tensor kernels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Isa {
    /// Packed AVX2 + FMA microkernels (x86_64, runtime-detected).
    Avx2Fma,
    /// Portable unrolled scalar kernels (always available).
    Scalar,
}

/// Runtime override set by [`set_force_scalar`].
static RUNTIME_FORCE_SCALAR: AtomicBool = AtomicBool::new(false);

/// Cached CPU detection: 0 = not yet probed, 1 = scalar only, 2 = AVX2+FMA.
static DETECTED: AtomicU8 = AtomicU8::new(0);

/// `CAE_TENSOR_FORCE_SCALAR` environment override, read once.
fn env_force_scalar() -> bool {
    static ENV: OnceLock<bool> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("CAE_TENSOR_FORCE_SCALAR")
            .is_ok_and(|v| !v.is_empty() && v != "0" && !v.eq_ignore_ascii_case("false"))
    })
}

fn detect() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

fn avx2_detected() -> bool {
    // Relaxed memoization of an idempotent probe: every thread that
    // races past the cache computes the same `detect()` answer, and no
    // other memory is published through `DETECTED` — the worst case is a
    // redundant CPUID. (Single-fn use; A1 audits cross-fn publishes.)
    match DETECTED.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => {
            let has = detect();
            DETECTED.store(if has { 2 } else { 1 }, Ordering::Relaxed);
            has
        }
    }
}

/// Forces (or releases) the scalar dispatch path at runtime.
///
/// Process-global, like [`crate::par::set_threads`]; tests that flip it
/// must serialize on their own gate. Forcing scalar on a machine without
/// AVX2 is a no-op (scalar is already the only path).
pub fn set_force_scalar(force: bool) {
    // Release/Acquire pairing with `active()`: a dispatch on another
    // thread that observes the flag flip must also observe whatever the
    // flipping test arranged before it (reference buffers, thresholds).
    RUNTIME_FORCE_SCALAR.store(force, Ordering::Release);
}

/// The instruction set the kernels will use right now.
pub fn active() -> Isa {
    if RUNTIME_FORCE_SCALAR.load(Ordering::Acquire) || env_force_scalar() || !avx2_detected() {
        Isa::Scalar
    } else {
        Isa::Avx2Fma
    }
}

/// Short stable name of the active path (`"avx2+fma"` / `"scalar"`),
/// recorded by `perf_report` in `BENCH_tensor.json`.
pub fn active_name() -> &'static str {
    match active() {
        Isa::Avx2Fma => "avx2+fma",
        Isa::Scalar => "scalar",
    }
}

/// True when the packed AVX2 kernels should run.
#[inline]
pub(crate) fn avx2_active() -> bool {
    active() == Isa::Avx2Fma
}

// ---------------------------------------------------------------------
// Dispatched elementwise kernels
// ---------------------------------------------------------------------
//
// Each helper has the same shape: a safe wrapper that dispatches on
// [`active`], an AVX2 implementation behind `#[target_feature]`, and a
// scalar implementation that is also the non-x86_64 fallback.

macro_rules! dispatch {
    ($($avx2_call:tt)*) => {
        #[cfg(target_arch = "x86_64")]
        if avx2_active() {
            // SAFETY: `avx2_active` implies AVX2+FMA were detected at runtime.
            unsafe { avx2::$($avx2_call)* };
            return;
        }
    };
}

macro_rules! dispatch_ret {
    ($($avx2_call:tt)*) => {
        #[cfg(target_arch = "x86_64")]
        if avx2_active() {
            // SAFETY: `avx2_active` implies AVX2+FMA were detected at runtime.
            return unsafe { avx2::$($avx2_call)* };
        }
    };
}

/// `dst[i] = max(src[i], 0)`.
pub(crate) fn relu(dst: &mut [f32], src: &[f32]) {
    assert_eq!(dst.len(), src.len(), "relu length mismatch");
    dispatch!(relu(dst.as_mut_ptr(), src.as_ptr(), src.len()));
    for (d, &x) in dst.iter_mut().zip(src) {
        *d = x.max(0.0);
    }
}

/// `x[i] = max(x[i], 0)` in place — elementwise identical to
/// [`Tensor::relu`](crate::Tensor::relu).
pub fn relu_in_place(x: &mut [f32]) {
    let (p, n) = (x.as_mut_ptr(), x.len());
    dispatch!(relu(p, p, n));
    for v in x.iter_mut() {
        *v = v.max(0.0);
    }
}

/// Numerically stable logistic sigmoid of a scalar.
#[inline]
pub(crate) fn sigmoid_scalar(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// `dst[i] = sigmoid(src[i])`.
pub(crate) fn sigmoid(dst: &mut [f32], src: &[f32]) {
    assert_eq!(dst.len(), src.len(), "sigmoid length mismatch");
    dispatch!(sigmoid(dst.as_mut_ptr(), src.as_ptr(), src.len()));
    for (d, &x) in dst.iter_mut().zip(src) {
        *d = sigmoid_scalar(x);
    }
}

/// `x[i] = sigmoid(x[i])` in place — elementwise identical to
/// [`Tensor::sigmoid`](crate::Tensor::sigmoid).
pub fn sigmoid_in_place(x: &mut [f32]) {
    let (p, n) = (x.as_mut_ptr(), x.len());
    dispatch!(sigmoid(p, p, n));
    for v in x.iter_mut() {
        *v = sigmoid_scalar(*v);
    }
}

/// `dst[i] = tanh(src[i])`.
pub(crate) fn tanh(dst: &mut [f32], src: &[f32]) {
    assert_eq!(dst.len(), src.len(), "tanh length mismatch");
    dispatch!(tanh(dst.as_mut_ptr(), src.as_ptr(), src.len()));
    for (d, &x) in dst.iter_mut().zip(src) {
        *d = x.tanh();
    }
}

/// `x[i] = tanh(x[i])` in place — elementwise identical to
/// [`Tensor::tanh`](crate::Tensor::tanh).
pub fn tanh_in_place(x: &mut [f32]) {
    let (p, n) = (x.as_mut_ptr(), x.len());
    dispatch!(tanh(p, p, n));
    for v in x.iter_mut() {
        *v = v.tanh();
    }
}

/// Relu backward from the forward **output**: `dst = y > 0 ? g : 0`.
pub(crate) fn relu_grad(dst: &mut [f32], y: &[f32], g: &[f32]) {
    debug_assert_eq!(dst.len(), y.len());
    debug_assert_eq!(dst.len(), g.len());
    dispatch!(relu_grad(dst, y, g));
    for ((d, &yv), &gv) in dst.iter_mut().zip(y).zip(g) {
        *d = if yv > 0.0 { gv } else { 0.0 };
    }
}

/// Sigmoid backward from the forward output: `dst = g · y · (1 − y)`.
pub(crate) fn sigmoid_grad(dst: &mut [f32], y: &[f32], g: &[f32]) {
    debug_assert_eq!(dst.len(), y.len());
    debug_assert_eq!(dst.len(), g.len());
    dispatch!(sigmoid_grad(dst, y, g));
    for ((d, &yv), &gv) in dst.iter_mut().zip(y).zip(g) {
        *d = gv * yv * (1.0 - yv);
    }
}

/// Tanh backward from the forward output: `dst = g · (1 − y²)`.
pub(crate) fn tanh_grad(dst: &mut [f32], y: &[f32], g: &[f32]) {
    debug_assert_eq!(dst.len(), y.len());
    debug_assert_eq!(dst.len(), g.len());
    dispatch!(tanh_grad(dst, y, g));
    for ((d, &yv), &gv) in dst.iter_mut().zip(y).zip(g) {
        *d = gv * (1.0 - yv * yv);
    }
}

/// Sum of all elements (8-lane partial accumulators on AVX2).
pub(crate) fn sum(x: &[f32]) -> f32 {
    dispatch_ret!(sum(x));
    x.iter().sum()
}

/// Sum of squares.
pub fn sq_sum(x: &[f32]) -> f32 {
    dispatch_ret!(sq_sum(x));
    x.iter().map(|&v| v * v).sum()
}

/// Sum of squared differences `Σ (a[i] − b[i])²`.
pub(crate) fn sq_diff_sum(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    dispatch_ret!(sq_diff_sum(a, b));
    a.iter().zip(b).map(|(&x, &y)| (x - y) * (x - y)).sum()
}

/// Maximum element (−∞ for an empty slice).
pub(crate) fn max(x: &[f32]) -> f32 {
    dispatch_ret!(max(x));
    x.iter().copied().fold(f32::NEG_INFINITY, f32::max)
}

/// Minimum element (+∞ for an empty slice).
pub(crate) fn min(x: &[f32]) -> f32 {
    dispatch_ret!(min(x));
    x.iter().copied().fold(f32::INFINITY, f32::min)
}

/// `acc[i] += x[i]`.
pub(crate) fn add_assign(acc: &mut [f32], x: &[f32]) {
    debug_assert_eq!(acc.len(), x.len());
    dispatch!(add_assign(acc, x));
    for (a, &v) in acc.iter_mut().zip(x) {
        *a += v;
    }
}

/// `x[i] *= scale`.
pub(crate) fn scale_in_place(x: &mut [f32], scale: f32) {
    dispatch!(scale_in_place(x, scale));
    for v in x.iter_mut() {
        *v *= scale;
    }
}

/// One softmax row, in place: subtract the row max, exponentiate,
/// normalize to sum 1. The row must be non-empty.
pub fn softmax_row(row: &mut [f32]) {
    dispatch!(softmax_row(row));
    let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut s = 0.0;
    for v in row.iter_mut() {
        *v = (*v - m).exp();
        s += *v;
    }
    let inv = 1.0 / s;
    for v in row.iter_mut() {
        *v *= inv;
    }
}

/// The constants of one Adam step (Kingma & Ba): learning rate, moment
/// decays, ε, and the bias corrections `1 − β₁ᵗ`, `1 − β₂ᵗ` of step `t`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdamStep {
    pub lr: f32,
    pub beta1: f32,
    pub beta2: f32,
    pub eps: f32,
    pub bias_correction1: f32,
    pub bias_correction2: f32,
}

/// One Adam update of a parameter's elements, in place: the moments
/// `m ← β₁·m + (1−β₁)·g` and `v ← β₂·v + (1−β₂)·g·g`, then
/// `value −= lr·m̂ / (√v̂ + ε)` with `m̂ = m / (1−β₁ᵗ)`, `v̂ = v / (1−β₂ᵗ)`.
///
/// Unlike the other kernels here, both dispatch paths agree **bit for
/// bit**: the AVX2 arm uses only correctly rounded `mul`/`add`/`sub`/
/// `div`/`sqrt`, no fused multiply-add, in exactly the scalar
/// association, so training does not depend on the vector ISA through
/// the optimizer.
pub fn adam_update(value: &mut [f32], m: &mut [f32], v: &mut [f32], g: &[f32], step: &AdamStep) {
    let n = value.len();
    assert!(
        m.len() == n && v.len() == n && g.len() == n,
        "adam_update length mismatch"
    );
    dispatch!(adam_update(value, m, v, g, step));
    for (((p, m), v), &g) in value.iter_mut().zip(m).zip(v).zip(g) {
        adam_element(p, m, v, g, step);
    }
}

/// [`adam_update`] of one element: the reference association.
#[inline(always)]
fn adam_element(value: &mut f32, m: &mut f32, v: &mut f32, g: f32, s: &AdamStep) {
    let mi = s.beta1 * *m + (1.0 - s.beta1) * g;
    let vi = s.beta2 * *v + (1.0 - s.beta2) * g * g;
    *m = mi;
    *v = vi;
    let m_hat = mi / s.bias_correction1;
    let v_hat = vi / s.bias_correction2;
    *value -= s.lr * m_hat / (v_hat.sqrt() + s.eps);
}

// ---------------------------------------------------------------------
// AVX2 + FMA implementations
// ---------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use core::arch::x86_64::*;

    /// Applies `body(lane_count_8_chunk)` over 8-wide chunks and
    /// `tail(index)` over the remainder.
    macro_rules! lanes {
        ($len:expr, $i:ident, $body:block, $t:ident, $tail:block) => {
            let mut $i = 0usize;
            while $i + 8 <= $len {
                $body
                $i += 8;
            }
            for $t in $i..$len {
                $tail
            }
        };
    }

    /// Maps `len` floats from `src` to `dst` through one 8-lane
    /// operation. The `len % 8` tail runs through the same operation on a
    /// zero-padded stack block, so every element's result is independent
    /// of its position in the slice (a window scores the same in every
    /// batch row). `src` and `dst` may be the same buffer: each block is
    /// loaded before it is stored.
    macro_rules! map_lanes {
        ($dst:expr, $src:expr, $len:expr, |$v:ident| $op:expr) => {{
            let (dst, src, len): (*mut f32, *const f32, usize) = ($dst, $src, $len);
            let mut i = 0usize;
            while i + 8 <= len {
                // SAFETY: `i + 8 <= len` and both pointers are valid for
                // `len` floats (caller contract).
                unsafe {
                    let $v = _mm256_loadu_ps(src.add(i));
                    _mm256_storeu_ps(dst.add(i), $op);
                }
                i += 8;
            }
            if i < len {
                let mut block = [0.0f32; 8];
                // SAFETY: `len - i < 8` floats are read from `src + i` and
                // written to `dst + i`, both in bounds (caller contract);
                // the stack block holds exactly 8 floats.
                unsafe {
                    core::ptr::copy_nonoverlapping(src.add(i), block.as_mut_ptr(), len - i);
                    let $v = _mm256_loadu_ps(block.as_ptr());
                    _mm256_storeu_ps(block.as_mut_ptr(), $op);
                    core::ptr::copy_nonoverlapping(block.as_ptr(), dst.add(i), len - i);
                }
            }
        }};
    }

    /// # Safety
    ///
    /// AVX2+FMA must be runtime-verified (the dispatch macros do), and
    /// `dst` and `src` must be valid for `len` floats (they may alias
    /// exactly).
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn relu(dst: *mut f32, src: *const f32, len: usize) {
        let zero = _mm256_setzero_ps();
        map_lanes!(dst, src, len, |v| _mm256_max_ps(v, zero));
    }

    /// Polynomial `exp` on 8 lanes (Cephes-style: range-reduce by powers
    /// of two, degree-5 polynomial on the remainder). Inputs are clamped
    /// to the finite range of `f32` exponentials; relative error is
    /// ≈1e-7, far inside the crate's 1e-4 cross-path tolerance.
    ///
    /// # Safety
    ///
    /// AVX2+FMA must be runtime-verified; the body is pure lane
    /// arithmetic (no memory access).
    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::excessive_precision)]
    unsafe fn exp_ps(x: __m256) -> __m256 {
        const EXP_HI: f32 = 88.376_26;
        const EXP_LO: f32 = -88.376_26;
        const LOG2EF: f32 = std::f32::consts::LOG2_E;
        const C1: f32 = 0.693_359_375; // ln 2, high part
        const C2: f32 = -2.121_944_4e-4; // ln 2, low part
        const P0: f32 = 1.987_569_15e-4;
        const P1: f32 = 1.398_199_95e-3;
        const P2: f32 = 8.333_451_9e-3;
        const P3: f32 = 4.166_579_6e-2;
        const P4: f32 = 1.666_666_55e-1;
        const P5: f32 = 5.000_000_1e-1;

        let x = _mm256_min_ps(x, _mm256_set1_ps(EXP_HI));
        let x = _mm256_max_ps(x, _mm256_set1_ps(EXP_LO));

        // n = round(x / ln 2)
        let fx = _mm256_round_ps(
            _mm256_mul_ps(x, _mm256_set1_ps(LOG2EF)),
            _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC,
        );
        // r = x − n·ln2 (two-part for accuracy)
        let r = _mm256_fnmadd_ps(fx, _mm256_set1_ps(C1), x);
        let r = _mm256_fnmadd_ps(fx, _mm256_set1_ps(C2), r);
        let r2 = _mm256_mul_ps(r, r);

        let mut p = _mm256_set1_ps(P0);
        p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(P1));
        p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(P2));
        p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(P3));
        p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(P4));
        p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(P5));
        p = _mm256_fmadd_ps(p, r2, r);
        let p = _mm256_add_ps(p, _mm256_set1_ps(1.0));

        // Scale by 2^n through the exponent bits.
        let n = _mm256_cvtps_epi32(fx);
        let pow2n = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(
            n,
            _mm256_set1_epi32(127),
        )));
        _mm256_mul_ps(p, pow2n)
    }

    /// 8-lane stable sigmoid: `s = 1 / (1 + exp(−|x|))`, mirrored to
    /// `1 − s` for negative inputs (`σ(−a) = 1 − σ(a)`).
    ///
    /// # Safety
    ///
    /// AVX2+FMA must be runtime-verified; pure lane arithmetic.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn sigmoid_ps(v: __m256) -> __m256 {
        let sign_mask = _mm256_set1_ps(-0.0);
        let one = _mm256_set1_ps(1.0);
        let absv = _mm256_andnot_ps(sign_mask, v);
        // SAFETY: this fn's own contract already requires AVX2+FMA.
        let e = unsafe { exp_ps(_mm256_sub_ps(_mm256_setzero_ps(), absv)) };
        let s = _mm256_div_ps(one, _mm256_add_ps(one, e));
        let mirrored = _mm256_sub_ps(one, s);
        let neg = _mm256_cmp_ps(v, _mm256_setzero_ps(), _CMP_LT_OQ);
        _mm256_blendv_ps(s, mirrored, neg)
    }

    /// # Safety
    ///
    /// AVX2+FMA must be runtime-verified, and `dst` and `src` must be
    /// valid for `len` floats (they may alias exactly).
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn sigmoid(dst: *mut f32, src: *const f32, len: usize) {
        map_lanes!(dst, src, len, |v| sigmoid_ps(v));
    }

    /// # Safety
    ///
    /// AVX2+FMA must be runtime-verified, and `dst` and `src` must be
    /// valid for `len` floats (they may alias exactly).
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn tanh(dst: *mut f32, src: *const f32, len: usize) {
        // tanh(x) = 2·σ(2x) − 1
        let two = _mm256_set1_ps(2.0);
        let one = _mm256_set1_ps(1.0);
        map_lanes!(dst, src, len, |v| _mm256_fmsub_ps(
            two,
            sigmoid_ps(_mm256_mul_ps(v, two)),
            one
        ));
    }

    /// # Safety
    ///
    /// AVX2+FMA must be runtime-verified, and `y`/`g` must be at least
    /// `dst.len()` long.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn relu_grad(dst: &mut [f32], y: &[f32], g: &[f32]) {
        debug_assert!(y.len() >= dst.len() && g.len() >= dst.len());
        let zero = _mm256_setzero_ps();
        lanes!(
            dst.len(),
            i,
            {
                // SAFETY: `i + 8 <= dst.len() <= y.len(), g.len()` per
                // the lanes! loop bound and the length contract.
                unsafe {
                    let yv = _mm256_loadu_ps(y.as_ptr().add(i));
                    let gv = _mm256_loadu_ps(g.as_ptr().add(i));
                    let mask = _mm256_cmp_ps(yv, zero, _CMP_GT_OQ);
                    _mm256_storeu_ps(dst.as_mut_ptr().add(i), _mm256_and_ps(gv, mask));
                }
            },
            t,
            {
                dst[t] = if y[t] > 0.0 { g[t] } else { 0.0 };
            }
        );
    }

    /// # Safety
    ///
    /// AVX2+FMA must be runtime-verified, and `y`/`g` must be at least
    /// `dst.len()` long.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn sigmoid_grad(dst: &mut [f32], y: &[f32], g: &[f32]) {
        debug_assert!(y.len() >= dst.len() && g.len() >= dst.len());
        let one = _mm256_set1_ps(1.0);
        lanes!(
            dst.len(),
            i,
            {
                // SAFETY: `i + 8 <= dst.len() <= y.len(), g.len()` per
                // the lanes! loop bound and the length contract.
                unsafe {
                    let yv = _mm256_loadu_ps(y.as_ptr().add(i));
                    let gv = _mm256_loadu_ps(g.as_ptr().add(i));
                    let d = _mm256_mul_ps(_mm256_mul_ps(gv, yv), _mm256_sub_ps(one, yv));
                    _mm256_storeu_ps(dst.as_mut_ptr().add(i), d);
                }
            },
            t,
            {
                dst[t] = g[t] * y[t] * (1.0 - y[t]);
            }
        );
    }

    /// # Safety
    ///
    /// AVX2+FMA must be runtime-verified, and `y`/`g` must be at least
    /// `dst.len()` long.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn tanh_grad(dst: &mut [f32], y: &[f32], g: &[f32]) {
        debug_assert!(y.len() >= dst.len() && g.len() >= dst.len());
        let one = _mm256_set1_ps(1.0);
        lanes!(
            dst.len(),
            i,
            {
                // SAFETY: `i + 8 <= dst.len() <= y.len(), g.len()` per
                // the lanes! loop bound and the length contract.
                unsafe {
                    let yv = _mm256_loadu_ps(y.as_ptr().add(i));
                    let gv = _mm256_loadu_ps(g.as_ptr().add(i));
                    let d = _mm256_mul_ps(gv, _mm256_fnmadd_ps(yv, yv, one));
                    _mm256_storeu_ps(dst.as_mut_ptr().add(i), d);
                }
            },
            t,
            {
                dst[t] = g[t] * (1.0 - y[t] * y[t]);
            }
        );
    }

    /// Horizontal sum of the 8 lanes.
    ///
    /// # Safety
    ///
    /// AVX2+FMA must be runtime-verified; pure lane arithmetic.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn hsum(v: __m256) -> f32 {
        let lo = _mm256_castps256_ps128(v);
        let hi = _mm256_extractf128_ps::<1>(v);
        let s = _mm_add_ps(lo, hi);
        let s = _mm_add_ps(s, _mm_movehl_ps(s, s));
        let s = _mm_add_ss(s, _mm_shuffle_ps::<1>(s, s));
        _mm_cvtss_f32(s)
    }

    /// # Safety
    ///
    /// AVX2+FMA must be runtime-verified.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn sum(x: &[f32]) -> f32 {
        let mut acc = _mm256_setzero_ps();
        let mut tail = 0.0f32;
        lanes!(
            x.len(),
            i,
            {
                // SAFETY: `i + 8 <= x.len()` per the lanes! loop bound.
                acc = unsafe { _mm256_add_ps(acc, _mm256_loadu_ps(x.as_ptr().add(i))) };
            },
            t,
            {
                tail += x[t];
            }
        );
        // SAFETY: this fn's own contract already requires AVX2+FMA.
        unsafe { hsum(acc) + tail }
    }

    /// # Safety
    ///
    /// AVX2+FMA must be runtime-verified.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn sq_sum(x: &[f32]) -> f32 {
        let mut acc = _mm256_setzero_ps();
        let mut tail = 0.0f32;
        lanes!(
            x.len(),
            i,
            {
                // SAFETY: `i + 8 <= x.len()` per the lanes! loop bound.
                unsafe {
                    let v = _mm256_loadu_ps(x.as_ptr().add(i));
                    acc = _mm256_fmadd_ps(v, v, acc);
                }
            },
            t,
            {
                tail += x[t] * x[t];
            }
        );
        // SAFETY: this fn's own contract already requires AVX2+FMA.
        unsafe { hsum(acc) + tail }
    }

    /// # Safety
    ///
    /// AVX2+FMA must be runtime-verified, and `b.len() >= a.len()`.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn sq_diff_sum(a: &[f32], b: &[f32]) -> f32 {
        debug_assert!(b.len() >= a.len());
        let mut acc = _mm256_setzero_ps();
        let mut tail = 0.0f32;
        lanes!(
            a.len(),
            i,
            {
                // SAFETY: `i + 8 <= a.len() <= b.len()` per the lanes!
                // loop bound and the length contract.
                unsafe {
                    let d = _mm256_sub_ps(
                        _mm256_loadu_ps(a.as_ptr().add(i)),
                        _mm256_loadu_ps(b.as_ptr().add(i)),
                    );
                    acc = _mm256_fmadd_ps(d, d, acc);
                }
            },
            t,
            {
                let d = a[t] - b[t];
                tail += d * d;
            }
        );
        // SAFETY: this fn's own contract already requires AVX2+FMA.
        unsafe { hsum(acc) + tail }
    }

    /// Horizontal max of the 8 lanes.
    ///
    /// # Safety
    ///
    /// AVX2+FMA must be runtime-verified; pure lane arithmetic.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn hmax(v: __m256) -> f32 {
        let lo = _mm256_castps256_ps128(v);
        let hi = _mm256_extractf128_ps::<1>(v);
        let m = _mm_max_ps(lo, hi);
        let m = _mm_max_ps(m, _mm_movehl_ps(m, m));
        let m = _mm_max_ss(m, _mm_shuffle_ps::<1>(m, m));
        _mm_cvtss_f32(m)
    }

    /// # Safety
    ///
    /// AVX2+FMA must be runtime-verified.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn max(x: &[f32]) -> f32 {
        let mut acc = _mm256_set1_ps(f32::NEG_INFINITY);
        let mut tail = f32::NEG_INFINITY;
        lanes!(
            x.len(),
            i,
            {
                // SAFETY: `i + 8 <= x.len()` per the lanes! loop bound.
                acc = unsafe { _mm256_max_ps(acc, _mm256_loadu_ps(x.as_ptr().add(i))) };
            },
            t,
            {
                tail = tail.max(x[t]);
            }
        );
        // SAFETY: this fn's own contract already requires AVX2+FMA.
        unsafe { hmax(acc).max(tail) }
    }

    /// # Safety
    ///
    /// AVX2+FMA must be runtime-verified.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn min(x: &[f32]) -> f32 {
        let mut acc = _mm256_set1_ps(f32::INFINITY);
        let mut tail = f32::INFINITY;
        lanes!(
            x.len(),
            i,
            {
                // SAFETY: `i + 8 <= x.len()` per the lanes! loop bound.
                acc = unsafe { _mm256_min_ps(acc, _mm256_loadu_ps(x.as_ptr().add(i))) };
            },
            t,
            {
                tail = tail.min(x[t]);
            }
        );
        // Reuse hmax's shuffle pattern through negation-free lane folds.
        let lo = _mm256_castps256_ps128(acc);
        let hi = _mm256_extractf128_ps::<1>(acc);
        let m = _mm_min_ps(lo, hi);
        let m = _mm_min_ps(m, _mm_movehl_ps(m, m));
        let m = _mm_min_ss(m, _mm_shuffle_ps::<1>(m, m));
        _mm_cvtss_f32(m).min(tail)
    }

    /// # Safety
    ///
    /// AVX2+FMA must be runtime-verified, and `x.len() >= acc.len()`.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn add_assign(acc: &mut [f32], x: &[f32]) {
        debug_assert!(x.len() >= acc.len());
        lanes!(
            acc.len(),
            i,
            {
                // SAFETY: `i + 8 <= acc.len() <= x.len()` per the lanes!
                // loop bound and the length contract.
                unsafe {
                    let a = _mm256_loadu_ps(acc.as_ptr().add(i));
                    let v = _mm256_loadu_ps(x.as_ptr().add(i));
                    _mm256_storeu_ps(acc.as_mut_ptr().add(i), _mm256_add_ps(a, v));
                }
            },
            t,
            {
                acc[t] += x[t];
            }
        );
    }

    /// # Safety
    ///
    /// AVX2+FMA must be runtime-verified.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn scale_in_place(x: &mut [f32], scale: f32) {
        let s = _mm256_set1_ps(scale);
        lanes!(
            x.len(),
            i,
            {
                // SAFETY: `i + 8 <= x.len()` per the lanes! loop bound.
                unsafe {
                    let v = _mm256_loadu_ps(x.as_ptr().add(i));
                    _mm256_storeu_ps(x.as_mut_ptr().add(i), _mm256_mul_ps(v, s));
                }
            },
            t,
            {
                x[t] *= scale;
            }
        );
    }

    /// # Safety
    ///
    /// AVX2+FMA must be runtime-verified, and `m`, `v` and `g` must be at
    /// least as long as `value`.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn adam_update(
        value: &mut [f32],
        m: &mut [f32],
        v: &mut [f32],
        g: &[f32],
        step: &super::AdamStep,
    ) {
        debug_assert!(m.len() >= value.len() && v.len() >= value.len() && g.len() >= value.len());
        let splat = _mm256_set1_ps;
        let (beta1, beta2) = (splat(step.beta1), splat(step.beta2));
        let (one_minus_beta1, one_minus_beta2) = (splat(1.0 - step.beta1), splat(1.0 - step.beta2));
        let (bc1, bc2) = (splat(step.bias_correction1), splat(step.bias_correction2));
        let (lr, eps) = (splat(step.lr), splat(step.eps));
        lanes!(
            value.len(),
            i,
            {
                // SAFETY: `i + 8 <= value.len()`, which bounds the other
                // three slices too (length contract).
                unsafe {
                    let gi = _mm256_loadu_ps(g.as_ptr().add(i));
                    let mi = _mm256_add_ps(
                        _mm256_mul_ps(beta1, _mm256_loadu_ps(m.as_ptr().add(i))),
                        _mm256_mul_ps(one_minus_beta1, gi),
                    );
                    let vi = _mm256_add_ps(
                        _mm256_mul_ps(beta2, _mm256_loadu_ps(v.as_ptr().add(i))),
                        _mm256_mul_ps(_mm256_mul_ps(one_minus_beta2, gi), gi),
                    );
                    _mm256_storeu_ps(m.as_mut_ptr().add(i), mi);
                    _mm256_storeu_ps(v.as_mut_ptr().add(i), vi);
                    let m_hat = _mm256_div_ps(mi, bc1);
                    let v_hat = _mm256_div_ps(vi, bc2);
                    let update = _mm256_div_ps(
                        _mm256_mul_ps(lr, m_hat),
                        _mm256_add_ps(_mm256_sqrt_ps(v_hat), eps),
                    );
                    let p = value.as_mut_ptr().add(i);
                    _mm256_storeu_ps(p, _mm256_sub_ps(_mm256_loadu_ps(p), update));
                }
            },
            t,
            {
                super::adam_element(&mut value[t], &mut m[t], &mut v[t], g[t], step);
            }
        );
    }

    /// # Safety
    ///
    /// AVX2+FMA must be runtime-verified.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn softmax_row(row: &mut [f32]) {
        // SAFETY: this fn's own contract already requires AVX2+FMA (the
        // sibling kernels called below inherit the same argument).
        let m = unsafe { max(row) };
        let mv = _mm256_set1_ps(m);
        let mut acc = _mm256_setzero_ps();
        let mut tail = 0.0f32;
        lanes!(
            row.len(),
            i,
            {
                // SAFETY: `i + 8 <= row.len()` per the lanes! loop bound.
                unsafe {
                    let v = exp_ps(_mm256_sub_ps(_mm256_loadu_ps(row.as_ptr().add(i)), mv));
                    _mm256_storeu_ps(row.as_mut_ptr().add(i), v);
                    acc = _mm256_add_ps(acc, v);
                }
            },
            t,
            {
                // Keep the tail on the same polynomial as the lanes so the
                // row is internally consistent.
                let mut one = [0.0f32; 8];
                // SAFETY: `one` is a stack array of exactly 8 floats.
                unsafe {
                    _mm256_storeu_ps(one.as_mut_ptr(), exp_ps(_mm256_set1_ps(row[t] - m)));
                }
                row[t] = one[0];
                tail += one[0];
            }
        );
        // SAFETY: AVX2+FMA per this fn's contract; `scale_in_place`
        // stays inside `row`.
        unsafe {
            let inv = 1.0 / (hsum(acc) + tail);
            scale_in_place(row, inv);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scalar vs (possibly) vector paths must agree tightly; on non-AVX2
    /// hosts both sides are scalar and the assertions are trivial.
    #[test]
    fn vector_transcendentals_match_scalar() {
        let xs: Vec<f32> = (-400..=400).map(|i| i as f32 * 0.05).collect();
        let mut sig = vec![0.0f32; xs.len()];
        let mut th = vec![0.0f32; xs.len()];
        sigmoid(&mut sig, &xs);
        tanh(&mut th, &xs);
        for (i, &x) in xs.iter().enumerate() {
            let rs = sigmoid_scalar(x);
            let rt = x.tanh();
            assert!(
                (sig[i] - rs).abs() <= 1e-5 * rs.abs().max(1.0),
                "sigmoid({x}) = {} vs {rs}",
                sig[i]
            );
            assert!(
                (th[i] - rt).abs() <= 2e-5 * rt.abs().max(1.0),
                "tanh({x}) = {} vs {rt}",
                th[i]
            );
        }
    }

    /// The dispatched Adam update equals the scalar reference bit for bit
    /// over several steps, at lengths on and off the 8-lane grid.
    #[test]
    fn adam_update_matches_scalar_reference_bit_for_bit() {
        let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for len in [0, 1, 7, 8, 9, 23, 64, 101] {
            let init = |seed: usize, scale: f32| -> Vec<f32> {
                (0..len)
                    .map(|i| (((i * 7919 + seed * 104_729) % 2_003) as f32 / 1_001.0 - 1.0) * scale)
                    .collect()
            };
            let (mut value, mut m, mut v) = (init(1, 0.5), vec![0.0; len], vec![0.0; len]);
            let (mut value_ref, mut m_ref, mut v_ref) = (value.clone(), m.clone(), v.clone());
            for t in 1..=5 {
                // Gradients spanning several magnitudes, zeros included.
                let mut g = init(t + 1, 10f32.powi(2 - 2 * t as i32));
                if len > 3 {
                    g[3] = 0.0;
                }
                let step = AdamStep {
                    lr: 1e-3,
                    beta1: 0.9,
                    beta2: 0.999,
                    eps: 1e-8,
                    bias_correction1: 1.0 - 0.9f32.powi(t as i32),
                    bias_correction2: 1.0 - 0.999f32.powi(t as i32),
                };
                adam_update(&mut value, &mut m, &mut v, &g, &step);
                for i in 0..len {
                    adam_element(&mut value_ref[i], &mut m_ref[i], &mut v_ref[i], g[i], &step);
                }
                assert_eq!(bits(&value), bits(&value_ref), "value, len {len}, step {t}");
                assert_eq!(bits(&m), bits(&m_ref), "m, len {len}, step {t}");
                assert_eq!(bits(&v), bits(&v_ref), "v, len {len}, step {t}");
            }
        }
    }

    #[test]
    fn reductions_match_scalar_references() {
        let xs: Vec<f32> = (0..103).map(|i| ((i * 37) % 19) as f32 - 9.0).collect();
        let ys: Vec<f32> = (0..103).map(|i| ((i * 11) % 23) as f32 - 11.0).collect();
        let scalar_sum: f32 = xs.iter().sum();
        assert!((sum(&xs) - scalar_sum).abs() < 1e-3);
        let scalar_sq: f32 = xs.iter().map(|&v| v * v).sum();
        assert!((sq_sum(&xs) - scalar_sq).abs() < 1e-2);
        let scalar_sd: f32 = xs.iter().zip(&ys).map(|(&a, &b)| (a - b) * (a - b)).sum();
        assert!((sq_diff_sum(&xs, &ys) - scalar_sd).abs() < 1e-2);
        assert_eq!(max(&xs), 9.0);
        assert_eq!(min(&xs), -9.0);
        assert_eq!(max(&[]), f32::NEG_INFINITY);
        assert_eq!(min(&[]), f32::INFINITY);
    }

    #[test]
    fn force_scalar_round_trips() {
        // Not gated: other tests in this binary don't flip the override.
        let before = active();
        set_force_scalar(true);
        assert_eq!(active(), Isa::Scalar);
        assert_eq!(active_name(), "scalar");
        set_force_scalar(false);
        assert_eq!(active(), before);
    }
}
