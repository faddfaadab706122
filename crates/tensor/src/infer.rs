//! Slice-level kernels for tape-free inference.
//!
//! The tape forward of a model builds every intermediate as a fresh
//! [`Tensor`]; an inference forward that needs no gradient can instead
//! run the same contractions into caller-owned (scratch-pool) buffers
//! and apply biases and activations in place. Each kernel here documents
//! the tensor op it replaces and reproduces that op **bit for bit** on
//! both dispatch paths:
//!
//! * every output element sees the same products accumulated in the same
//!   order — swapping the A and B operands of a product is allowed (the
//!   multiply and the fused multiply-add commute in their factors), and
//!   so is splitting or stacking output rows or columns;
//! * every contraction takes the same packed-or-scalar decision
//!   (`gemm::enabled(madds)`) as the op it replaces, on that op's madd
//!   count, and the scalar arm uses that op's accumulation order.
//!
//! Layouts are channel-major `(B, C, L)` unless stated otherwise, so a
//! model can keep one layout from its embedding to its output head.

#[cfg(target_arch = "x86_64")]
use crate::gemm;
use crate::matmul::{dot, matmul_tn_into};
use crate::{matmul, par, scratch, Tensor};

pub use crate::conv::conv1d_into;

/// `out (m × n) = A (m × k) · B (k × n)`, all row-major — exactly
/// [`Tensor::matmul`]. `out` needs no initialization.
pub fn matmul_into(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "matmul_into lhs length");
    assert_eq!(b.len(), k * n, "matmul_into rhs length");
    assert_eq!(out.len(), m * n, "matmul_into output length");
    if n == 0 {
        return;
    }
    // A zero-depth product is all zeros, which only the scalar arm
    // writes (the packed one stores nothing).
    #[cfg(target_arch = "x86_64")]
    if k > 0 && gemm::enabled(m * k * n) {
        gemm::matmul_nn(a, b, out, m, k, n);
        return;
    }
    out.fill(0.0);
    // Row-parallel: each chunk is one output row.
    par::for_each_chunk(out, n, |i, orow| {
        matmul::matmul_into(&a[i * k..(i + 1) * k], b, orow, 1, k, n);
    });
}

/// Pointwise channel map of a channel-major batch:
/// `out[b][o][t] = Σ_c x[b][c][t] · W[c][o]` for a `(C_in, C_out)`
/// weight in [`Tensor::matmul`] layout.
///
/// Bit-identical to the time-major product `X_tm (B·L, C_in) · W` — the
/// affine layer applied per position — transposed: the same `B·L·C_in·C_out`
/// dispatch, the same depth order (and depth slabs) over `c`. This is a
/// 1×1 convolution that needs no transposed copy of its input or weight.
/// `out` needs no initialization.
pub fn channel_linear_into(
    x: &[f32],
    batches: usize,
    len: usize,
    weight: &Tensor,
    out: &mut [f32],
) {
    assert_eq!(
        weight.rank(),
        2,
        "channel_linear weight must be (C_in, C_out)"
    );
    let (cin, cout, l) = (weight.dims()[0], weight.dims()[1], len);
    assert_eq!(x.len(), batches * cin * l, "channel_linear input length");
    assert_eq!(
        out.len(),
        batches * cout * l,
        "channel_linear output length"
    );
    if out.is_empty() {
        return;
    }
    let w = weight.data();
    // As in `matmul_into`, a zero-depth map is left to the scalar arm.
    #[cfg(target_arch = "x86_64")]
    if cin > 0 && gemm::enabled(batches * l * cin * cout) {
        par::for_each_chunk(out, cout * l, |bi, y| {
            gemm::gemm(
                cout,
                l,
                cin,
                &gemm::ACols { data: w, ld: cout },
                &gemm::BRows {
                    data: &x[bi * cin * l..(bi + 1) * cin * l],
                    ld: l,
                },
                y,
            );
        });
        return;
    }
    out.fill(0.0);
    par::for_each_chunk(out, cout * l, |bi, y| {
        matmul_tn_into(w, &x[bi * cin * l..(bi + 1) * cin * l], y, cin, cout, l);
    });
}

/// Luong attention scores (paper Eq. 7) of channel-major states:
/// `out[b][t][s] = Σ_c z[b][c][t] · e[b][c][s]`, i.e. `bmm_tn(z, e)`,
/// into a `(B, L, L)` buffer whose rows are ready for a softmax.
///
/// Bit-identical to [`Tensor::bmm_nt`] of the time-major states
/// `(B, L, C) · (B, L, C)ᵀ`, including its scalar arm's four-way
/// partial-sum dot product. `out` needs no initialization.
pub fn attention_scores_into(
    z: &[f32],
    e: &[f32],
    batches: usize,
    channels: usize,
    len: usize,
    out: &mut [f32],
) {
    let (c, l) = (channels, len);
    assert_eq!(z.len(), batches * c * l, "attention query length");
    assert_eq!(e.len(), z.len(), "attention key length");
    assert_eq!(out.len(), batches * l * l, "attention score length");
    if out.is_empty() {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if gemm::enabled(l * c * l) {
        par::for_each_chunk(out, l * l, |bi, y| {
            let span = bi * c * l..(bi + 1) * c * l;
            gemm::matmul_tn(&z[span.clone()], &e[span], y, c, l, l);
        });
        return;
    }
    par::for_each_chunk(out, l * l, |bi, y| {
        let zt = transposed(&z[bi * c * l..(bi + 1) * c * l], c, l);
        let et = transposed(&e[bi * c * l..(bi + 1) * c * l], c, l);
        for (t, row) in y.chunks_exact_mut(l).enumerate() {
            for (s, o) in row.iter_mut().enumerate() {
                *o = dot(&zt[t * c..(t + 1) * c], &et[s * c..(s + 1) * c]);
            }
        }
        scratch::recycle(zt);
        scratch::recycle(et);
    });
}

/// Attention context of channel-major encoder states and `(B, L, L)`
/// weights: `out[b][c][t] = Σ_s e[b][c][s] · α[b][t][s]`, i.e.
/// `bmm_nt(e, α)`, channel-major.
///
/// Bit-identical to [`Tensor::bmm`] `α · E_tm` of the time-major states,
/// transposed. `out` needs no initialization.
pub fn attention_context_into(
    e: &[f32],
    alpha: &[f32],
    batches: usize,
    channels: usize,
    len: usize,
    out: &mut [f32],
) {
    let (c, l) = (channels, len);
    assert_eq!(e.len(), batches * c * l, "attention value length");
    assert_eq!(alpha.len(), batches * l * l, "attention weight length");
    assert_eq!(out.len(), e.len(), "attention context length");
    if out.is_empty() {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if gemm::enabled(l * l * c) {
        par::for_each_chunk(out, c * l, |bi, y| {
            let a = &alpha[bi * l * l..(bi + 1) * l * l];
            gemm::matmul_nt(&e[bi * c * l..(bi + 1) * c * l], a, y, c, l, l);
        });
        return;
    }
    out.fill(0.0);
    par::for_each_chunk(out, c * l, |bi, y| {
        let at = transposed(&alpha[bi * l * l..(bi + 1) * l * l], l, l);
        matmul::matmul_into(&e[bi * c * l..(bi + 1) * c * l], &at, y, c, l, l);
        scratch::recycle(at);
    });
}

/// `rows × cols` row-major `src` transposed into a scratch buffer.
fn transposed(src: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    let mut out = scratch::take_full(rows * cols);
    for (r, row) in src.chunks_exact(cols).enumerate() {
        for (j, &v) in row.iter().enumerate() {
            out[j * rows + r] = v;
        }
    }
    out
}
