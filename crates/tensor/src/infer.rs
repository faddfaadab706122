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
//!   count — the **unpruned** count, when only some positions are
//!   computed — and the scalar arm uses that op's accumulation order;
//! * a convolution contracts its whole `C_in·K` depth in one microkernel
//!   pass, as [`Tensor::conv1d`] does.
//!
//! All of these hold per element, so computing fewer output columns is
//! exact. Activations are batch-folded `(C, B·T)` ([`Fold`]): one layout
//! from the embedding to the output head, in which a forward can keep
//! only the positions its output needs.

#[cfg(target_arch = "x86_64")]
use crate::gemm;
use crate::matmul::dot;
use crate::{matmul, par, scratch, Tensor};

pub use crate::conv::conv1d_folded_into;

/// `out (m × n) = A (m × k) · B (k × n)`, all row-major — exactly
/// [`Tensor::matmul`]. `out` needs no initialization.
pub fn matmul_into(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "matmul_into lhs length");
    assert_eq!(b.len(), k * n, "matmul_into rhs length");
    assert_eq!(out.len(), m * n, "matmul_into output length");
    matmul::product_into(matmul::Layout::Nn, 1, [m, k, n], a, b, out);
}

/// Column geometry of a **batch-folded** activation `(C, B·T)`: each
/// channel row holds window `b`'s positions `start .. window` at columns
/// `b·T .. (b + 1)·T`, `T = window − start`.
///
/// Folding the batch into the columns makes every convolution and 1×1
/// channel map one GEMM over `B·T` columns, whose 16-wide panels span
/// windows — so a forward that needs only the positions from `start` on
/// computes just those columns and still fills whole microkernel tiles.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fold {
    /// Windows folded into the columns.
    pub batches: usize,
    /// Window length `w`; positions run `0 .. window`.
    pub window: usize,
    /// First position held.
    pub start: usize,
}

impl Fold {
    /// All `window` positions of `batches` windows.
    pub fn full(batches: usize, window: usize) -> Fold {
        Fold {
            batches,
            window,
            start: 0,
        }
    }

    /// The same windows from position `start` on.
    pub fn from(self, start: usize) -> Fold {
        assert!(start < self.window, "fold start {start} outside the window");
        Fold { start, ..self }
    }

    /// Positions held per window, `T`.
    pub fn width(&self) -> usize {
        self.window - self.start
    }

    /// Columns of the folded matrix, `B·T`.
    pub fn cols(&self) -> usize {
        self.batches * self.width()
    }
}

/// Pointwise channel map of a batch-folded activation:
/// `out[o][j] = Σ_c x[c][j] · W[c][o]` for a `(C_in, C_out)` weight in
/// [`Tensor::matmul`] layout, over every column of `fold`.
///
/// Bit-identical to the time-major product `X_tm (B·w, C_in) · W` — the
/// affine layer applied per position — at the positions held: the
/// dispatch is taken on the unpruned `B·w·C_in·C_out`, and every element
/// sees the same depth order (and depth slabs) over `c`. `out` needs no
/// initialization.
pub fn channel_linear_into(x: &[f32], fold: Fold, weight: &Tensor, out: &mut [f32]) {
    assert_eq!(
        weight.rank(),
        2,
        "channel_linear weight must be (C_in, C_out)"
    );
    let (cin, cout, n) = (weight.dims()[0], weight.dims()[1], fold.cols());
    assert_eq!(x.len(), cin * n, "channel_linear input length");
    assert_eq!(out.len(), cout * n, "channel_linear output length");
    if out.is_empty() {
        return;
    }
    let w = weight.data();
    // As in `matmul_into`, a zero-depth map is left to the scalar arm.
    #[cfg(target_arch = "x86_64")]
    if cin > 0 && gemm::enabled(fold.batches * fold.window * cin * cout) {
        gemm::gemm(
            cout,
            n,
            cin,
            &gemm::ACols { data: w, ld: cout },
            &gemm::BRows { data: x, ld: n },
            out,
        );
        return;
    }
    // Row `o` of the transposed weight is output channel `o`'s column.
    let wt = transposed(w, cin, cout);
    out.fill(0.0);
    par::for_each_chunk(out, n, |o, y| {
        matmul::matmul_into(&wt[o * cin..(o + 1) * cin], x, y, 1, cin, n);
    });
    scratch::recycle(wt);
}

/// Luong attention scores (paper Eq. 7) of the decoder positions held by
/// `fold` against all `w` encoder positions: per window,
/// `out[b][u][s] = Σ_c z[c][b·T + u] · e[c][b·w + s]`, into a
/// `(B, T, w)` buffer whose rows are ready for a softmax. `z` is folded
/// by `fold`, `e` holds every position.
///
/// Bit-identical to the rows `start ..` of [`Tensor::bmm_nt`] of the
/// time-major states `(B, w, C) · (B, w, C)ᵀ`: the dispatch is taken on
/// the unpruned `w·C·w`, and the scalar arm uses its four-way
/// partial-sum dot product. `out` needs no initialization.
pub fn attention_scores_into(z: &[f32], e: &[f32], fold: Fold, channels: usize, out: &mut [f32]) {
    let (c, w, t) = (channels, fold.window, fold.width());
    let (nz, ne) = (fold.cols(), fold.batches * w);
    assert_eq!(z.len(), c * nz, "attention query length");
    assert_eq!(e.len(), c * ne, "attention key length");
    assert_eq!(out.len(), fold.batches * t * w, "attention score length");
    if out.is_empty() {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if gemm::enabled(w * c * w) {
        // Strided views of window `bi`: its `T` query columns and its
        // `w` key columns in every channel row.
        par::for_each_chunk(out, t * w, |bi, y| {
            let view = gemm::Direct {
                a: &z[bi * t..],
                a_row: 1,
                a_depth: nz,
                b: &e[bi * w..],
                ldb: ne,
                ldo: w,
            };
            gemm::gemm_direct(t, w, c, &view, y);
        });
        return;
    }
    par::for_each_chunk(out, t * w, |bi, y| {
        let zt = window_transposed(z, c, nz, bi * t, t);
        let et = window_transposed(e, c, ne, bi * w, w);
        for (u, row) in y.chunks_exact_mut(w).enumerate() {
            for (s, o) in row.iter_mut().enumerate() {
                *o = dot(&zt[u * c..(u + 1) * c], &et[s * c..(s + 1) * c]);
            }
        }
        scratch::recycle(zt);
        scratch::recycle(et);
    });
}

/// Attention context at the decoder positions held by `fold`, from the
/// `(B, T, w)` weights and all-position encoder states `e`:
/// `out[c][b·T + u] = Σ_s e[c][b·w + s] · α[b][u][s]`, folded like the
/// queries.
///
/// Bit-identical to the rows `start ..` of [`Tensor::bmm`] `α · E_tm` of
/// the time-major states, transposed: the dispatch is taken on the
/// unpruned `w·w·C`. `out` needs no initialization.
pub fn attention_context_into(
    e: &[f32],
    alpha: &[f32],
    fold: Fold,
    channels: usize,
    out: &mut [f32],
) {
    let (c, w, t) = (channels, fold.window, fold.width());
    let (nz, ne) = (fold.cols(), fold.batches * w);
    assert_eq!(e.len(), c * ne, "attention value length");
    assert_eq!(alpha.len(), fold.batches * t * w, "attention weight length");
    assert_eq!(out.len(), c * nz, "attention context length");
    if out.is_empty() {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    let packed = gemm::enabled(w * w * c);
    #[cfg(not(target_arch = "x86_64"))]
    let packed = false;
    // Windows in one contiguous span per worker, each span with its own
    // buffers. A window's context fills columns `b·T .. (b + 1)·T` of
    // every channel row, disjoint from every other window's.
    let workers = if out.len() >= par::PAR_THRESHOLD {
        par::threads().min(fold.batches)
    } else {
        1
    };
    let per = fold.batches.div_ceil(workers);
    let base = par::SyncMutPtr(out.as_mut_ptr());
    par::for_each_index(fold.batches.div_ceil(per), |span| {
        // `at` holds a window's weights transposed, `(w, T)`; `y` its
        // context, `(C, T)`.
        let (mut at, mut y) = (scratch::take_full(w * t), scratch::take_full(c * t));
        for bi in span * per..((span + 1) * per).min(fold.batches) {
            let a = &alpha[bi * t * w..(bi + 1) * t * w];
            for (u, row) in a.chunks_exact(w).enumerate() {
                for (s, &v) in row.iter().enumerate() {
                    at[s * t + u] = v;
                }
            }
            window_context(&e[bi * w..], ne, &at, c, w, packed, &mut y);
            for (ch, row) in y.chunks_exact(t).enumerate() {
                // SAFETY: `ch < C` and `bi < B`, so columns
                // `bi·T .. bi·T + T` of row `ch` lie inside `out`
                // (`C × B·T`); no other window writes them, and
                // `for_each_index` returns only after every span is done.
                unsafe {
                    std::ptr::copy_nonoverlapping(
                        row.as_ptr(),
                        base.get().add(ch * nz + bi * t),
                        t,
                    );
                }
            }
        }
        scratch::recycle(at);
        scratch::recycle(y);
    });
}

/// One window's attention context `y (C × T) = E (C × w) · at (w × T)`,
/// where channel `ch` of the window's states is `e[ch·ld ..][..w]`: on
/// the packed path as [`gemm::gemm`] accumulates it, else in the matmul
/// loops' order.
fn window_context(
    e: &[f32],
    ld: usize,
    at: &[f32],
    c: usize,
    w: usize,
    packed: bool,
    y: &mut [f32],
) {
    let t = at.len() / w;
    #[cfg(target_arch = "x86_64")]
    if packed {
        let view = gemm::Direct {
            a: e,
            a_row: ld,
            a_depth: 1,
            b: at,
            ldb: t,
            ldo: t,
        };
        gemm::gemm_direct(c, t, w, &view, y);
        return;
    }
    debug_assert!(!packed);
    y.fill(0.0);
    for (ch, row) in y.chunks_exact_mut(t).enumerate() {
        matmul::matmul_into(&e[ch * ld..][..w], at, row, 1, w, t);
    }
}

/// The `(C, len)` block at columns `col .. col + len` of a `(C, ld)`
/// row-major matrix, transposed to `(len, C)` in a scratch buffer.
fn window_transposed(src: &[f32], c: usize, ld: usize, col: usize, len: usize) -> Vec<f32> {
    let mut out = scratch::take_full(len * c);
    for ch in 0..c {
        for (u, &v) in src[ch * ld + col..][..len].iter().enumerate() {
            out[u * c + ch] = v;
        }
    }
    out
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic values in `[-1, 1)`.
    fn values(n: usize, seed: u64) -> Vec<f32> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (s >> 40) as f32 / (1u64 << 23) as f32 - 1.0
            })
            .collect()
    }

    /// Positions `fold.start ..` of time-major `(B, w, C)` states, folded
    /// to `(C, B·T)`.
    fn folded(tm: &[f32], fold: Fold, c: usize) -> Vec<f32> {
        let (w, t, n) = (fold.window, fold.width(), fold.cols());
        let mut out = vec![0.0; c * n];
        for b in 0..fold.batches {
            for u in 0..t {
                for ch in 0..c {
                    out[ch * n + b * t + u] = tm[(b * w + fold.start + u) * c + ch];
                }
            }
        }
        out
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Attention products deeper than one 512-step depth slab — channels
    /// for the scores, window positions for the context — still match
    /// the tensor ops they replace bit for bit at the positions held.
    #[test]
    fn attention_matches_bmm_beyond_one_depth_slab() {
        for (b, w, c, start) in [(2, 5, 520, 2), (2, 520, 3, 515)] {
            let fold = Fold::full(b, w).from(start);
            let t = fold.width();
            let z_tm = Tensor::from_vec(values(b * w * c, 1), &[b, w, c]);
            let e_tm = Tensor::from_vec(values(b * w * c, 2), &[b, w, c]);
            let e = folded(e_tm.data(), Fold::full(b, w), c);

            let mut scores = vec![0.0; b * t * w];
            attention_scores_into(&folded(z_tm.data(), fold, c), &e, fold, c, &mut scores);
            let want = z_tm.bmm_nt(&e_tm);
            let want: Vec<f32> = (0..b)
                .flat_map(|bi| want.data()[(bi * w + start) * w..(bi + 1) * w * w].to_vec())
                .collect();
            assert_eq!(bits(&scores), bits(&want), "scores, w {w}, C {c}");

            let alpha_tm = Tensor::from_vec(values(b * w * w, 3), &[b, w, w]);
            let alpha: Vec<f32> = (0..b)
                .flat_map(|bi| alpha_tm.data()[(bi * w + start) * w..(bi + 1) * w * w].to_vec())
                .collect();
            let mut context = vec![0.0; c * fold.cols()];
            attention_context_into(&e, &alpha, fold, c, &mut context);
            let want = folded(alpha_tm.bmm(&e_tm).data(), fold, c);
            assert_eq!(bits(&context), bits(&want), "context, w {w}, C {c}");
        }
    }
}
