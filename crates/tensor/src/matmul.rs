//! Matrix multiplication kernels.
//!
//! The six [`Tensor`] products (`matmul`, `matmul_tn`, `matmul_nt` and the
//! batched `bmm`, `bmm_tn`, `bmm_nt`) and [`crate::infer::matmul_into`]
//! check their shapes and run one entry, [`product_into`]. It takes the
//! operand [`Layout`] and a batch count, makes the packed-or-scalar
//! decision once per op ([`gemm::enabled`](crate::gemm) on `m·k·n`, see
//! [`crate::simd`]) and runs the batches through one
//! [`par::for_each_chunk`]. Each matrix then takes one of two arms:
//!
//! * on x86_64 with AVX2+FMA, the packed 6×16 register-tile driver
//!   [`gemm::gemm`](crate::gemm) with that layout's operand views;
//! * everywhere else (or under the scalar override) the portable
//!   register-blocked loops in this file. `A·B` unrolls the `ikj` loop
//!   four deep along `k` per output row, so each pass folds in four rows
//!   of `B` with four independent fused multiply-adds — branch-free, so
//!   the compiler can autovectorize with the baseline instruction set.
//!   `Aᵀ·B` uses the same 4-way blocking over the whole matrix, and
//!   `A·Bᵀ` accumulates each element's dot product in four partial sums.
//!
//! Both arms write every output element, so outputs need no zeroing.
//! A single product parallelizes inside the arm (packed row blocks, or
//! output rows of scalar `A·B` and `A·Bᵀ`), several over batch elements;
//! both run on the persistent worker pool (see [`crate::par`]) and are
//! bit-exact across thread counts.
//! Output buffers come from the thread-local scratch pool
//! ([`crate::scratch`]).

#[cfg(target_arch = "x86_64")]
use crate::gemm;
use crate::Tensor;
use crate::{par, scratch};

/// Operand layout of a dense product.
#[derive(Clone, Copy)]
pub(crate) enum Layout {
    /// `A · B`, `A: (m, k)`, `B: (k, n)`.
    Nn,
    /// `Aᵀ · B`, `A: (k, m)`, `B: (k, n)`.
    Tn,
    /// `A · Bᵀ`, `A: (m, k)`, `B: (n, k)`.
    Nt,
}

impl Tensor {
    /// 2-D matrix product: `(M, K) · (K, N) → (M, N)`.
    ///
    /// Rows of the output are computed independently, so large products
    /// fan out over the worker pool in contiguous row blocks.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        product("matmul", Layout::Nn, 2, self, other)
    }

    /// 2-D product with the left operand transposed: `Aᵀ · B`, where
    /// `A: (K, M)`, `B: (K, N)`, producing `(M, N)`.
    ///
    /// Equivalent to `self.transpose().matmul(other)` without materializing
    /// the transpose.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        product("matmul_tn", Layout::Tn, 2, self, other)
    }

    /// 2-D product with the right operand transposed: `A · Bᵀ`, where
    /// `A: (M, K)`, `B: (N, K)`, producing `(M, N)`.
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        product("matmul_nt", Layout::Nt, 2, self, other)
    }

    /// Batched 3-D matrix product: `(B, M, K) · (B, K, N) → (B, M, N)`.
    ///
    /// Batches are processed in parallel when the global parallelism level
    /// (see [`par::set_threads`]) is greater than one.
    pub fn bmm(&self, other: &Tensor) -> Tensor {
        product("bmm", Layout::Nn, 3, self, other)
    }

    /// Batched product with the right operand transposed:
    /// `(B, M, K) · (B, N, K)ᵀ → (B, M, N)`.
    ///
    /// This is the attention-score kernel `Z · Eᵀ` (paper Eq. 7) without
    /// materializing the transpose.
    pub fn bmm_nt(&self, other: &Tensor) -> Tensor {
        product("bmm_nt", Layout::Nt, 3, self, other)
    }

    /// Batched product with the left operand transposed:
    /// `(B, K, M)ᵀ · (B, K, N) → (B, M, N)`.
    pub fn bmm_tn(&self, other: &Tensor) -> Tensor {
        product("bmm_tn", Layout::Tn, 3, self, other)
    }
}

/// The front door of the `Tensor` products: checks that both operands of
/// `name` have rank `rank` (2, or 3 with a leading batch dim of the same
/// size) and agree on the depth in `layout`, then runs [`product_into`]
/// into a scratch buffer.
fn product(name: &str, layout: Layout, rank: usize, lhs: &Tensor, rhs: &Tensor) -> Tensor {
    assert_eq!(
        lhs.rank(),
        rank,
        "{name} lhs must be rank {rank}, got {}",
        lhs.rank()
    );
    assert_eq!(
        rhs.rank(),
        rank,
        "{name} rhs must be rank {rank}, got {}",
        rhs.rank()
    );
    let batches = if rank == 3 {
        let (b, b2) = (lhs.dims()[0], rhs.dims()[0]);
        assert_eq!(b, b2, "{name} batch dims differ: {b} vs {b2}");
        b
    } else {
        1
    };
    let (a, b) = (&lhs.dims()[rank - 2..], &rhs.dims()[rank - 2..]);
    let (m, k, k2, n) = match layout {
        Layout::Nn => (a[0], a[1], b[0], b[1]),
        Layout::Tn => (a[1], a[0], b[0], b[1]),
        Layout::Nt => (a[0], a[1], b[1], b[0]),
    };
    assert_eq!(k, k2, "{name} inner dims differ: {k} vs {k2}");
    let mut out = scratch::take_full(batches * m * n);
    product_into(layout, batches, [m, k, n], lhs.data(), rhs.data(), &mut out);
    let dims = [batches, m, n];
    Tensor::from_vec(out, &dims[3 - rank..])
}

/// `out[bi] = op(A[bi]) · op(B[bi])` for `batches` products of
/// `(m × n)` over depth `k`, the operands stored as `layout` says and
/// concatenated over the batch. Every element of `out` is written, so it
/// needs no initialization; a zero-depth product is all zeros.
///
/// The packed-or-scalar decision is taken once, on `m·k·n`. A zero-depth
/// product has no madds, so it never clears the packed threshold and
/// takes the scalar arm, which zero-fills (the packed driver would write
/// nothing).
pub(crate) fn product_into(
    layout: Layout,
    batches: usize,
    [m, k, n]: [usize; 3],
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
) {
    let (a_len, b_len) = (m * k, k * n);
    debug_assert_eq!(a.len(), batches * a_len);
    debug_assert_eq!(b.len(), batches * b_len);
    debug_assert_eq!(out.len(), batches * m * n);
    #[cfg(target_arch = "x86_64")]
    let packed = gemm::enabled(m * k * n);
    par::for_each_chunk(out, m * n, |bi, c| {
        let (a, b) = (&a[bi * a_len..][..a_len], &b[bi * b_len..][..b_len]);
        #[cfg(target_arch = "x86_64")]
        if packed {
            // Every layout's views; the match picks the pair it reads.
            let (a_rows, a_cols) = (
                gemm::ARows { data: a, ld: k },
                gemm::ACols { data: a, ld: m },
            );
            let (b_rows, b_cols) = (
                gemm::BRows { data: b, ld: n },
                gemm::BColsT { data: b, ld: k },
            );
            match layout {
                Layout::Nn => gemm::gemm(m, n, k, &a_rows, &b_rows, c),
                Layout::Tn => gemm::gemm(m, n, k, &a_cols, &b_rows, c),
                Layout::Nt => gemm::gemm(m, n, k, &a_rows, &b_cols, c),
            }
            return;
        }
        // `A·B` and `A·Bᵀ` are row-parallel: each chunk is one output row.
        match layout {
            Layout::Nn => {
                c.fill(0.0);
                par::for_each_chunk(c, n, |i, row| {
                    matmul_into(&a[i * k..(i + 1) * k], b, row, 1, k, n);
                });
            }
            Layout::Tn => {
                c.fill(0.0);
                matmul_tn_into(a, b, c, k, m, n);
            }
            Layout::Nt => par::for_each_chunk(c, n, |i, row| {
                let arow = &a[i * k..(i + 1) * k];
                for (j, o) in row.iter_mut().enumerate() {
                    *o = dot(arow, &b[j * k..(j + 1) * k]);
                }
            }),
        }
    });
}

/// Dot product of two equal-length slices, accumulated in four partial
/// sums so the reduction carries four independent dependency chains.
#[inline]
pub(crate) fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let blocks = a.len() / 4 * 4;
    let (a4, a_rem) = a.split_at(blocks);
    let (b4, b_rem) = b.split_at(blocks);
    let mut acc = [0.0f32; 4];
    for (ca, cb) in a4.chunks_exact(4).zip(b4.chunks_exact(4)) {
        acc[0] += ca[0] * cb[0];
        acc[1] += ca[1] * cb[1];
        acc[2] += ca[2] * cb[2];
        acc[3] += ca[3] * cb[3];
    }
    let mut sum = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for (&x, &y) in a_rem.iter().zip(b_rem.iter()) {
        sum += x * y;
    }
    sum
}

/// `out += A · B` into a zeroed buffer, `A: (m, k)`, `B: (k, n)`.
///
/// Register-blocked `ikj`: the `k` loop is unrolled four deep, so one pass
/// over the output row folds in four rows of `B` with independent FMAs.
/// The inner loop is a branch-free zip over five equal-length slices —
/// bounds checks are elided and the loop vectorizes.
pub(crate) fn matmul_into(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        let mut p = 0;
        while p + 4 <= k {
            let (a0, a1, a2, a3) = (arow[p], arow[p + 1], arow[p + 2], arow[p + 3]);
            let b0 = &b[p * n..(p + 1) * n];
            let b1 = &b[(p + 1) * n..(p + 2) * n];
            let b2 = &b[(p + 2) * n..(p + 3) * n];
            let b3 = &b[(p + 3) * n..(p + 4) * n];
            for ((((o, &v0), &v1), &v2), &v3) in orow.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3) {
                *o += a0 * v0 + a1 * v1 + a2 * v2 + a3 * v3;
            }
            p += 4;
        }
        for pp in p..k {
            let av = arow[pp];
            let brow = &b[pp * n..(pp + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
}

/// `out += Aᵀ · B` into a zeroed buffer, `A: (k, m)`, `B: (k, n)`.
///
/// Same 4-way `k` blocking as [`matmul_into`], reading four rows of `A`
/// and `B` per pass.
pub(crate) fn matmul_tn_into(a: &[f32], b: &[f32], out: &mut [f32], k: usize, m: usize, n: usize) {
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    let mut p = 0;
    while p + 4 <= k {
        let a0 = &a[p * m..(p + 1) * m];
        let a1 = &a[(p + 1) * m..(p + 2) * m];
        let a2 = &a[(p + 2) * m..(p + 3) * m];
        let a3 = &a[(p + 3) * m..(p + 4) * m];
        let b0 = &b[p * n..(p + 1) * n];
        let b1 = &b[(p + 1) * n..(p + 2) * n];
        let b2 = &b[(p + 2) * n..(p + 3) * n];
        let b3 = &b[(p + 3) * n..(p + 4) * n];
        for i in 0..m {
            let (c0, c1, c2, c3) = (a0[i], a1[i], a2[i], a3[i]);
            let orow = &mut out[i * n..(i + 1) * n];
            for ((((o, &v0), &v1), &v2), &v3) in orow.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3) {
                *o += c0 * v0 + c1 * v1 + c2 * v2 + c3 * v3;
            }
        }
        p += 4;
    }
    for pp in p..k {
        let arow = &a[pp * m..(pp + 1) * m];
        let brow = &b[pp * n..(pp + 1) * n];
        for (i, &av) in arow.iter().enumerate() {
            let orow = &mut out[i * n..(i + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                *o += av * bv;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::Layout;
    use crate::{assert_close, scratch, Tensor};

    #[test]
    fn matmul_small_known_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[3, 4]);
        assert_eq!(a.matmul(&Tensor::eye(4)).data(), a.data());
        assert_eq!(Tensor::eye(3).matmul(&a).data(), a.data());
    }

    #[test]
    fn matmul_rectangular() {
        let a = Tensor::from_vec(vec![1.0, 0.0, 2.0, -1.0, 3.0, 1.0], &[2, 3]);
        let b = Tensor::from_vec(vec![3.0, 1.0, 2.0, 1.0, 1.0, 0.0], &[3, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.data(), &[5.0, 1.0, 4.0, 2.0]);
    }

    /// Every layout of [`super::product_into`], 2-D and batched (1 and 3
    /// matrices), against a textbook triple loop. The depths 0, 3, 4, 5,
    /// 8 and 9 straddle the 4-way unroll and stay below the packed
    /// threshold, so the scalar arm runs on every host; the last shape
    /// takes the packed arm where AVX2+FMA is present. Every output
    /// buffer comes out of the scratch pool holding earlier values, so a
    /// zero-depth product must still read all zeros.
    #[test]
    fn matmul_blocked_matches_naive_reference() {
        let shapes = [
            (3, 0, 2),
            (3, 3, 2),
            (2, 4, 5),
            (4, 5, 3),
            (3, 8, 4),
            (5, 9, 7),
            (7, 40, 19),
        ];
        for &(m, k, n) in &shapes {
            for (name, layout) in [("nn", Layout::Nn), ("tn", Layout::Tn), ("nt", Layout::Nt)] {
                for batches in [None, Some(1), Some(3)] {
                    let bs = batches.unwrap_or(1);
                    let lhs: Vec<f32> = (0..bs * m * k).map(|x| (x as f32 * 0.37).sin()).collect();
                    let rhs: Vec<f32> = (0..bs * k * n).map(|x| (x as f32 * 0.21).cos()).collect();
                    // Element (i, p) of A and (p, j) of B in `layout`.
                    let at = |bi: usize, i: usize, p: usize| match layout {
                        Layout::Tn => lhs[bi * m * k + p * m + i],
                        _ => lhs[bi * m * k + i * k + p],
                    };
                    let bt = |bi: usize, p: usize, j: usize| match layout {
                        Layout::Nt => rhs[bi * k * n + j * k + p],
                        _ => rhs[bi * k * n + p * n + j],
                    };
                    let mut naive = vec![0.0f32; bs * m * n];
                    for bi in 0..bs {
                        for i in 0..m {
                            for j in 0..n {
                                naive[(bi * m + i) * n + j] =
                                    (0..k).map(|p| at(bi, i, p) * bt(bi, p, j)).sum();
                            }
                        }
                    }
                    let (da, db) = match layout {
                        Layout::Nn => ([m, k], [k, n]),
                        Layout::Tn => ([k, m], [k, n]),
                        Layout::Nt => ([m, k], [n, k]),
                    };
                    let (a, b) = match batches {
                        None => (
                            Tensor::from_vec(lhs.clone(), &da),
                            Tensor::from_vec(rhs.clone(), &db),
                        ),
                        Some(bs) => (
                            Tensor::from_vec(lhs.clone(), &[bs, da[0], da[1]]),
                            Tensor::from_vec(rhs.clone(), &[bs, db[0], db[1]]),
                        ),
                    };
                    scratch::recycle(vec![3.5; bs * m * n]);
                    let fast = match (layout, batches) {
                        (Layout::Nn, None) => a.matmul(&b),
                        (Layout::Tn, None) => a.matmul_tn(&b),
                        (Layout::Nt, None) => a.matmul_nt(&b),
                        (Layout::Nn, Some(_)) => a.bmm(&b),
                        (Layout::Tn, Some(_)) => a.bmm_tn(&b),
                        (Layout::Nt, Some(_)) => a.bmm_nt(&b),
                    };
                    assert_eq!(
                        fast.len(),
                        naive.len(),
                        "{name} {batches:?} ({m}, {k}, {n})"
                    );
                    assert_close(fast.data(), &naive, 1e-4);
                    if let (Layout::Nn, None) = (layout, batches) {
                        scratch::recycle(vec![3.5; m * n]);
                        let mut out = scratch::take_full(m * n);
                        crate::infer::matmul_into(&lhs, &rhs, &mut out, m, k, n);
                        assert_eq!(out, fast.data(), "matmul_into ({m}, {k}, {n})");
                    }
                }
            }
        }
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = Tensor::from_vec((0..6).map(|x| x as f32 - 2.0).collect(), &[3, 2]);
        let b = Tensor::from_vec((0..12).map(|x| x as f32 * 0.5).collect(), &[3, 4]);
        let via_t = a.transpose().matmul(&b);
        let direct = a.matmul_tn(&b);
        assert_close(direct.data(), via_t.data(), 1e-6);
    }

    #[test]
    fn matmul_tn_blocked_k_above_unroll() {
        // k = 6 exercises both the 4-way block and the remainder rows.
        let a = Tensor::from_vec((0..18).map(|x| (x as f32).sin()).collect(), &[6, 3]);
        let b = Tensor::from_vec((0..24).map(|x| (x as f32).cos()).collect(), &[6, 4]);
        let via_t = a.transpose().matmul(&b);
        let direct = a.matmul_tn(&b);
        assert_close(direct.data(), via_t.data(), 1e-5);
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]);
        let b = Tensor::from_vec((0..12).map(|x| (x as f32).sin()).collect(), &[4, 3]);
        let via_t = a.matmul(&b.transpose());
        let direct = a.matmul_nt(&b);
        assert_close(direct.data(), via_t.data(), 1e-6);
    }

    #[test]
    fn bmm_matches_per_batch_matmul() {
        let a = Tensor::from_vec((0..24).map(|x| x as f32 * 0.1).collect(), &[2, 3, 4]);
        let b = Tensor::from_vec(
            (0..40).map(|x| (x as f32 * 0.2).cos()).collect(),
            &[2, 4, 5],
        );
        let c = a.bmm(&b);
        assert_eq!(c.dims(), &[2, 3, 5]);
        for bi in 0..2 {
            let a2 = Tensor::from_vec(a.data()[bi * 12..(bi + 1) * 12].to_vec(), &[3, 4]);
            let b2 = Tensor::from_vec(b.data()[bi * 20..(bi + 1) * 20].to_vec(), &[4, 5]);
            let expect = a2.matmul(&b2);
            assert_close(&c.data()[bi * 15..(bi + 1) * 15], expect.data(), 1e-5);
        }
    }

    #[test]
    fn bmm_nt_matches_transpose_composition() {
        let a = Tensor::from_vec((0..24).map(|x| x as f32 * 0.3).collect(), &[2, 3, 4]);
        let b = Tensor::from_vec((0..40).map(|x| x as f32 * -0.1).collect(), &[2, 5, 4]);
        let direct = a.bmm_nt(&b);
        let via_t = a.bmm(&b.transpose12());
        assert_close(direct.data(), via_t.data(), 1e-5);
    }

    #[test]
    fn bmm_tn_matches_transpose_composition() {
        let a = Tensor::from_vec((0..24).map(|x| x as f32 * 0.3 - 1.0).collect(), &[2, 4, 3]);
        let b = Tensor::from_vec((0..40).map(|x| x as f32 * 0.05).collect(), &[2, 4, 5]);
        let direct = a.bmm_tn(&b);
        let via_t = a.transpose12().bmm(&b);
        assert_close(direct.data(), via_t.data(), 1e-5);
    }

    #[test]
    #[should_panic(expected = "inner dims differ")]
    fn matmul_panics_on_dim_mismatch() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        a.matmul(&b);
    }
}
