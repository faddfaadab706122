//! Matrix multiplication kernels.
//!
//! Every variant dispatches at runtime (see [`crate::simd`]): on x86_64
//! with AVX2+FMA the contraction routes through the packed 6×16
//! register-tile GEMM core in [`crate::gemm`]; everywhere else (or under
//! the scalar override) it runs the portable register-blocked loops in
//! this file. The scalar 2-D kernel unrolls the `ikj` loop four deep
//! along `k`, so each pass over an output row folds in four rows of `B`
//! with four independent fused multiply-adds — branch-free, so the
//! compiler can autovectorize with the baseline instruction set.
//! Transposed variants use the same 4-way blocking; dot-product kernels
//! accumulate in four partial sums.
//!
//! Large 2-D products parallelize over output-row blocks and batched
//! kernels over batch elements, both through the persistent worker pool
//! (see [`crate::par`]). Output buffers come from the thread-local
//! scratch pool ([`crate::scratch`]).

#[cfg(target_arch = "x86_64")]
use crate::gemm;
use crate::Tensor;
use crate::{par, scratch};

impl Tensor {
    /// 2-D matrix product: `(M, K) · (K, N) → (M, N)`.
    ///
    /// Rows of the output are computed independently, so large products
    /// fan out over the worker pool in contiguous row blocks.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.rank(),
            2,
            "matmul lhs must be rank 2, got {}",
            self.rank()
        );
        assert_eq!(
            other.rank(),
            2,
            "matmul rhs must be rank 2, got {}",
            other.rank()
        );
        let (m, k) = (self.dims()[0], self.dims()[1]);
        let (k2, n) = (other.dims()[0], other.dims()[1]);
        assert_eq!(k, k2, "matmul inner dims differ: {k} vs {k2}");
        let mut out = scratch::take_full(m * n);
        crate::infer::matmul_into(self.data(), other.data(), &mut out, m, k, n);
        Tensor::from_vec(out, &[m, n])
    }

    /// 2-D product with the left operand transposed: `Aᵀ · B`, where
    /// `A: (K, M)`, `B: (K, N)`, producing `(M, N)`.
    ///
    /// Equivalent to `self.transpose().matmul(other)` without materializing
    /// the transpose.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 2, "matmul_tn lhs must be rank 2");
        assert_eq!(other.rank(), 2, "matmul_tn rhs must be rank 2");
        let (k, m) = (self.dims()[0], self.dims()[1]);
        let (k2, n) = (other.dims()[0], other.dims()[1]);
        assert_eq!(k, k2, "matmul_tn inner dims differ: {k} vs {k2}");
        let mut out = scratch::take_zeroed(m * n);
        #[cfg(target_arch = "x86_64")]
        if n > 0 && gemm::enabled(m * k * n) {
            gemm::matmul_tn(self.data(), other.data(), &mut out, k, m, n);
            return Tensor::from_vec(out, &[m, n]);
        }
        matmul_tn_into(self.data(), other.data(), &mut out, k, m, n);
        Tensor::from_vec(out, &[m, n])
    }

    /// 2-D product with the right operand transposed: `A · Bᵀ`, where
    /// `A: (M, K)`, `B: (N, K)`, producing `(M, N)`.
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 2, "matmul_nt lhs must be rank 2");
        assert_eq!(other.rank(), 2, "matmul_nt rhs must be rank 2");
        let (m, k) = (self.dims()[0], self.dims()[1]);
        let (n, k2) = (other.dims()[0], other.dims()[1]);
        assert_eq!(k, k2, "matmul_nt inner dims differ: {k} vs {k2}");
        let mut out = scratch::take_zeroed(m * n);
        if n > 0 {
            let lhs = self.data();
            let rhs = other.data();
            #[cfg(target_arch = "x86_64")]
            if gemm::enabled(m * k * n) {
                gemm::matmul_nt(lhs, rhs, &mut out, m, k, n);
                return Tensor::from_vec(out, &[m, n]);
            }
            par::for_each_chunk(&mut out, n, |i, orow| {
                let arow = &lhs[i * k..(i + 1) * k];
                for (j, o) in orow.iter_mut().enumerate() {
                    *o = dot(arow, &rhs[j * k..(j + 1) * k]);
                }
            });
        }
        Tensor::from_vec(out, &[m, n])
    }

    /// Batched 3-D matrix product: `(B, M, K) · (B, K, N) → (B, M, N)`.
    ///
    /// Batches are processed in parallel when the global parallelism level
    /// (see [`par::set_threads`]) is greater than one.
    pub fn bmm(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.rank(),
            3,
            "bmm lhs must be rank 3, got {}",
            self.rank()
        );
        assert_eq!(
            other.rank(),
            3,
            "bmm rhs must be rank 3, got {}",
            other.rank()
        );
        let (b, m, k) = (self.dims()[0], self.dims()[1], self.dims()[2]);
        let (b2, k2, n) = (other.dims()[0], other.dims()[1], other.dims()[2]);
        assert_eq!(b, b2, "bmm batch dims differ: {b} vs {b2}");
        assert_eq!(k, k2, "bmm inner dims differ: {k} vs {k2}");
        let mut out = scratch::take_zeroed(b * m * n);
        {
            let lhs = self.data();
            let rhs = other.data();
            #[cfg(target_arch = "x86_64")]
            if gemm::enabled(m * k * n) {
                par::for_each_chunk(&mut out, m * n, |bi, chunk| {
                    let a = &lhs[bi * m * k..(bi + 1) * m * k];
                    let bdat = &rhs[bi * k * n..(bi + 1) * k * n];
                    gemm::matmul_nn(a, bdat, chunk, m, k, n);
                });
                return Tensor::from_vec(out, &[b, m, n]);
            }
            par::for_each_chunk(&mut out, m * n, |bi, chunk| {
                let a = &lhs[bi * m * k..(bi + 1) * m * k];
                let bdat = &rhs[bi * k * n..(bi + 1) * k * n];
                matmul_into(a, bdat, chunk, m, k, n);
            });
        }
        Tensor::from_vec(out, &[b, m, n])
    }

    /// Batched product with the right operand transposed:
    /// `(B, M, K) · (B, N, K)ᵀ → (B, M, N)`.
    ///
    /// This is the attention-score kernel `Z · Eᵀ` (paper Eq. 7) without
    /// materializing the transpose.
    pub fn bmm_nt(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 3, "bmm_nt lhs must be rank 3");
        assert_eq!(other.rank(), 3, "bmm_nt rhs must be rank 3");
        let (b, m, k) = (self.dims()[0], self.dims()[1], self.dims()[2]);
        let (b2, n, k2) = (other.dims()[0], other.dims()[1], other.dims()[2]);
        assert_eq!(b, b2, "bmm_nt batch dims differ: {b} vs {b2}");
        assert_eq!(k, k2, "bmm_nt inner dims differ: {k} vs {k2}");
        let mut out = scratch::take_zeroed(b * m * n);
        {
            let lhs = self.data();
            let rhs = other.data();
            #[cfg(target_arch = "x86_64")]
            if gemm::enabled(m * k * n) {
                par::for_each_chunk(&mut out, m * n, |bi, chunk| {
                    let a = &lhs[bi * m * k..(bi + 1) * m * k];
                    let bdat = &rhs[bi * n * k..(bi + 1) * n * k];
                    gemm::matmul_nt(a, bdat, chunk, m, k, n);
                });
                return Tensor::from_vec(out, &[b, m, n]);
            }
            par::for_each_chunk(&mut out, m * n, |bi, chunk| {
                let a = &lhs[bi * m * k..(bi + 1) * m * k];
                let bdat = &rhs[bi * n * k..(bi + 1) * n * k];
                for i in 0..m {
                    let arow = &a[i * k..(i + 1) * k];
                    let orow = &mut chunk[i * n..(i + 1) * n];
                    for (j, o) in orow.iter_mut().enumerate() {
                        *o = dot(arow, &bdat[j * k..(j + 1) * k]);
                    }
                }
            });
        }
        Tensor::from_vec(out, &[b, m, n])
    }

    /// Batched product with the left operand transposed:
    /// `(B, K, M)ᵀ · (B, K, N) → (B, M, N)`.
    pub fn bmm_tn(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 3, "bmm_tn lhs must be rank 3");
        assert_eq!(other.rank(), 3, "bmm_tn rhs must be rank 3");
        let (b, k, m) = (self.dims()[0], self.dims()[1], self.dims()[2]);
        let (b2, k2, n) = (other.dims()[0], other.dims()[1], other.dims()[2]);
        assert_eq!(b, b2, "bmm_tn batch dims differ: {b} vs {b2}");
        assert_eq!(k, k2, "bmm_tn inner dims differ: {k} vs {k2}");
        let mut out = scratch::take_zeroed(b * m * n);
        {
            let lhs = self.data();
            let rhs = other.data();
            #[cfg(target_arch = "x86_64")]
            if gemm::enabled(m * k * n) {
                par::for_each_chunk(&mut out, m * n, |bi, chunk| {
                    let a = &lhs[bi * k * m..(bi + 1) * k * m];
                    let bdat = &rhs[bi * k * n..(bi + 1) * k * n];
                    gemm::matmul_tn(a, bdat, chunk, k, m, n);
                });
                return Tensor::from_vec(out, &[b, m, n]);
            }
            par::for_each_chunk(&mut out, m * n, |bi, chunk| {
                let a = &lhs[bi * k * m..(bi + 1) * k * m];
                let bdat = &rhs[bi * k * n..(bi + 1) * k * n];
                matmul_tn_into(a, bdat, chunk, k, m, n);
            });
        }
        Tensor::from_vec(out, &[b, m, n])
    }
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
    use crate::{assert_close, Tensor};

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

    #[test]
    fn matmul_blocked_matches_naive_reference() {
        // Inner dims straddling the 4-way unroll boundary (k = 3, 4, 5, 8, 9)
        // against a textbook triple loop.
        for &(m, k, n) in &[(3, 3, 2), (2, 4, 5), (4, 5, 3), (3, 8, 4), (5, 9, 7)] {
            let a = Tensor::from_vec(
                (0..m * k).map(|x| (x as f32 * 0.37).sin()).collect(),
                &[m, k],
            );
            let b = Tensor::from_vec(
                (0..k * n).map(|x| (x as f32 * 0.21).cos()).collect(),
                &[k, n],
            );
            let fast = a.matmul(&b);
            let mut naive = vec![0.0f32; m * n];
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0.0;
                    for p in 0..k {
                        acc += a.data()[i * k + p] * b.data()[p * n + j];
                    }
                    naive[i * n + j] = acc;
                }
            }
            assert_close(fast.data(), &naive, 1e-5);
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
