//! Reductions and axis statistics.
//!
//! The bandwidth-bound passes (global sums, axis folds, squared norms)
//! dispatch through [`crate::simd`] and run 8-wide on AVX2 hosts.

use crate::{scratch, simd, Tensor};

impl Tensor {
    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        simd::sum(self.data())
    }

    /// Arithmetic mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f32
        }
    }

    /// Maximum element (−∞ for an empty tensor).
    pub fn max(&self) -> f32 {
        simd::max(self.data())
    }

    /// Minimum element (+∞ for an empty tensor).
    pub fn min(&self) -> f32 {
        simd::min(self.data())
    }

    /// Mean squared difference against `other`: `mean((a - b)²)`.
    ///
    /// This is the autoencoder reconstruction objective (paper Eq. 1).
    pub fn mse(&self, other: &Tensor) -> f32 {
        assert_eq!(
            self.dims(),
            other.dims(),
            "mse: shape mismatch {} vs {}",
            self.shape(),
            other.shape()
        );
        if self.is_empty() {
            return 0.0;
        }
        simd::sq_diff_sum(self.data(), other.data()) / self.len() as f32
    }

    /// Sums a rank-3 `(B, M, N)` tensor over its first axis, producing `(M, N)`.
    pub fn sum_axis0(&self) -> Tensor {
        assert_eq!(self.rank(), 3, "sum_axis0 requires rank 3");
        let (b, m, n) = (self.dims()[0], self.dims()[1], self.dims()[2]);
        let mut out = scratch::take_zeroed(m * n);
        for bi in 0..b {
            simd::add_assign(&mut out, &self.data()[bi * m * n..(bi + 1) * m * n]);
        }
        Tensor::from_vec(out, &[m, n])
    }

    /// Sums every axis except the **last**: `(…, C) → (C,)`.
    ///
    /// This is the adjoint of [`Tensor::add_bias_last`], used for bias
    /// gradients of layers operating on `(B, L, C)` data.
    pub fn sum_keep_last(&self) -> Tensor {
        let c = *self.dims().last().expect("sum_keep_last on rank-0 tensor");
        let mut out = scratch::take_zeroed(c);
        if c > 0 {
            for row in self.data().chunks_exact(c) {
                simd::add_assign(&mut out, row);
            }
        }
        Tensor::from_vec(out, &[c])
    }

    /// Sums a rank-3 `(B, C, L)` tensor over batch and time: `→ (C,)`.
    ///
    /// This is the adjoint of [`Tensor::add_bias_channel`], used for bias
    /// gradients of convolution layers.
    pub fn sum_keep_channel(&self) -> Tensor {
        assert_eq!(self.rank(), 3, "sum_keep_channel requires rank 3");
        let (b, c, l) = (self.dims()[0], self.dims()[1], self.dims()[2]);
        let mut out = scratch::take_zeroed(c);
        for bi in 0..b {
            for (ci, o) in out.iter_mut().enumerate() {
                *o += simd::sum(&self.data()[(bi * c + ci) * l..(bi * c + ci + 1) * l]);
            }
        }
        Tensor::from_vec(out, &[c])
    }

    /// Per-row squared L2 norms of the last axis: `(…, C) → (rows,)` where
    /// `rows = len / C`.
    ///
    /// Used to turn per-observation reconstruction differences into outlier
    /// scores `‖x_t − x̂_t‖²` (paper Eq. 14).
    pub fn row_sq_norms(&self) -> Vec<f32> {
        let c = *self.dims().last().expect("row_sq_norms on rank-0 tensor");
        if c == 0 {
            return Vec::new();
        }
        self.data().chunks_exact(c).map(simd::sq_sum).collect()
    }
}

#[cfg(test)]
mod tests {
    use crate::{assert_close, Tensor};

    #[test]
    fn global_reductions() {
        let t = Tensor::from_vec(vec![1.0, -2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(t.sum(), 6.0);
        assert_eq!(t.mean(), 1.5);
        assert_eq!(t.max(), 4.0);
        assert_eq!(t.min(), -2.0);
    }

    #[test]
    fn mse_known_value() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        let b = Tensor::from_vec(vec![1.0, 0.0, 6.0], &[3]);
        // (0 + 4 + 9) / 3
        assert_close(&[a.mse(&b)], &[13.0 / 3.0], 1e-6);
        assert_eq!(a.mse(&a), 0.0);
    }

    #[test]
    fn sum_axis0_folds_batches() {
        let t = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[3, 2, 2]);
        let s = t.sum_axis0();
        assert_eq!(s.dims(), &[2, 2]);
        assert_eq!(s.data(), &[12.0, 15.0, 18.0, 21.0]);
    }

    #[test]
    fn sum_keep_last_is_bias_adjoint() {
        let t = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[2, 2, 3]);
        let s = t.sum_keep_last();
        assert_eq!(s.dims(), &[3]);
        assert_eq!(
            s.data(),
            &[
                0.0 + 3.0 + 6.0 + 9.0,
                1.0 + 4.0 + 7.0 + 10.0,
                2.0 + 5.0 + 8.0 + 11.0
            ]
        );
    }

    #[test]
    fn sum_keep_channel_is_channel_bias_adjoint() {
        let t = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[2, 2, 3]);
        let s = t.sum_keep_channel();
        assert_eq!(s.dims(), &[2]);
        // channel 0: rows [0,1,2] and [6,7,8]; channel 1: [3,4,5] and [9,10,11]
        assert_eq!(s.data(), &[24.0, 42.0]);
    }

    #[test]
    fn row_sq_norms_per_observation() {
        let t = Tensor::from_vec(vec![3.0, 4.0, 1.0, 0.0], &[2, 2]);
        assert_eq!(t.row_sq_norms(), vec![25.0, 1.0]);
    }

    #[test]
    fn empty_tensor_reductions() {
        let t = Tensor::zeros(&[0, 3]);
        assert_eq!(t.sum(), 0.0);
        assert_eq!(t.mean(), 0.0);
        assert!(t.row_sq_norms().is_empty());
    }
}
