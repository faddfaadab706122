//! Non-linear activation functions and their gradients.
//!
//! All activations are elementwise except [`Tensor::softmax_last`], which
//! normalizes over the last axis (used by the attention scores, Eq. 7 of the
//! paper). Forward and backward kernels dispatch through [`crate::simd`]:
//! 8-lane AVX2 loops (with a polynomial `exp` for the sigmoid family and
//! the softmax) when available, the scalar loops otherwise.

use crate::{scratch, simd, Tensor};

/// Builds the output tensor for a `dst/src` style dispatched kernel,
/// which overwrites every element (so the buffer is not zeroed first).
fn unary(x: &Tensor, f: impl FnOnce(&mut [f32], &[f32])) -> Tensor {
    let mut out = scratch::take_full(x.len());
    f(&mut out, x.data());
    Tensor::from_vec(out, x.dims())
}

impl Tensor {
    /// Elementwise logistic sigmoid `1 / (1 + e^{-x})`.
    pub fn sigmoid(&self) -> Tensor {
        unary(self, simd::sigmoid)
    }

    /// Elementwise hyperbolic tangent.
    pub fn tanh(&self) -> Tensor {
        unary(self, simd::tanh)
    }

    /// Elementwise rectified linear unit `max(0, x)`.
    pub fn relu(&self) -> Tensor {
        unary(self, simd::relu)
    }

    /// Backward of [`Tensor::sigmoid`] from its **output** `y` and the
    /// upstream gradient `g`: `g · y · (1 − y)`.
    pub fn sigmoid_grad_from_output(y: &Tensor, g: &Tensor) -> Tensor {
        assert_eq!(y.dims(), g.dims(), "sigmoid grad shape mismatch");
        let mut out = scratch::take_zeroed(y.len());
        simd::sigmoid_grad(&mut out, y.data(), g.data());
        Tensor::from_vec(out, y.dims())
    }

    /// Backward of [`Tensor::tanh`] from its output: `g · (1 − y²)`.
    pub fn tanh_grad_from_output(y: &Tensor, g: &Tensor) -> Tensor {
        assert_eq!(y.dims(), g.dims(), "tanh grad shape mismatch");
        let mut out = scratch::take_zeroed(y.len());
        simd::tanh_grad(&mut out, y.data(), g.data());
        Tensor::from_vec(out, y.dims())
    }

    /// Backward of [`Tensor::relu`] from its output: `y > 0 ? g : 0`.
    pub fn relu_grad_from_output(y: &Tensor, g: &Tensor) -> Tensor {
        assert_eq!(y.dims(), g.dims(), "relu grad shape mismatch");
        let mut out = scratch::take_zeroed(y.len());
        simd::relu_grad(&mut out, y.data(), g.data());
        Tensor::from_vec(out, y.dims())
    }

    /// Softmax over the **last** axis, numerically stabilized by
    /// subtracting each row's maximum before exponentiation.
    ///
    /// Every length-`N` row of the output sums to 1. The max, exp, sum,
    /// and normalize passes all run 8-wide on AVX2.
    pub fn softmax_last(&self) -> Tensor {
        let n = *self.dims().last().expect("softmax_last on rank-0 tensor");
        assert!(n > 0, "softmax_last over empty axis");
        let mut out = self.clone();
        for row in out.data_mut().chunks_exact_mut(n) {
            simd::softmax_row(row);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::{assert_close, Tensor};

    #[test]
    fn sigmoid_known_values() {
        let x = Tensor::from_vec(vec![0.0, 100.0, -100.0], &[3]);
        let y = x.sigmoid();
        assert_close(y.data(), &[0.5, 1.0, 0.0], 1e-6);
    }

    #[test]
    fn sigmoid_is_stable_for_large_inputs() {
        let x = Tensor::from_vec(vec![1e4, -1e4], &[2]);
        let y = x.sigmoid();
        assert!(y.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn tanh_and_relu() {
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0], &[3]);
        assert_close(
            x.tanh().data(),
            &[(-1.0f32).tanh(), 0.0, 2.0f32.tanh()],
            1e-6,
        );
        assert_eq!(x.relu().data(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]);
        let y = x.softmax_last();
        for row in y.data().chunks_exact(3) {
            let s: f32 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-6, "row sums to {s}");
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]);
        let y = x.softmax_last();
        let z = x.add_scalar(100.0).softmax_last();
        assert_close(y.data(), z.data(), 1e-6);
    }

    #[test]
    fn softmax_handles_extreme_values() {
        let x = Tensor::from_vec(vec![1000.0, 0.0, -1000.0], &[1, 3]);
        let y = x.softmax_last();
        assert!(y.data().iter().all(|v| v.is_finite()));
        assert_close(&[y.data()[0]], &[1.0], 1e-5);
    }

    #[test]
    fn softmax_uniform_input_gives_uniform_output() {
        let x = Tensor::full(&[2, 4], 3.7);
        let y = x.softmax_last();
        assert_close(y.data(), &[0.25; 8], 1e-6);
    }
}
