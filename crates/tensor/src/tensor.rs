//! The core dense tensor type and its elementwise operations.

use crate::{scratch, simd, Shape};
use std::fmt;

/// A dense, row-major, contiguous tensor of `f32` values.
///
/// `Tensor` is the single array type used across the whole reproduction.
/// All kernels allocate fresh output tensors — drawn from the thread-local
/// [`scratch`] buffer pool so hot loops stop hammering the allocator —
/// and in-place variants are suffixed with `_inplace`. Buffers return to
/// the pool via [`Tensor::recycle`] (the autograd tape does this for every
/// node it drops).
#[derive(PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        // Clone through the scratch pool: tensor clones are hot in the
        // training loop (parameter injection, gradient fan-out).
        Tensor {
            shape: self.shape,
            data: scratch::take_copied(&self.data),
        }
    }
}

impl Tensor {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// Builds a tensor from a flat row-major buffer and a shape.
    ///
    /// Panics if `data.len()` does not equal the shape's element count.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        assert_eq!(
            data.len(),
            shape.len(),
            "data length {} does not match shape {} ({} elements)",
            data.len(),
            shape,
            shape.len()
        );
        Tensor { shape, data }
    }

    /// A tensor filled with zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        Tensor::full(dims, 0.0)
    }

    /// A zero tensor whose storage is drawn from the thread-local
    /// [`scratch`] pool. Prefer this in hot loops; pair with
    /// [`Tensor::recycle`] to keep the pool primed.
    pub fn zeros_pooled(dims: &[usize]) -> Self {
        Tensor::full_pooled(dims, 0.0)
    }

    /// A constant tensor whose storage is drawn from the thread-local
    /// [`scratch`] pool.
    pub fn full_pooled(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        let len = shape.len();
        let mut data = scratch::take(len);
        data.resize(len, value);
        Tensor { shape, data }
    }

    /// Builds a tensor by draining `iter` into a pooled buffer.
    ///
    /// Panics if the iterator does not yield exactly the shape's element
    /// count.
    pub fn from_iter_pooled(dims: &[usize], iter: impl IntoIterator<Item = f32>) -> Self {
        let shape = Shape::new(dims);
        let mut data = scratch::take(shape.len());
        data.extend(iter);
        assert_eq!(
            data.len(),
            shape.len(),
            "iterator yielded {} elements for shape {} ({} elements)",
            data.len(),
            shape,
            shape.len()
        );
        Tensor { shape, data }
    }

    /// Consumes the tensor, returning its buffer to the thread-local
    /// [`scratch`] pool so the next allocation can reuse it.
    pub fn recycle(self) {
        scratch::recycle(self.data);
    }

    /// A tensor filled with ones.
    pub fn ones(dims: &[usize]) -> Self {
        Tensor::full(dims, 1.0)
    }

    /// A tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        let len = shape.len();
        Tensor {
            shape,
            data: vec![value; len],
        }
    }

    /// The `n × n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// A rank-0 scalar tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            shape: Shape::new(&[]),
            data: vec![value],
        }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The tensor's shape.
    #[inline]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Dimension sizes, outermost first.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Rank (number of dimensions).
    #[inline]
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The flat row-major data buffer.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the flat buffer.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its flat buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at a multi-index. Panics on out-of-range indices.
    #[inline]
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.shape.offset(index)]
    }

    /// Sets the element at a multi-index. Panics on out-of-range indices.
    #[inline]
    pub fn set(&mut self, index: &[usize], value: f32) {
        let off = self.shape.offset(index);
        self.data[off] = value;
    }

    /// The single value of a rank-0 or single-element tensor.
    ///
    /// Panics if the tensor holds more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(
            self.len(),
            1,
            "item() on tensor with {} elements",
            self.len()
        );
        self.data[0]
    }

    // ------------------------------------------------------------------
    // Shape manipulation
    // ------------------------------------------------------------------

    /// Reinterprets the tensor with a new shape of equal element count.
    pub fn reshape(&self, dims: &[usize]) -> Tensor {
        let shape = Shape::new(dims);
        assert_eq!(
            shape.len(),
            self.len(),
            "cannot reshape {} elements into shape {}",
            self.len(),
            shape
        );
        Tensor {
            shape,
            data: scratch::take_copied(&self.data),
        }
    }

    /// Transposes a rank-2 tensor.
    pub fn transpose(&self) -> Tensor {
        assert_eq!(
            self.rank(),
            2,
            "transpose() requires rank 2, got {}",
            self.rank()
        );
        let (m, n) = (self.dims()[0], self.dims()[1]);
        let mut out = scratch::take_zeroed(m * n);
        for i in 0..m {
            let row = &self.data[i * n..(i + 1) * n];
            for (j, &v) in row.iter().enumerate() {
                out[j * m + i] = v;
            }
        }
        Tensor::from_vec(out, &[n, m])
    }

    /// Swaps the last two axes of a rank-3 tensor: `(B, M, N) → (B, N, M)`.
    pub fn transpose12(&self) -> Tensor {
        assert_eq!(
            self.rank(),
            3,
            "transpose12() requires rank 3, got {}",
            self.rank()
        );
        let (b, m, n) = (self.dims()[0], self.dims()[1], self.dims()[2]);
        // Every element is written below.
        let mut out = scratch::take_full(b * m * n);
        for bi in 0..b {
            let src = &self.data[bi * m * n..(bi + 1) * m * n];
            let dst = &mut out[bi * m * n..(bi + 1) * m * n];
            for i in 0..m {
                let row = &src[i * n..(i + 1) * n];
                for (j, &v) in row.iter().enumerate() {
                    dst[j * m + i] = v;
                }
            }
        }
        Tensor::from_vec(out, &[b, n, m])
    }

    // ------------------------------------------------------------------
    // Elementwise arithmetic
    // ------------------------------------------------------------------

    fn zip_with(&self, other: &Tensor, op: impl Fn(f32, f32) -> f32, name: &str) -> Tensor {
        assert_eq!(
            self.dims(),
            other.dims(),
            "{name}: shape mismatch {} vs {}",
            self.shape,
            other.shape
        );
        let mut data = scratch::take(self.data.len());
        data.extend(
            self.data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| op(a, b)),
        );
        Tensor {
            shape: self.shape,
            data,
        }
    }

    /// Elementwise sum. Shapes must match exactly.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a + b, "add")
    }

    /// Elementwise difference. Shapes must match exactly.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a - b, "sub")
    }

    /// Elementwise (Hadamard) product. Shapes must match exactly.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a * b, "mul")
    }

    /// Adds `other` into `self` in place. Shapes must match exactly.
    pub fn add_inplace(&mut self, other: &Tensor) {
        assert_eq!(
            self.dims(),
            other.dims(),
            "add_inplace: shape mismatch {} vs {}",
            self.shape,
            other.shape
        );
        simd::add_assign(&mut self.data, &other.data);
    }

    /// Multiplies every element by `value`, in place.
    pub fn scale_inplace(&mut self, value: f32) {
        simd::scale_in_place(&mut self.data, value);
    }

    /// Sets every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// A new tensor with every element multiplied by `value`.
    pub fn scale(&self, value: f32) -> Tensor {
        self.map(|a| a * value)
    }

    /// A new tensor with `value` added to every element.
    pub fn add_scalar(&self, value: f32) -> Tensor {
        self.map(|a| a + value)
    }

    /// Elementwise negation.
    pub fn neg(&self) -> Tensor {
        self.map(|a| -a)
    }

    /// Applies `f` to every element, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let mut data = scratch::take(self.data.len());
        data.extend(self.data.iter().map(|&a| f(a)));
        Tensor {
            shape: self.shape,
            data,
        }
    }

    /// Elementwise square.
    pub fn square(&self) -> Tensor {
        self.map(|a| a * a)
    }

    /// Elementwise square root.
    pub fn sqrt(&self) -> Tensor {
        self.map(f32::sqrt)
    }

    /// Elementwise absolute value.
    pub fn abs(&self) -> Tensor {
        self.map(f32::abs)
    }

    /// Elementwise natural exponential.
    pub fn exp(&self) -> Tensor {
        self.map(f32::exp)
    }

    /// Elementwise natural logarithm.
    pub fn ln(&self) -> Tensor {
        self.map(f32::ln)
    }

    // ------------------------------------------------------------------
    // Per-channel (bias) broadcasts used by the network layers
    // ------------------------------------------------------------------

    /// Adds a length-`C` bias to a `(…, C)` tensor along its **last** axis.
    pub fn add_bias_last(&self, bias: &Tensor) -> Tensor {
        assert_eq!(bias.rank(), 1, "bias must be rank 1");
        let c = bias.len();
        let last = *self.dims().last().expect("add_bias_last on rank-0 tensor");
        assert_eq!(last, c, "bias length {c} does not match last dim {last}");
        let mut out = self.clone();
        for row in out.data.chunks_exact_mut(c) {
            for (x, &b) in row.iter_mut().zip(bias.data.iter()) {
                *x += b;
            }
        }
        out
    }

    /// Adds a length-`C` bias to a `(B, C, L)` tensor along its **middle** axis.
    pub fn add_bias_channel(&self, bias: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 3, "add_bias_channel requires rank 3");
        assert_eq!(bias.rank(), 1, "bias must be rank 1");
        let (b, c, l) = (self.dims()[0], self.dims()[1], self.dims()[2]);
        assert_eq!(
            bias.len(),
            c,
            "bias length {} does not match channels {c}",
            bias.len()
        );
        let mut out = self.clone();
        for bi in 0..b {
            for ci in 0..c {
                let bv = bias.data[ci];
                let start = (bi * c + ci) * l;
                for x in &mut out.data[start..start + l] {
                    *x += bv;
                }
            }
        }
        out
    }

    // ------------------------------------------------------------------
    // Norms
    // ------------------------------------------------------------------

    /// Sum of squared elements (squared Frobenius norm).
    pub fn sq_norm(&self) -> f32 {
        simd::sq_sum(&self.data)
    }

    /// Euclidean (Frobenius) norm.
    pub fn norm(&self) -> f32 {
        self.sq_norm().sqrt()
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const PREVIEW: usize = 8;
        write!(f, "Tensor({}, [", self.shape)?;
        for (i, v) in self.data.iter().take(PREVIEW).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:.4}")?;
        }
        if self.len() > PREVIEW {
            write!(f, ", …")?;
        }
        write!(f, "])")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_close;

    #[test]
    fn from_vec_checks_len() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(t.dims(), &[2, 3]);
        assert_eq!(t.at(&[1, 2]), 6.0);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_panics_on_len_mismatch() {
        Tensor::from_vec(vec![1.0], &[2, 3]);
    }

    #[test]
    fn eye_is_identity() {
        let i = Tensor::eye(3);
        assert_eq!(i.at(&[0, 0]), 1.0);
        assert_eq!(i.at(&[1, 2]), 0.0);
        assert_eq!(i.data().iter().sum::<f32>(), 3.0);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        let b = Tensor::from_vec(vec![4.0, 5.0, 6.0], &[3]);
        assert_eq!(a.add(&b).data(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).data(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).data(), &[4.0, 10.0, 18.0]);
        assert_eq!(a.neg().data(), &[-1.0, -2.0, -3.0]);
    }

    #[test]
    fn inplace_ops() {
        let mut a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![10.0, 20.0], &[2]);
        a.add_inplace(&b);
        assert_eq!(a.data(), &[11.0, 22.0]);
        a.scale_inplace(2.0);
        assert_eq!(a.data(), &[22.0, 44.0]);
        a.fill_zero();
        assert_eq!(a.data(), &[0.0, 0.0]);
    }

    #[test]
    fn transpose_rank2() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let t = a.transpose();
        assert_eq!(t.dims(), &[3, 2]);
        assert_eq!(t.data(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
    }

    #[test]
    fn transpose12_swaps_inner_axes() {
        let a = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[2, 2, 3]);
        let t = a.transpose12();
        assert_eq!(t.dims(), &[2, 3, 2]);
        for b in 0..2 {
            for i in 0..2 {
                for j in 0..3 {
                    assert_eq!(a.at(&[b, i, j]), t.at(&[b, j, i]));
                }
            }
        }
    }

    #[test]
    fn transpose_is_involution() {
        let a = Tensor::from_vec((0..6).map(|x| x as f32 * 0.5).collect(), &[2, 3]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn bias_broadcasts() {
        let x = Tensor::from_vec(vec![0.0; 12], &[2, 2, 3]);
        let bias_last = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        let y = x.add_bias_last(&bias_last);
        assert_eq!(&y.data()[0..3], &[1.0, 2.0, 3.0]);
        assert_eq!(&y.data()[9..12], &[1.0, 2.0, 3.0]);

        let bias_mid = Tensor::from_vec(vec![10.0, 20.0], &[2]);
        let z = x.add_bias_channel(&bias_mid);
        assert_eq!(&z.data()[0..3], &[10.0, 10.0, 10.0]);
        assert_eq!(&z.data()[3..6], &[20.0, 20.0, 20.0]);
    }

    #[test]
    fn norms() {
        let a = Tensor::from_vec(vec![3.0, 4.0], &[2]);
        assert_close(&[a.sq_norm()], &[25.0], 1e-6);
        assert_close(&[a.norm()], &[5.0], 1e-6);
    }

    #[test]
    fn reshape_roundtrip() {
        let flat = Tensor::from_vec((0..6).map(|i| i as f32).collect(), &[6]);
        let a = flat.reshape(&[2, 3]);
        assert_eq!(a.at(&[1, 0]), 3.0);
        let b = a.reshape(&[6]);
        assert_eq!(b, flat);
    }

    #[test]
    fn map_applies_function() {
        let a = Tensor::from_vec(vec![1.0, 4.0, 9.0], &[3]);
        assert_eq!(a.sqrt().data(), &[1.0, 2.0, 3.0]);
        assert_eq!(a.square().data(), &[1.0, 16.0, 81.0]);
        assert_eq!(a.neg().abs().data(), a.data());
    }
}
