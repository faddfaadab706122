//! Shape bookkeeping for row-major tensors.

use std::fmt;

/// The dimensions of a [`crate::Tensor`], stored outermost-first.
///
/// A `Shape` is a thin wrapper over a `Vec<usize>` adding the arithmetic
/// every kernel needs (element counts, flat row-major indexing).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Shape(Vec<usize>);

impl Shape {
    /// Creates a shape from dimension sizes.
    ///
    /// Zero-sized dimensions are permitted (the tensor is then empty).
    pub fn new(dims: &[usize]) -> Self {
        Shape(dims.to_vec())
    }

    /// The dimension sizes, outermost first.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Number of dimensions (the tensor's rank).
    #[inline]
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.iter().product()
    }

    /// Whether the shape contains zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Size of dimension `axis`. Panics if `axis >= rank`.
    #[inline]
    pub fn dim(&self, axis: usize) -> usize {
        self.0[axis]
    }

    /// Flat row-major offset of a multi-index. Panics on out-of-range indices.
    pub fn offset(&self, index: &[usize]) -> usize {
        assert_eq!(
            index.len(),
            self.rank(),
            "index rank {} does not match shape rank {}",
            index.len(),
            self.rank()
        );
        let mut off = 0usize;
        let mut stride = 1usize;
        for axis in (0..self.rank()).rev() {
            let i = index[axis];
            let d = self.0[axis];
            assert!(
                i < d,
                "index {i} out of range for axis {axis} with size {d}"
            );
            off += i * stride;
            stride *= d;
        }
        off
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shape{:?}", self.0)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.0)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape::new(&dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn len_is_product_of_dims() {
        assert_eq!(Shape::new(&[2, 3, 4]).len(), 24);
        assert_eq!(Shape::new(&[5]).len(), 5);
        assert_eq!(Shape::new(&[]).len(), 1); // rank-0 scalar
    }

    #[test]
    fn zero_dim_means_empty() {
        let s = Shape::new(&[2, 0, 4]);
        assert_eq!(s.len(), 0);
        assert!(s.is_empty());
    }

    #[test]
    fn offset_matches_strides() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.offset(&[0, 0, 0]), 0);
        assert_eq!(s.offset(&[1, 2, 3]), 12 + 8 + 3);
        assert_eq!(s.offset(&[0, 1, 1]), 5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn offset_panics_out_of_range() {
        Shape::new(&[2, 2]).offset(&[2, 0]);
    }

    #[test]
    #[should_panic(expected = "index rank")]
    fn offset_panics_on_rank_mismatch() {
        Shape::new(&[2, 2]).offset(&[0]);
    }
}
