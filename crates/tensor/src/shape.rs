//! Shape bookkeeping for row-major tensors.

use std::fmt;

/// The dimensions of a [`crate::Tensor`], stored outermost-first.
///
/// A `Shape` holds up to [`Shape::MAX_RANK`] dimensions inline, so
/// building a tensor never allocates for its dims, and adds the
/// arithmetic every kernel needs (element counts, flat row-major
/// indexing). The slots past the rank are always zero, so the derived
/// `Eq` and `Hash` see only the dimensions.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: [usize; Shape::MAX_RANK],
    rank: usize,
}

impl Shape {
    /// The highest rank a tensor may have. Every tensor the workspace
    /// builds fits; a checkpoint that names a higher rank is rejected as
    /// corrupt before it reaches [`Shape::new`].
    pub const MAX_RANK: usize = 4;

    /// Creates a shape from dimension sizes.
    ///
    /// Zero-sized dimensions are permitted (the tensor is then empty).
    /// Panics if there are more than [`Shape::MAX_RANK`] dimensions.
    pub fn new(dims: &[usize]) -> Self {
        assert!(
            dims.len() <= Self::MAX_RANK,
            "rank {} exceeds the maximum tensor rank {} (dims {dims:?})",
            dims.len(),
            Self::MAX_RANK
        );
        let mut inline = [0; Self::MAX_RANK];
        inline[..dims.len()].copy_from_slice(dims);
        Shape {
            dims: inline,
            rank: dims.len(),
        }
    }

    /// The dimension sizes, outermost first.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        &self.dims[..self.rank]
    }

    /// Number of dimensions (the tensor's rank).
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.dims().iter().product()
    }

    /// Whether the shape contains zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
            let d = self.dims[axis];
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
        write!(f, "Shape{:?}", self.dims())
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.dims())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;

    #[test]
    fn len_is_product_of_dims() {
        assert_eq!(Shape::new(&[2, 3, 4]).len(), 24);
        assert_eq!(Shape::new(&[5]).len(), 5);
        assert_eq!(Shape::new(&[]).len(), 1); // rank-0 scalar
        assert_eq!(Shape::new(&[2, 3, 4, 5]).len(), 120); // MAX_RANK
    }

    #[test]
    #[should_panic(expected = "rank 5 exceeds the maximum tensor rank 4")]
    fn rank_above_max_panics() {
        Shape::new(&[1, 2, 3, 4, 5]);
    }

    #[test]
    fn equal_dims_are_equal_shapes_however_built() {
        use std::hash::{BuildHasher, RandomState};
        let h = RandomState::new();
        // Cut from wider dims, or taken from a tensor: the unused inline
        // slots must not leak into `Eq` or `Hash`.
        let (a, b) = (
            Shape::new(&[7, 3, 9, 9][..2]),
            *Tensor::zeros(&[7, 3]).shape(),
        );
        assert!(a == b && h.hash_one(a) == h.hash_one(b));
        assert_ne!(Shape::new(&[7, 3]), Shape::new(&[7, 3, 0]));
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
        let s4 = Shape::new(&[2, 3, 4, 5]);
        assert_eq!(s4.offset(&[1, 2, 3, 4]), 60 + 40 + 15 + 4);
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
