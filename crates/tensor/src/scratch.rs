//! Thread-local scratch-buffer pool for tensor storage reuse.
//!
//! The training loop allocates and frees hundreds of intermediate tensors
//! per batch (forward activations, gradients, optimizer temporaries). With
//! a plain `Vec` per tensor that is hundreds of allocator round-trips per
//! step. This module keeps a small per-thread free list of `Vec<f32>`
//! buffers: [`take`] hands out a recycled buffer when one with enough
//! capacity is available, and [`recycle`] returns a buffer to the pool
//! instead of freeing it.
//!
//! Recycling is wired into the autograd tape (`Tape::clear`/`Drop` recycle
//! every node) and [`Tensor::recycle`](crate::Tensor::recycle), so a steady
//! training loop takes most of its buffers out of the pool. A tape larger
//! than [`MAX_POOLED_BUFFERS`] still allocates the rest on every step: a
//! D′ = 24 training step at D = 38, B = 32 was counted at about 80
//! allocations of at least 16 KiB.
//!
//! The pool is thread-local: no locks, and kernels running on pool workers
//! recycle into their own lists. Buffers above [`MAX_POOLED_LEN`] elements,
//! lists beyond [`MAX_POOLED_BUFFERS`] entries, and anything that would
//! push a thread's retained total past [`MAX_POOLED_BYTES`] are released
//! to the allocator, so per-thread footprint stays hard-bounded even on
//! long-lived pool workers.

use std::cell::RefCell;

/// Maximum buffers kept per thread.
///
/// A thread that both scores and trains (a serving thread that re-fits,
/// or the batch scorer's caller) keeps two working sets here: the
/// tape's, and the inference forward's, whose sizes vary with the batch
/// and with each pruned stage's width. Once the list is full, every
/// further recycle frees its buffer and the next take allocates anew, so
/// a list too short for both sets turns a training loop into
/// allocator churn that fragments the heap.
pub const MAX_POOLED_BUFFERS: usize = 128;

/// Maximum capacity (elements) of a pooled buffer — 4 Mi elements, 16 MiB.
pub const MAX_POOLED_LEN: usize = 1 << 22;

/// Maximum total bytes retained per thread (64 MiB). Worker threads live
/// for the whole process, so the per-thread bound is the process bound
/// times the thread count.
pub const MAX_POOLED_BYTES: usize = 64 << 20;

#[derive(Default)]
struct ScratchPool {
    bufs: Vec<Vec<f32>>,
    /// Total capacity bytes currently retained in `bufs`.
    bytes: usize,
}

thread_local! {
    static POOL: RefCell<ScratchPool> = RefCell::new(ScratchPool::default());
}

impl ScratchPool {
    /// Removes and returns the smallest pooled buffer with capacity at
    /// least `len` (smallest-fit keeps big buffers available for big
    /// requests), updating the retained-bytes accounting. The buffer's
    /// length is whatever its previous user left.
    fn pop_best_fit(&mut self, len: usize) -> Option<Vec<f32>> {
        let mut best: Option<(usize, usize)> = None;
        for (i, buf) in self.bufs.iter().enumerate() {
            let cap = buf.capacity();
            if cap >= len && best.is_none_or(|(_, best_cap)| cap < best_cap) {
                best = Some((i, cap));
                if cap == len {
                    break;
                }
            }
        }
        best.map(|(i, _)| {
            let buf = self.bufs.swap_remove(i);
            self.bytes -= buf.capacity() * size_of::<f32>();
            buf
        })
    }
}

/// Takes an **empty** buffer with capacity at least `len`.
///
/// Prefers the smallest pooled buffer that fits to keep big buffers
/// available for big requests. Falls back to a fresh allocation when the
/// pool has no fit.
pub fn take(len: usize) -> Vec<f32> {
    POOL.with(|pool| match pool.borrow_mut().pop_best_fit(len) {
        Some(mut buf) => {
            buf.clear();
            buf
        }
        None => Vec::with_capacity(len),
    })
}

/// Takes a buffer of exactly `len` zeros.
pub fn take_zeroed(len: usize) -> Vec<f32> {
    let mut buf = take(len);
    buf.resize(len, 0.0);
    buf
}

/// Takes a buffer of exactly `len` elements with **unspecified contents**
/// (stale values from the buffer's previous use, zeros where the pool has
/// to grow it).
///
/// For buffers the caller fully overwrites before reading — packed GEMM
/// panels, store-mode GEMM outputs — this skips [`take_zeroed`]'s memset,
/// which on the convolution hot path re-zeroes megabytes per training or
/// serving step only to overwrite every byte again. Buffers are recycled
/// with their length intact, so at steady state the common case is a pure
/// truncate with no writes at all.
pub fn take_full(len: usize) -> Vec<f32> {
    POOL.with(|pool| match pool.borrow_mut().pop_best_fit(len) {
        Some(mut buf) => {
            if buf.len() >= len {
                buf.truncate(len);
            } else {
                // Only the gap between the buffer's previous length and
                // `len` needs initializing; bytes past a Vec's length may
                // never have been written, so they cannot be exposed by
                // truncation tricks.
                buf.resize(len, 0.0);
            }
            buf
        }
        None => vec![0.0; len],
    })
}

/// Takes a buffer holding a copy of `src`.
pub fn take_copied(src: &[f32]) -> Vec<f32> {
    let mut buf = take(src.len());
    buf.extend_from_slice(src);
    buf
}

/// Returns a buffer to this thread's pool (or frees it when the pool is
/// full, the retained-bytes budget is spent, or the buffer is outside the
/// pooled size range).
pub fn recycle(buf: Vec<f32>) {
    let bytes = buf.capacity() * size_of::<f32>();
    if buf.capacity() == 0 || buf.capacity() > MAX_POOLED_LEN {
        return;
    }
    POOL.with(|pool| {
        let mut pool = pool.borrow_mut();
        if pool.bufs.len() < MAX_POOLED_BUFFERS && pool.bytes + bytes <= MAX_POOLED_BYTES {
            pool.bytes += bytes;
            pool.bufs.push(buf);
        }
    });
}

/// Number of buffers currently pooled on this thread (diagnostics/tests).
pub fn pooled_buffers() -> usize {
    POOL.with(|pool| pool.borrow().bufs.len())
}

/// Total capacity bytes currently retained on this thread
/// (diagnostics/tests).
pub fn pooled_bytes() -> usize {
    POOL.with(|pool| pool.borrow().bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycled_buffer_is_reused() {
        // Use an odd length unlikely to collide with other tests sharing
        // the thread-local pool.
        let mut buf = take(12345);
        buf.resize(12345, 7.0);
        let cap = buf.capacity();
        let ptr = buf.as_ptr();
        recycle(buf);
        let again = take(12345);
        assert_eq!(again.capacity(), cap);
        assert_eq!(again.as_ptr(), ptr, "pool did not hand back the buffer");
        assert!(again.is_empty(), "take() must hand out an empty buffer");
    }

    #[test]
    fn take_zeroed_is_clean_after_recycling_garbage() {
        let mut buf = take(513);
        buf.resize(513, f32::NAN);
        recycle(buf);
        let z = take_zeroed(513);
        assert_eq!(z.len(), 513);
        assert!(z.iter().all(|&v| v == 0.0), "recycled garbage leaked");
    }

    #[test]
    #[allow(
        clippy::disallowed_methods,
        reason = "a fresh thread gives the test a thread-local pool of its own"
    )]
    fn take_full_reuses_without_clearing() {
        // Dedicated thread: the assertions must not race sibling tests
        // sharing the harness thread's pool.
        std::thread::spawn(|| {
            let mut buf = take(777);
            buf.resize(777, 3.5);
            let ptr = buf.as_ptr();
            recycle(buf);
            let full = take_full(777);
            assert_eq!(full.len(), 777);
            assert_eq!(full.as_ptr(), ptr, "pool did not hand back the buffer");
            // Contents are unspecified but must be initialized memory; here
            // the recycled values survive untouched.
            assert!(full.iter().all(|&v| v == 3.5));
            recycle(full);

            // Growing within capacity zero-fills only the gap.
            let mut short = Vec::with_capacity(2048);
            short.extend_from_slice(&[9.0; 8]);
            recycle(short);
            let grown = take_full(1024);
            assert_eq!(grown.len(), 1024);
            assert_eq!(&grown[..8], &[9.0; 8]);
            assert!(grown[8..].iter().all(|&v| v == 0.0));
        })
        .join()
        .expect("take_full thread panicked");
    }

    #[test]
    fn take_copied_matches_source() {
        let src = [1.0f32, 2.0, 3.0];
        let c = take_copied(&src);
        assert_eq!(c.as_slice(), &src);
        recycle(c);
    }

    #[test]
    fn oversized_buffers_are_not_pooled() {
        let before = pooled_buffers();
        recycle(Vec::with_capacity(MAX_POOLED_LEN + 1));
        assert_eq!(pooled_buffers(), before);
        recycle(Vec::new());
        assert_eq!(pooled_buffers(), before);
    }

    #[test]
    #[allow(
        clippy::disallowed_methods,
        reason = "a fresh thread gives the test a thread-local pool of its own"
    )]
    fn retained_bytes_stay_under_budget() {
        // Run on a dedicated thread: the budget assertion must not see
        // buffers recycled by sibling tests on the harness thread.
        std::thread::spawn(|| {
            // Recycling more than the byte budget keeps only what fits.
            let buf_len = MAX_POOLED_LEN / 2;
            let per_buf_bytes = buf_len * size_of::<f32>();
            for _ in 0..(MAX_POOLED_BYTES / per_buf_bytes + 4) {
                recycle(Vec::with_capacity(buf_len));
            }
            assert!(
                pooled_bytes() <= MAX_POOLED_BYTES,
                "pool retained {} bytes, budget {}",
                pooled_bytes(),
                MAX_POOLED_BYTES
            );
            // Draining returns the accounting to zero.
            while pooled_buffers() > 0 {
                drop(take(buf_len));
            }
            assert_eq!(pooled_bytes(), 0);
        })
        .join()
        .expect("budget thread panicked");
    }
}
