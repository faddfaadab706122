//! 1-D convolution kernels with *same* and *causal* padding.
//!
//! Layout convention: inputs and outputs are `(B, C, L)` — batch, channels,
//! time — and kernels are `(C_out, C_in, K)`. Output length always equals
//! input length (the paper pads every layer so encoder/decoder states stay
//! length-`w`, Section 3.1.2–3.1.3).
//!
//! * [`Padding::Same`] pads `(K-1)/2` zeros on the left and the remainder on
//!   the right — used by the encoder, which may look at the whole window.
//! * [`Padding::Causal`] pads all `K-1` zeros on the left, so the output at
//!   time `t` depends only on inputs at times `≤ t` — used by the decoder
//!   ("observations only to be seen in the future cannot be utilized",
//!   Section 3.1.3).
//!
//! # One engine: implicit im2col over a batch-folded input
//!
//! A convolution is one dense matrix product
//! `Y (C_out, N) = W (C_out, C_in·K) · X̃ (C_in·K, N)`, where depth row
//! `(ci, j)` of `X̃` is input channel `ci` shifted by tap `j` and zero
//! outside the window. The engine runs it over a batch-folded input
//! `(C_in, B·T)` ([`Fold`]): `N = B·T` columns, 16-wide panels that may
//! span windows, and optionally only the output positions from a given
//! start on. Its packer (`FoldedTaps`) builds each panel of `X̃`
//! straight from the unpadded input, one fixed-width masked read per
//! window a panel row touches, so nothing is padded or copied first.
//!
//! The engine takes the packed-or-scalar decision once per op. On
//! AVX2+FMA hosts W is packed once and every panel goes through the
//! packed 6×16 microkernel in [`crate::gemm`], the whole `C_in·K` depth in
//! one pass. The portable arm materializes each panel of `X̃` and runs a
//! four-tap-grouped row loop over it.
//!
//! Every convolution in the crate is a call of this engine:
//!
//! * [`conv1d_folded_into`], the scoring forward, folds the whole batch.
//! * [`Tensor::conv1d_stacked`], the tape forward, runs each batch element
//!   as a one-window fold `(C_in, 1·L)` against weights packed once, with
//!   the elements in parallel over the worker pool ([`crate::par`]).
//!   Stacked kernels (a GLU's value and gate) are one GEMM of `n·C_out`
//!   rows, every output element bit-identical to the per-kernel call's.
//! * [`Tensor::conv1d_input_grad`] is the same engine against the
//!   channel-transposed, tap-reversed kernel with the left padding
//!   mirrored to `K−1−pl`.
//!
//! Each element sees the same products in the same order on either side,
//! so scoring and training agree bit for bit.
//!
//! The kernel gradient `gW (C_out, C_in·K) = Σ_{b,t} G[b][·][t] ·
//! X̃[b][·][t]ᵀ` contracts over `B·L`, not `C_in·K`, so it is its own
//! batch-fused GEMM ([`Tensor::conv1d_kernel_grad_stacked`]). Its B
//! operand is gathered, not copied: element `(b·L + t, ci·K + j)` of the
//! padded input sits at a row base `b·C_in·stride + t` plus a column
//! offset `ci·stride + j`, so the packer computes a panel's 16 column
//! offsets once and fills each depth row with one divmod and a 16-lane
//! indexed read.

#[cfg(target_arch = "x86_64")]
use crate::gemm;
use crate::infer::Fold;
use crate::Tensor;
use crate::{matmul, par, scratch};

/// Zero-padding scheme of a 1-D convolution. See the module docs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Padding {
    /// `(K-1)/2` zeros before, `K-1-(K-1)/2` after: output `t` sees a
    /// centered window.
    Same,
    /// `K-1` zeros before: output `t` sees only inputs `≤ t`.
    Causal,
}

impl Padding {
    /// Number of zeros inserted before the first observation for kernel
    /// size `k`.
    #[inline]
    pub fn left(self, k: usize) -> usize {
        match self {
            Padding::Same => (k - 1) / 2,
            Padding::Causal => k - 1,
        }
    }
}

/// Fused kernel-gradient row: `gw[j] += Σ_t g[t] * x[t + j - pl]` for all
/// `K` taps in one pass over `g` (one load of `g[t]` feeds every tap),
/// with the at most `K-1` boundary positions handled by a guarded loop.
fn kernel_grad_row(gw_row: &mut [f32], g_row: &[f32], x_row: &[f32], pl: usize) {
    let l = g_row.len();
    let k = gw_row.len();
    debug_assert_eq!(x_row.len(), l);
    let lo = pl.min(l);
    let hi = (l + pl + 1).saturating_sub(k).min(l).max(lo);

    // Guarded edges (per tap, short).
    for t in (0..lo).chain(hi..l) {
        let gv = g_row[t];
        for (j, gw_v) in gw_row.iter_mut().enumerate() {
            let s = t as isize + j as isize - pl as isize;
            if s >= 0 && (s as usize) < l {
                *gw_v += gv * x_row[s as usize];
            }
        }
    }

    // Dense interior: every tap in range.
    if hi <= lo {
        return;
    }
    match gw_row {
        [gw0, gw1, gw2] => {
            // The paper's default K = 3 in registers.
            let (mut a0, mut a1, mut a2) = (0.0f32, 0.0f32, 0.0f32);
            let x0 = &x_row[lo - pl..hi - pl];
            let x1 = &x_row[lo - pl + 1..hi - pl + 1];
            let x2 = &x_row[lo - pl + 2..hi - pl + 2];
            for (((&gv, &v0), &v1), &v2) in g_row[lo..hi].iter().zip(x0).zip(x1).zip(x2) {
                a0 += gv * v0;
                a1 += gv * v1;
                a2 += gv * v2;
            }
            *gw0 += a0;
            *gw1 += a1;
            *gw2 += a2;
        }
        _ => {
            for (t, &gv) in (lo..hi).zip(&g_row[lo..hi]) {
                let xs = &x_row[t - pl..t - pl + k];
                for (gw_v, &xv) in gw_row.iter_mut().zip(xs) {
                    *gw_v += gv * xv;
                }
            }
        }
    }
}

/// Columns per packed panel of the convolution engine — the packed GEMM
/// core's `NR`, used by the scalar arm too.
pub(crate) const PANEL: usize = 16;

/// The implicit im2col matrix `X̃ (C_in·K, B·T_out)` of a convolution
/// over a batch-folded input ([`Fold`]): depth row `ci·K + j`, column
/// `b·T_out + u` holds input position `output.start + u + j − pl` of
/// window `b`, or zero outside the window.
struct FoldedTaps<'a> {
    x: &'a [f32],
    input: Fold,
    output: Fold,
    cin: usize,
    k: usize,
    pl: usize,
}

impl FoldedTaps<'_> {
    /// Packs columns `j0 .. j0 + width` (`width ≤ PANEL`) of every depth
    /// row `d` into `dst[d·PANEL ..][..PANEL]`, zero-filling columns
    /// `width .. PANEL`.
    ///
    /// The panel splits into one run of in-window inputs per window it
    /// touches. Per tap, each run's source offset and lane mask are
    /// computed once and reused for every input channel: a depth row is
    /// then, per run, one fixed-width `PANEL`-float read of the input
    /// masked to the run's lanes, OR-ed together. Variable-length copies
    /// and fills would cost a library call per run.
    fn pack(&self, j0: usize, width: usize, dst: &mut [f32]) {
        debug_assert!(width <= PANEL && dst.len() == self.cin * self.k * PANEL);
        let (tin, tout) = (self.input.width(), self.output.width());
        let ld = self.input.cols();
        // (panel column, columns, window, first position) per window.
        let mut windows = [(0, 0, 0, 0); PANEL];
        let mut nwin = 0;
        let mut col = j0;
        while col < j0 + width {
            let (b, u0) = (col / tout, col % tout);
            let len = (tout - u0).min(j0 + width - col);
            windows[nwin] = (col - j0, len, b, u0);
            nwin += 1;
            col += len;
        }
        // Per run: the input column read into panel lane 0 (lane `c`
        // reads `x[ci·ld + shift + c]`), and all-ones bits on the run's
        // lanes — `bits & mask` keeps a value exactly, zero elsewhere.
        let mut shifts = [0isize; PANEL];
        let mut masks = [[0u32; PANEL]; PANEL];
        for j in 0..self.k {
            let mut nrun = 0;
            for &(off, len, b, u0) in &windows[..nwin] {
                // Input position of the window's first panel column under
                // tap `j`; columns `lead .. end` fall inside the window.
                let first = (self.output.start + u0 + j) as isize - self.pl as isize;
                let lead = (-first).clamp(0, len as isize) as usize;
                let end = (self.input.window as isize - first).clamp(lead as isize, len as isize)
                    as usize;
                if end > lead {
                    shifts[nrun] = (b * tin) as isize + first - (self.input.start + off) as isize;
                    masks[nrun] = [0; PANEL];
                    masks[nrun][off + lead..off + end].fill(u32::MAX);
                    nrun += 1;
                }
            }
            for ci in 0..self.cin {
                let mut bits = [0u32; PANEL];
                for (&shift, mask) in shifts[..nrun].iter().zip(&masks) {
                    let from = (ci * ld) as isize + shift;
                    match usize::try_from(from)
                        .ok()
                        .and_then(|from| self.x.get(from..from + PANEL))
                    {
                        Some(span) => {
                            for ((acc, &v), &m) in bits.iter_mut().zip(span).zip(mask) {
                                *acc |= v.to_bits() & m;
                            }
                        }
                        // The first and last columns of `x`: lane by lane.
                        None => {
                            for (c, (acc, &m)) in bits.iter_mut().zip(mask).enumerate() {
                                if m != 0 {
                                    *acc = self.x[(from + c as isize) as usize].to_bits();
                                }
                            }
                        }
                    }
                }
                let out = &mut dst[(ci * self.k + j) * PANEL..][..PANEL];
                for (o, &v) in out.iter_mut().zip(&bits) {
                    *o = f32::from_bits(v);
                }
            }
        }
    }
}

/// The convolution engine: `out (n·C_out, N) = W · X̃` over the columns
/// of a [`FoldedTaps`], where W stacks the row-major `(C_out, C_in·K)`
/// matrices `parts` along the output rows.
///
/// The packed-or-scalar decision is taken once, when the engine is built,
/// and on the packed arm W is packed once for every fold the engine runs.
struct ConvEngine<'a> {
    parts: &'a [&'a Tensor],
    rows: usize,
    depth: usize,
    #[cfg(target_arch = "x86_64")]
    packed: Option<Vec<f32>>,
}

impl<'a> ConvEngine<'a> {
    /// `parts` hold `rows` rows of `depth` each; `madds` is the count the
    /// dispatch decision is taken on.
    #[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
    fn new(parts: &'a [&'a Tensor], rows: usize, depth: usize, madds: usize) -> Self {
        ConvEngine {
            parts,
            rows,
            depth,
            #[cfg(target_arch = "x86_64")]
            packed: gemm::enabled(madds).then(|| {
                let a = gemm::AStacked { parts, rows };
                gemm::pack_a(parts.len() * rows, depth, &a)
            }),
        }
    }

    /// `out` `(n·C_out, N)` for the columns of `taps`; `out` needs no
    /// initialization.
    fn run(&self, taps: &FoldedTaps<'_>, out: &mut [f32]) {
        let (m, n, depth) = (self.parts.len() * self.rows, taps.output.cols(), self.depth);
        debug_assert_eq!(taps.cin * taps.k, depth);
        debug_assert_eq!(out.len(), m * n);
        #[cfg(target_arch = "x86_64")]
        if let Some(pa) = &self.packed {
            gemm::gemm_panels(m, n, depth, pa, &|j0, w, dst| taps.pack(j0, w, dst), out);
            return;
        }
        // Scalar arm: per panel, materialize X̃ and run each output row
        // with the four-tap grouping of `matmul::matmul_into`.
        let base = par::SyncMutPtr(out.as_mut_ptr());
        let panels = n.div_ceil(PANEL);
        let run_panel = |jp: usize| {
            let j0 = jp * PANEL;
            let width = PANEL.min(n - j0);
            let mut cols = scratch::take_full(depth * PANEL);
            taps.pack(j0, width, &mut cols);
            for r in 0..m {
                let wrow = &self.parts[r / self.rows].data()[r % self.rows * depth..][..depth];
                let mut acc = [0.0f32; PANEL];
                matmul::matmul_into(wrow, &cols, &mut acc, 1, depth, PANEL);
                let at = r * n + j0;
                // SAFETY: row `r` < m and columns `j0 .. j0 + width` ≤ n
                // lie inside `out`; no other panel writes these columns,
                // and `for_each_index` returns only after every panel is
                // done.
                let orow = unsafe { std::slice::from_raw_parts_mut(base.get().add(at), width) };
                orow.copy_from_slice(&acc[..width]);
            }
            scratch::recycle(cols);
        };
        if par::threads() > 1 && out.len() >= par::PAR_THRESHOLD && panels > 1 {
            par::for_each_index(panels, run_panel);
        } else {
            for jp in 0..panels {
                run_panel(jp);
            }
        }
    }

    /// Runs each batch element of the `(B, C_in, l)` input `x` as the
    /// one-window fold `(C_in, 1·l)` into its `(n·C_out, l)` chunk of
    /// `out`, the elements in parallel over the pool.
    fn run_windows(&self, x: &[f32], l: usize, k: usize, pl: usize, out: &mut [f32]) {
        let (cin, fold) = (self.depth / k, Fold::full(1, l));
        par::for_each_chunk(out, self.parts.len() * self.rows * l, |bi, y| {
            // The input from this element on: the packer masks off
            // whatever its fixed-width reads see past the window.
            let taps = FoldedTaps {
                x: &x[bi * cin * l..],
                input: fold,
                output: fold,
                cin,
                k,
                pl,
            };
            self.run(&taps, y);
        });
    }
}

#[cfg(target_arch = "x86_64")]
impl Drop for ConvEngine<'_> {
    fn drop(&mut self) {
        if let Some(pa) = self.packed.take() {
            scratch::recycle(pa);
        }
    }
}

/// Convolution of a batch-folded input `x` `(C_in, B·T_in)` (see
/// [`Fold`]) with several same-shape kernels `(C_out, C_in, K)` stacked
/// along the output channels, computing only output positions
/// `out_start .. w`: rows `i·C_out ..` of `out` `(n·C_out, B·T_out)` hold
/// `kernels[i] ⊗ x`.
///
/// Every computed element equals the one [`Tensor::conv1d`] computes for
/// that kernel on the full `(B, C_in, w)` input: both are this engine,
/// and the packed-or-scalar decision is taken on one kernel's
/// **unpruned** madd count `C_out·C_in·K·w`. The input must hold every
/// position the computed outputs read: `input.start` is 0 or at most
/// `out_start − pl`. `out` needs no initialization.
pub fn conv1d_folded_into(
    x: &[f32],
    input: Fold,
    kernels: &[&Tensor],
    padding: Padding,
    out_start: usize,
    out: &mut [f32],
) {
    let (cout, cin, k) = stacked_shape(kernels);
    let pl = padding.left(k);
    assert!(
        input.start == 0 || input.start + pl <= out_start,
        "conv1d outputs from {out_start} read inputs before {}",
        input.start
    );
    let output = input.from(out_start);
    assert_eq!(x.len(), cin * input.cols(), "conv1d input length");
    assert_eq!(
        out.len(),
        kernels.len() * cout * output.cols(),
        "conv1d output length"
    );
    if out.is_empty() {
        return;
    }
    let taps = FoldedTaps {
        x,
        input,
        output,
        cin,
        k,
        pl,
    };
    ConvEngine::new(kernels, cout, cin * k, cout * cin * k * input.window).run(&taps, out);
}

/// `(C_out, C_in, K)` of stacked conv kernels, which must share one shape.
fn stacked_shape(kernels: &[&Tensor]) -> (usize, usize, usize) {
    let first = kernels.first().expect("conv1d needs a kernel");
    assert_eq!(
        first.rank(),
        3,
        "conv1d kernel must be rank 3 (Cout, Cin, K)"
    );
    assert!(
        kernels.iter().all(|w| w.dims() == first.dims()),
        "stacked conv1d kernels must share one shape"
    );
    assert!(first.dims()[2] >= 1, "conv1d kernel size must be >= 1");
    (first.dims()[0], first.dims()[1], first.dims()[2])
}

impl Tensor {
    /// 1-D convolution: input `(B, C_in, L)`, kernel `(C_out, C_in, K)` →
    /// output `(B, C_out, L)`.
    pub fn conv1d(&self, kernel: &Tensor, padding: Padding) -> Tensor {
        self.conv1d_stacked(&[kernel], padding)
    }

    /// 1-D convolution with several same-shape kernels `(C_out, C_in, K)`
    /// stacked along the output channels: input `(B, C_in, L)` → output
    /// `(B, n·C_out, L)`, whose channels `i·C_out ..` of every batch
    /// element hold `kernels[i] ⊗ x` bit for bit as [`Tensor::conv1d`]
    /// computes it. The kernels are packed once for one GEMM of `n·C_out`
    /// rows per batch element; the packed-or-scalar decision is taken on
    /// one kernel's madd count.
    pub fn conv1d_stacked(&self, kernels: &[&Tensor], padding: Padding) -> Tensor {
        assert_eq!(self.rank(), 3, "conv1d input must be rank 3 (B, C, L)");
        let (cout, cin, k) = stacked_shape(kernels);
        let (b, l) = (self.dims()[0], self.dims()[2]);
        assert_eq!(
            self.dims()[1],
            cin,
            "conv1d channel mismatch: input {}, kernel {cin}",
            self.dims()[1]
        );
        let rows = kernels.len() * cout;
        let mut out = scratch::take_full(b * rows * l);
        if !out.is_empty() {
            ConvEngine::new(kernels, cout, cin * k, cout * cin * k * l).run_windows(
                self.data(),
                l,
                k,
                padding.left(k),
                &mut out,
            );
        }
        Tensor::from_vec(out, &[b, rows, l])
    }

    /// Gradient of [`Tensor::conv1d`] with respect to its **input**.
    ///
    /// `grad_out` is `(B, C_out, L)`; the result matches the input shape
    /// `(B, C_in, L)`. The adjoint of the forward is the same engine with
    /// channels transposed, taps reversed, and the padding mirrored:
    /// `gx[ci][s] = Σ_{co,j} K[co][ci][j] · gout[co][s + pl - j]`.
    pub fn conv1d_input_grad(grad_out: &Tensor, kernel: &Tensor, padding: Padding) -> Tensor {
        assert_eq!(grad_out.rank(), 3, "grad_out must be rank 3");
        assert_eq!(kernel.rank(), 3, "kernel must be rank 3");
        let (b, cout, l) = (grad_out.dims()[0], grad_out.dims()[1], grad_out.dims()[2]);
        let (cout2, cin, k) = (kernel.dims()[0], kernel.dims()[1], kernel.dims()[2]);
        assert_eq!(cout, cout2, "conv1d_input_grad channel mismatch");

        // Reorder the kernel once: wt[ci][co·k + j'] = K[co][ci][k-1-j'].
        // The scatter covers every index, so no zeroing is needed.
        let w = kernel.data();
        let mut wt = scratch::take_full(cin * cout * k);
        for co in 0..cout {
            for ci in 0..cin {
                for j in 0..k {
                    wt[ci * cout * k + co * k + (k - 1 - j)] = w[(co * cin + ci) * k + j];
                }
            }
        }
        let wt = Tensor::from_vec(wt, &[cin, cout * k]);
        let mut gx = scratch::take_full(b * cin * l);
        if l > 0 {
            ConvEngine::new(&[&wt], cin, cout * k, cin * cout * k * l).run_windows(
                grad_out.data(),
                l,
                k,
                k - 1 - padding.left(k),
                &mut gx,
            );
        }
        wt.recycle();
        Tensor::from_vec(gx, &[b, cin, l])
    }

    /// Gradient of [`Tensor::conv1d`] with respect to its **kernel**.
    ///
    /// `input` is `(B, C_in, L)`, `grad_out` is `(B, C_out, L)`; the result
    /// matches the kernel shape `(C_out, C_in, K)`. All `K` taps of a
    /// `(co, ci)` row accumulate in one fused pass per time row.
    pub fn conv1d_kernel_grad(
        input: &Tensor,
        grad_out: &Tensor,
        k: usize,
        padding: Padding,
    ) -> Tensor {
        Self::conv1d_kernel_grad_stacked(input, &[grad_out], k, padding)
    }

    /// Kernel gradients of [`Tensor::conv1d_stacked`]: `grad_outs[i]` is
    /// the `(B, C_out, L)` gradient of kernel `i`'s output channels, and
    /// rows `i·C_out ..` of the `(n·C_out, C_in, K)` result hold that
    /// kernel's gradient, bit for bit as [`Tensor::conv1d_kernel_grad`]
    /// computes it. The packed path is one GEMM of `n·C_out` rows, which
    /// pads and packs the input windows once.
    pub fn conv1d_kernel_grad_stacked(
        input: &Tensor,
        grad_outs: &[&Tensor],
        k: usize,
        padding: Padding,
    ) -> Tensor {
        assert_eq!(input.rank(), 3, "input must be rank 3");
        let first = grad_outs.first().expect("kernel grad needs a grad_out");
        assert_eq!(first.rank(), 3, "grad_out must be rank 3");
        assert!(
            grad_outs.iter().all(|g| g.dims() == first.dims()),
            "stacked grad_outs must share one shape"
        );
        let (b, cin, l) = (input.dims()[0], input.dims()[1], input.dims()[2]);
        let (b2, cout, l2) = (first.dims()[0], first.dims()[1], first.dims()[2]);
        assert_eq!(b, b2, "conv1d_kernel_grad batch mismatch");
        assert_eq!(l, l2, "conv1d_kernel_grad length mismatch");
        let (pl, rows) = (padding.left(k), grad_outs.len() * cout);

        let x = input.data();
        #[cfg(target_arch = "x86_64")]
        if l > 0 && gemm::enabled(b * l * cout * cin * k) {
            // `gemm` stores its first depth slab, so the output needs no
            // zeroing (the guards above ensure a non-empty contraction).
            let mut gw = scratch::take_full(rows * cin * k);
            gemm::conv_kernel_grad(
                x,
                grad_outs,
                &mut gw,
                &gemm::ConvShape {
                    batches: b,
                    rows_in: cin,
                    rows_out: cout,
                    k,
                    l,
                    pl,
                },
            );
            return Tensor::from_vec(gw, &[rows, cin, k]);
        }
        let mut gw = scratch::take_zeroed(rows * cin * k);
        par::for_each_chunk(&mut gw, k, |row, gw_row| {
            let (g, co, ci) = (
                grad_outs[row / (cout * cin)].data(),
                row / cin % cout,
                row % cin,
            );
            for bi in 0..b {
                let x_row = &x[(bi * cin + ci) * l..(bi * cin + ci + 1) * l];
                let g_row = &g[(bi * cout + co) * l..(bi * cout + co + 1) * l];
                kernel_grad_row(gw_row, g_row, x_row, pl);
            }
        });
        Tensor::from_vec(gw, &[rows, cin, k])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_close;

    /// Textbook reference convolution used to validate the optimized kernels.
    fn conv1d_reference(x: &Tensor, w: &Tensor, padding: Padding) -> Tensor {
        let (b, cin, l) = (x.dims()[0], x.dims()[1], x.dims()[2]);
        let (cout, _, k) = (w.dims()[0], w.dims()[1], w.dims()[2]);
        let pl = padding.left(k) as isize;
        let mut out = Tensor::zeros(&[b, cout, l]);
        for bi in 0..b {
            for co in 0..cout {
                for t in 0..l {
                    let mut acc = 0.0;
                    for ci in 0..cin {
                        for j in 0..k {
                            let s = t as isize + j as isize - pl;
                            if s >= 0 && (s as usize) < l {
                                acc += w.at(&[co, ci, j]) * x.at(&[bi, ci, s as usize]);
                            }
                        }
                    }
                    out.set(&[bi, co, t], acc);
                }
            }
        }
        out
    }

    fn rand_tensor(dims: &[usize], seed: u64) -> Tensor {
        // Small deterministic pseudo-random fill (LCG), enough for kernels.
        let n: usize = dims.iter().product();
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let data = (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as f32 / u32::MAX as f32) * 2.0 - 1.0
            })
            .collect();
        Tensor::from_vec(data, dims)
    }

    #[test]
    fn delta_kernel_is_identity_same() {
        // Kernel [0, 1, 0] with Same padding reproduces the input.
        let x = rand_tensor(&[1, 1, 7], 3);
        let w = Tensor::from_vec(vec![0.0, 1.0, 0.0], &[1, 1, 3]);
        let y = x.conv1d(&w, Padding::Same);
        assert_close(y.data(), x.data(), 1e-6);
    }

    #[test]
    fn shift_kernel_shifts_right() {
        // Kernel [1, 0, 0] with Same padding (pl=1) gives y[t] = x[t-1].
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 4]);
        let w = Tensor::from_vec(vec![1.0, 0.0, 0.0], &[1, 1, 3]);
        let y = x.conv1d(&w, Padding::Same);
        assert_eq!(y.data(), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn causal_uses_only_past() {
        // With causal padding and kernel summing all taps, output at t
        // equals the sum of the last K observations up to t.
        let x = Tensor::from_vec(vec![1.0, 1.0, 1.0, 1.0, 1.0], &[1, 1, 5]);
        let w = Tensor::ones(&[1, 1, 3]);
        let y = x.conv1d(&w, Padding::Causal);
        assert_eq!(y.data(), &[1.0, 2.0, 3.0, 3.0, 3.0]);
    }

    #[test]
    fn matches_reference_same() {
        let x = rand_tensor(&[2, 3, 11], 7);
        let w = rand_tensor(&[4, 3, 5], 9);
        let fast = x.conv1d(&w, Padding::Same);
        let slow = conv1d_reference(&x, &w, Padding::Same);
        assert_close(fast.data(), slow.data(), 1e-5);
    }

    #[test]
    fn matches_reference_causal() {
        let x = rand_tensor(&[2, 2, 9], 17);
        let w = rand_tensor(&[3, 2, 3], 23);
        let fast = x.conv1d(&w, Padding::Causal);
        let slow = conv1d_reference(&x, &w, Padding::Causal);
        assert_close(fast.data(), slow.data(), 1e-5);
    }

    #[test]
    fn matches_reference_all_kernel_sizes() {
        // Unroll boundaries of the GEMM depth (C_in·K) and kernels wider
        // than the time row.
        for k in [1usize, 2, 3, 4, 5, 6, 7, 9, 11] {
            for padding in [Padding::Same, Padding::Causal] {
                let x = rand_tensor(&[2, 2, 8], 100 + k as u64);
                let w = rand_tensor(&[3, 2, k], 200 + k as u64);
                let fast = x.conv1d(&w, padding);
                let slow = conv1d_reference(&x, &w, padding);
                assert_close(fast.data(), slow.data(), 1e-5);
            }
        }
    }

    #[test]
    fn multichannel_sums_channels() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 10.0, 20.0], &[1, 2, 2]);
        let w = Tensor::from_vec(vec![1.0, 1.0], &[1, 2, 1]); // K=1 sums channels
        let y = x.conv1d(&w, Padding::Same);
        assert_eq!(y.data(), &[11.0, 22.0]);
    }

    /// Checks the adjoint identity ⟨conv(x), g⟩ = ⟨x, conv_input_grad(g)⟩,
    /// which must hold for the gradient kernels to be correct adjoints.
    #[test]
    fn input_grad_is_adjoint() {
        for padding in [Padding::Same, Padding::Causal] {
            let x = rand_tensor(&[2, 3, 8], 31);
            let w = rand_tensor(&[4, 3, 3], 37);
            let g = rand_tensor(&[2, 4, 8], 41);
            let y = x.conv1d(&w, padding);
            let gx = Tensor::conv1d_input_grad(&g, &w, padding);
            let lhs: f32 = y.data().iter().zip(g.data()).map(|(a, b)| a * b).sum();
            let rhs: f32 = x.data().iter().zip(gx.data()).map(|(a, b)| a * b).sum();
            assert!(
                (lhs - rhs).abs() < 1e-3,
                "adjoint mismatch: {lhs} vs {rhs} ({padding:?})"
            );
        }
    }

    /// The adjoint identity for wide kernels (taps wider than the row).
    #[test]
    fn input_grad_is_adjoint_wide_kernel() {
        for padding in [Padding::Same, Padding::Causal] {
            let x = rand_tensor(&[1, 2, 24], 51);
            let w = rand_tensor(&[2, 2, 19], 53);
            let g = rand_tensor(&[1, 2, 24], 59);
            let y = x.conv1d(&w, padding);
            let gx = Tensor::conv1d_input_grad(&g, &w, padding);
            let lhs: f32 = y.data().iter().zip(g.data()).map(|(a, b)| a * b).sum();
            let rhs: f32 = x.data().iter().zip(gx.data()).map(|(a, b)| a * b).sum();
            assert!(
                (lhs - rhs).abs() < 1e-2,
                "adjoint mismatch: {lhs} vs {rhs} ({padding:?})"
            );
        }
    }

    /// Finite-difference check of the kernel gradient on a scalar loss
    /// L = Σ conv(x, w).
    #[test]
    fn kernel_grad_matches_finite_difference() {
        for padding in [Padding::Same, Padding::Causal] {
            let x = rand_tensor(&[1, 2, 6], 43);
            let mut w = rand_tensor(&[2, 2, 3], 47);
            let gout = Tensor::ones(&[1, 2, 6]);
            let gw = Tensor::conv1d_kernel_grad(&x, &gout, 3, padding);
            let eps = 1e-3;
            for idx in 0..w.len() {
                let orig = w.data()[idx];
                w.data_mut()[idx] = orig + eps;
                let up: f32 = x.conv1d(&w, padding).data().iter().sum();
                w.data_mut()[idx] = orig - eps;
                let down: f32 = x.conv1d(&w, padding).data().iter().sum();
                w.data_mut()[idx] = orig;
                let fd = (up - down) / (2.0 * eps);
                assert!(
                    (fd - gw.data()[idx]).abs() < 1e-2,
                    "kernel grad mismatch at {idx}: fd {fd} vs {} ({padding:?})",
                    gw.data()[idx]
                );
            }
        }
    }
}
