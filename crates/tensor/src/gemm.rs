//! Packed, register-blocked f32 GEMM core (AVX2 + FMA).
//!
//! Every dense contraction in the crate — the matmul family behind
//! [`crate::matmul`]'s one entry (three layouts, 2-D or batched), the
//! 1×1 channel map, and the convolutions — reduces to one primitive:
//!
//! ```text
//! C (m × n) = A (m × depth) · B (depth × n)
//! ```
//!
//! where A and B are *views* ([`APanelSrc`] / [`BPanelSrc`], or a panel
//! closure) that know how to copy a few elements of a given depth slice,
//! so transposed operands, convolution taps, and batch-concatenated
//! gradients all feed the same microkernel without materializing anything.
//!
//! # Anatomy
//!
//! * **Packing.** B is repacked into `depth`-major column panels of
//!   [`NR`] = 16 floats (one panel per 16 output columns, zero-padded at
//!   the right edge); A is repacked per 6-row block into `depth`-major
//!   row panels of [`MR`] = 6 floats. Both packings come from the
//!   thread-local scratch pool ([`crate::scratch`]), so steady-state GEMMs
//!   allocate nothing. The microkernel therefore streams two perfectly
//!   contiguous buffers regardless of the logical layout of the operands.
//! * **Microkernel.** A 6×16 register tile: 12 `ymm` accumulators, two
//!   B loads and six A broadcasts per depth step, all combined with fused
//!   multiply-adds — 96 madds per step, the AVX2 port-saturating shape.
//!   Depth is unrolled four deep. Edge tiles (m % 6, n % 16) run the same
//!   kernel into a stack tile that is then added to the live part of C.
//!
//! # Two drivers
//!
//! * [`gemm`] serves the matmul family, the channel map and the kernel
//!   gradient. The matmul entry picks the layout's views — [`ARows`] or
//!   [`ACols`] for A, [`BRows`] or [`BColsT`] for B — and calls it once
//!   per matrix. It packs B one depth slab of at most [`KC`] steps at a
//!   time, so the packed block stays cache-resident, and accumulates the
//!   slabs into C in a fixed order. Row blocks fan out over the
//!   persistent worker pool ([`par::for_each_index`]), each worker
//!   packing its own A panels.
//! * [`gemm_panels`] serves every convolution forward and input gradient
//!   ([`crate::conv`]): A is packed once by [`pack_a`], the whole depth
//!   runs in one microkernel pass, and the column panels fan out, each
//!   packed by the caller's closure. A per-window convolution is a
//!   one-window fold, so training and scoring share this driver.
//!
//! Block and panel boundaries are fixed by [`MR`] and [`NR`] — **not** by
//! the worker count — and every element accumulates depth in the same
//! order, so results are bit-exact across thread counts.
//!
//! This module is only compiled on x86_64 and only *runs* when
//! [`crate::simd::active`] reports AVX2+FMA; the portable fallbacks in
//! [`crate::matmul`] and [`crate::conv`] remain the other dispatch arm.

use crate::par::SyncMutPtr;
use crate::{par, scratch, simd, Tensor};
use core::arch::x86_64::*;

/// Microkernel tile height (rows of A per block).
pub(crate) const MR: usize = 6;

/// Microkernel tile width (columns of B per panel, two `ymm` registers).
pub(crate) const NR: usize = 16;
const _: () = assert!(
    NR == crate::conv::PANEL,
    "folded conv panels must be NR wide"
);

/// Depth slab: at most this many contraction steps are packed at a time.
/// 512 keeps a full-width packed B block (`n_round × KC` floats) within
/// a few hundred KiB — L2-resident on anything that has AVX2.
const KC: usize = 512;

/// Minimum madd count before the packed path beats the plain scalar
/// loops; below it, packing overhead dominates and callers should keep
/// the portable kernel.
const MIN_MADDS: usize = 1 << 10;

/// True when callers should route a contraction of `madds` multiply-adds
/// through this module. This is the dispatch decision the kernel-tier
/// telemetry counts (`crate::obs`).
#[inline]
pub(crate) fn enabled(madds: usize) -> bool {
    let packed = simd::avx2_active() && madds >= MIN_MADDS;
    crate::obs::gemm_dispatch(packed);
    packed
}

// ---------------------------------------------------------------------
// Operand views
// ---------------------------------------------------------------------

/// Read view of the A operand.
///
/// `pack_block` packs rows `i0 .. i0+h` over depths `k0 .. k0+kc` into
/// `dst` (length `MR*kc`) in **row-major** order — row `r` occupies
/// `dst[r*kc ..][..kc]` — zero-filling rows `h .. MR`. Row-major panels
/// keep the packing stage all contiguous copies; the microkernel
/// broadcasts from the six row streams directly.
pub(crate) trait APanelSrc: Sync {
    fn pack_block(&self, k0: usize, kc: usize, i0: usize, h: usize, dst: &mut [f32]);
}

/// Read view of the B operand.
///
/// `pack_panel` packs columns `j0 .. j0+w` over depths `k0 .. k0+kc` into
/// `dst` (length `kc*NR`, depth-major: depth row `d` occupies
/// `dst[d*NR ..][..NR]`), zero-padding columns `w .. NR`.
pub(crate) trait BPanelSrc: Sync {
    fn pack_panel(&self, k0: usize, kc: usize, j0: usize, w: usize, dst: &mut [f32]);
}

/// Row-major A: element `(i, d)` at `data[i*ld + d]`.
pub(crate) struct ARows<'a> {
    pub data: &'a [f32],
    pub ld: usize,
}

impl APanelSrc for ARows<'_> {
    /// Pure memcpy packing: one contiguous row copy per block row.
    fn pack_block(&self, k0: usize, kc: usize, i0: usize, h: usize, dst: &mut [f32]) {
        if h < MR {
            dst[h * kc..MR * kc].fill(0.0);
        }
        for r in 0..h {
            dst[r * kc..][..kc].copy_from_slice(&self.data[(i0 + r) * self.ld + k0..][..kc]);
        }
    }
}

/// Row-stacked A: logical row `i` is row `i % rows` of the row-major
/// matrix `parts[i / rows]` (all parts share one shape). Packs several
/// weight tensors as one operand without concatenating them — a GLU's
/// value and gate kernels become one 2C-row convolution GEMM.
pub(crate) struct AStacked<'a> {
    pub parts: &'a [&'a Tensor],
    pub rows: usize,
}

impl APanelSrc for AStacked<'_> {
    fn pack_block(&self, k0: usize, kc: usize, i0: usize, h: usize, dst: &mut [f32]) {
        if h < MR {
            dst[h * kc..MR * kc].fill(0.0);
        }
        for r in 0..h {
            let (part, row) = ((i0 + r) / self.rows, (i0 + r) % self.rows);
            let data = self.parts[part].data();
            let ld = data.len() / self.rows;
            dst[r * kc..][..kc].copy_from_slice(&data[row * ld + k0..][..kc]);
        }
    }
}

/// Transposed A (the `tn` variants): the operand is stored `(depth, m)`
/// row-major, so a depth slice is contiguous.
pub(crate) struct ACols<'a> {
    pub data: &'a [f32],
    pub ld: usize,
}

impl APanelSrc for ACols<'_> {
    fn pack_block(&self, k0: usize, kc: usize, i0: usize, h: usize, dst: &mut [f32]) {
        if h < MR {
            dst[h * kc..MR * kc].fill(0.0);
        }
        for r in 0..h {
            let row = &mut dst[r * kc..][..kc];
            for (d, v) in row.iter_mut().enumerate() {
                *v = self.data[(k0 + d) * self.ld + i0 + r];
            }
        }
    }
}

/// Batch-concatenated A for the kernel gradient: logical row `i` is row
/// `i % rows` of the `(B, rows, l)` gradient `parts[i / rows]`,
/// concatenated over batch elements — element `(i, d)` with
/// `d = bi·l + t` reads `parts[i / rows][(bi·rows + i % rows)·l + t]`.
/// Several parts stack into one operand, as [`AStacked`] does for weights.
pub(crate) struct ABatchRows<'a> {
    pub parts: &'a [&'a Tensor],
    pub rows: usize,
    pub l: usize,
}

impl APanelSrc for ABatchRows<'_> {
    /// Copies per-batch row segments — contiguous both sides, split only
    /// where a depth slab crosses a batch boundary.
    fn pack_block(&self, k0: usize, kc: usize, i0: usize, h: usize, dst: &mut [f32]) {
        if h < MR {
            dst[h * kc..MR * kc].fill(0.0);
        }
        for r in 0..h {
            let (data, i) = (
                self.parts[(i0 + r) / self.rows].data(),
                (i0 + r) % self.rows,
            );
            let row = &mut dst[r * kc..][..kc];
            let mut d = 0;
            while d < kc {
                let (bi, t) = ((k0 + d) / self.l, (k0 + d) % self.l);
                let take = (self.l - t).min(kc - d);
                row[d..d + take]
                    .copy_from_slice(&data[(bi * self.rows + i) * self.l + t..][..take]);
                d += take;
            }
        }
    }
}

/// Row-major B: depth slice `d` is `data[d*ld ..][..n]`.
pub(crate) struct BRows<'a> {
    pub data: &'a [f32],
    pub ld: usize,
}

impl BPanelSrc for BRows<'_> {
    fn pack_panel(&self, k0: usize, kc: usize, j0: usize, w: usize, dst: &mut [f32]) {
        for (d, row) in dst[..kc * NR].chunks_exact_mut(NR).enumerate() {
            row[..w].copy_from_slice(&self.data[(k0 + d) * self.ld + j0..][..w]);
            row[w..].fill(0.0);
        }
    }
}

/// Transposed B (the `nt` variants): the operand is stored `(n, depth)`
/// row-major, so element `(d, j)` gathers `data[j*ld + d]`.
pub(crate) struct BColsT<'a> {
    pub data: &'a [f32],
    pub ld: usize,
}

impl BPanelSrc for BColsT<'_> {
    /// Row-major traversal of the stored `(n, depth)` operand: contiguous
    /// reads, stride-`NR` writes.
    fn pack_panel(&self, k0: usize, kc: usize, j0: usize, w: usize, dst: &mut [f32]) {
        if w < NR {
            dst[..kc * NR].fill(0.0);
        }
        for j in 0..w {
            let row = &self.data[(j0 + j) * self.ld + k0..][..kc];
            for (d, &v) in row.iter().enumerate() {
                dst[d * NR + j] = v;
            }
        }
    }
}

/// Batch-concatenated im2col B for the kernel gradient: depth
/// `d = bi·l + t`, column `j = ci·k + jj`, element
/// `xpad[bi][ci][t + jj]` (`xpad` rows carry the forward padding, so the
/// tap offset is already folded in).
///
/// Element `(d, j)` sits at `base(d) + offset(j)`, with
/// `base = bi·cin·stride + t` and `offset = ci·stride + jj`: neither
/// part depends on the other index. The packer computes a panel's column
/// offsets once, so a depth row costs one divmod and a 16-lane gather.
pub(crate) struct BBatchWindows<'a> {
    pub pad: &'a [f32],
    pub stride: usize,
    pub cin: usize,
    pub k: usize,
    pub l: usize,
}

impl BPanelSrc for BBatchWindows<'_> {
    fn pack_panel(&self, k0: usize, kc: usize, j0: usize, w: usize, dst: &mut [f32]) {
        // Columns `w ..` gather offset 0 (in bounds) and are zeroed after.
        let mut offsets = [0usize; NR];
        for (j, o) in offsets[..w].iter_mut().enumerate() {
            *o = (j0 + j) / self.k * self.stride + (j0 + j) % self.k;
        }
        // One batch element's padded rows hold every `t + offset`.
        let batch = self.cin * self.stride;
        for (d, row) in dst[..kc * NR].chunks_exact_mut(NR).enumerate() {
            let (bi, t) = ((k0 + d) / self.l, (k0 + d) % self.l);
            let src = &self.pad[bi * batch + t..(bi + 1) * batch];
            for (v, &o) in row.iter_mut().zip(&offsets) {
                *v = src[o];
            }
            row[w..].fill(0.0);
        }
    }
}

// ---------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------

/// `out (m × n) = A · B` over `depth` contraction steps.
///
/// The first depth slab overwrites `out` (no read of the destination);
/// further slabs accumulate in a fixed order.
pub(crate) fn gemm<A: APanelSrc, B: BPanelSrc>(
    m: usize,
    n: usize,
    depth: usize,
    a: &A,
    b: &B,
    out: &mut [f32],
) {
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || n == 0 || depth == 0 {
        return;
    }
    let npanels = n.div_ceil(NR);
    let nblocks = m.div_ceil(MR);
    // Panels are fully packed before the microkernel reads them, so the
    // buffers can start with unspecified contents (no memset).
    let mut pb = scratch::take_full(npanels * NR * depth.min(KC));
    let base = SyncMutPtr(out.as_mut_ptr());

    let mut k0 = 0;
    while k0 < depth {
        let kc = KC.min(depth - k0);
        // Pack B once per depth slab, shared read-only by every block.
        for jp in 0..npanels {
            let j0 = jp * NR;
            let w = NR.min(n - j0);
            b.pack_panel(k0, kc, j0, w, &mut pb[jp * kc * NR..][..kc * NR]);
        }

        let run_block = |ib: usize| {
            let i0 = ib * MR;
            let h = MR.min(m - i0);
            let mut pa = scratch::take_full(kc * MR);
            a.pack_block(k0, kc, i0, h, &mut pa);
            for jp in 0..npanels {
                let j0 = jp * NR;
                let w = NR.min(n - j0);
                // SAFETY: `i0 < m` and `j0 < n`, so the offset stays
                // inside `out` (length `m*n`, asserted above).
                let c = unsafe { base.get().add(i0 * n + j0) };
                // SAFETY: `enabled()` gated dispatch on runtime AVX2+FMA
                // detection; the packed panels are `kc*MR` / `kc*NR` long
                // and the C tile writes stay inside rows i0..i0+h,
                // columns j0..j0+w of `out`. The first depth slab stores,
                // later slabs accumulate.
                unsafe {
                    microkernel(
                        pa.as_ptr(),
                        pb.as_ptr().add(jp * kc * NR),
                        kc,
                        c,
                        n,
                        h,
                        w,
                        k0 > 0,
                    );
                }
            }
            scratch::recycle(pa);
        };

        // Fan row blocks out only when the output clears the pool
        // threshold; block geometry is identical either way.
        if par::threads() > 1 && m * n >= par::PAR_THRESHOLD && nblocks > 1 {
            par::for_each_index(nblocks, run_block);
        } else {
            for ib in 0..nblocks {
                run_block(ib);
            }
        }
        k0 += kc;
    }
    scratch::recycle(pb);
}

// ---------------------------------------------------------------------
// Microkernel
// ---------------------------------------------------------------------

/// Full or edge 6×16 tile over `kc` depth steps. `accumulate` selects
/// `C += PA·PB` (later depth slabs) versus a plain store (the first —
/// and usually only — slab, saving a full read of C).
///
/// # Safety
///
/// The caller must have verified AVX2+FMA at runtime and must pass
/// packed panels of at least `MR*kc` (`pa`) and `NR*kc` (`pb`) floats,
/// plus a C pointer with `h` rows of stride `ldc` and `w` writable
/// columns (`h ≤ MR`, `w ≤ NR`, `w ≤ ldc`).
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn microkernel(
    pa: *const f32,
    pb: *const f32,
    kc: usize,
    c: *mut f32,
    ldc: usize,
    h: usize,
    w: usize,
    accumulate: bool,
) {
    debug_assert!(
        0 < h && h <= MR && 0 < w && w <= NR && w <= ldc,
        "tile {h}x{w} (ldc {ldc}) outside the {MR}x{NR} microkernel shape"
    );
    if h == MR && w == NR {
        // SAFETY: the full tile writes exactly MR rows × NR columns,
        // which the caller contract declares writable at stride `ldc`.
        unsafe { kernel_6x16(pa, pb, kc, c, ldc, accumulate) };
    } else {
        // Edge tile: run the full kernel into a stack tile, then fold the
        // live `h × w` corner into C.
        let mut tile = [0.0f32; MR * NR];
        // SAFETY: the stack tile is exactly MR×NR at stride NR — the
        // kernel's full-tile shape; panels per the caller contract.
        unsafe { kernel_6x16(pa, pb, kc, tile.as_mut_ptr(), NR, false) };
        for r in 0..h {
            // SAFETY: rows `r < h` at stride `ldc` with `w` columns are
            // writable per the caller contract.
            unsafe {
                let crow = c.add(r * ldc);
                for j in 0..w {
                    if accumulate {
                        *crow.add(j) += tile[r * NR + j];
                    } else {
                        *crow.add(j) = tile[r * NR + j];
                    }
                }
            }
        }
    }
}

/// The 6×16 register tile. 12 accumulators stay in `ymm` registers for
/// the whole depth loop; every step issues 2 B loads, 6 A broadcasts
/// (one per packed row stream) and 12 FMAs — the FMA-port-bound shape on
/// AVX2. The depth loop is unrolled four deep with indexed addressing so
/// the pointers advance once per group.
///
/// # Safety
///
/// AVX2+FMA must be runtime-verified; `pa` must hold `MR*kc` floats
/// (row-major row streams), `pb` must hold `kc*NR` floats (depth-major
/// panel), and `c` must have MR full rows of NR writable floats at
/// stride `ldc`.
#[target_feature(enable = "avx2,fma")]
unsafe fn kernel_6x16(
    pa: *const f32,
    mut pb: *const f32,
    kc: usize,
    c: *mut f32,
    ldc: usize,
    accumulate: bool,
) {
    let mut c00 = _mm256_setzero_ps();
    let mut c01 = _mm256_setzero_ps();
    let mut c10 = _mm256_setzero_ps();
    let mut c11 = _mm256_setzero_ps();
    let mut c20 = _mm256_setzero_ps();
    let mut c21 = _mm256_setzero_ps();
    let mut c30 = _mm256_setzero_ps();
    let mut c31 = _mm256_setzero_ps();
    let mut c40 = _mm256_setzero_ps();
    let mut c41 = _mm256_setzero_ps();
    let mut c50 = _mm256_setzero_ps();
    let mut c51 = _mm256_setzero_ps();

    // One pointer per packed A row stream; each advances by one float
    // per depth step.
    // SAFETY: `pa` holds `MR*kc` floats (caller contract), so the six
    // row-stream bases at `r*kc` are all in bounds.
    let (mut pa0, mut pa1, mut pa2, mut pa3, mut pa4, mut pa5) = unsafe {
        (
            pa,
            pa.add(kc),
            pa.add(2 * kc),
            pa.add(3 * kc),
            pa.add(4 * kc),
            pa.add(5 * kc),
        )
    };

    macro_rules! step {
        ($u:expr) => {
            // SAFETY: the loops below keep `d + $u < kc`, so the B panel
            // row at `pb + $u*NR` has NR in-bounds floats and each A row
            // stream still has its `$u`-th float.
            let (b0, b1, a0, a1, a2, a3, a4, a5) = unsafe {
                (
                    _mm256_loadu_ps(pb.add($u * NR)),
                    _mm256_loadu_ps(pb.add($u * NR + 8)),
                    _mm256_broadcast_ss(&*pa0.add($u)),
                    _mm256_broadcast_ss(&*pa1.add($u)),
                    _mm256_broadcast_ss(&*pa2.add($u)),
                    _mm256_broadcast_ss(&*pa3.add($u)),
                    _mm256_broadcast_ss(&*pa4.add($u)),
                    _mm256_broadcast_ss(&*pa5.add($u)),
                )
            };
            c00 = _mm256_fmadd_ps(a0, b0, c00);
            c01 = _mm256_fmadd_ps(a0, b1, c01);
            c10 = _mm256_fmadd_ps(a1, b0, c10);
            c11 = _mm256_fmadd_ps(a1, b1, c11);
            c20 = _mm256_fmadd_ps(a2, b0, c20);
            c21 = _mm256_fmadd_ps(a2, b1, c21);
            c30 = _mm256_fmadd_ps(a3, b0, c30);
            c31 = _mm256_fmadd_ps(a3, b1, c31);
            c40 = _mm256_fmadd_ps(a4, b0, c40);
            c41 = _mm256_fmadd_ps(a4, b1, c41);
            c50 = _mm256_fmadd_ps(a5, b0, c50);
            c51 = _mm256_fmadd_ps(a5, b1, c51);
        };
    }
    macro_rules! advance {
        ($by:expr) => {
            // SAFETY: the depth loops advance each stream at most to one
            // past its final element — a valid one-past-the-end pointer.
            unsafe {
                pa0 = pa0.add($by);
                pa1 = pa1.add($by);
                pa2 = pa2.add($by);
                pa3 = pa3.add($by);
                pa4 = pa4.add($by);
                pa5 = pa5.add($by);
                pb = pb.add($by * NR);
            }
        };
    }

    let mut d = 0;
    while d + 4 <= kc {
        step!(0);
        step!(1);
        step!(2);
        step!(3);
        advance!(4);
        d += 4;
    }
    while d < kc {
        step!(0);
        advance!(1);
        d += 1;
    }

    macro_rules! store_row {
        ($r:expr, $v0:expr, $v1:expr) => {
            // SAFETY: row `$r < MR` of C has NR writable floats at
            // stride `ldc` (full-tile caller contract).
            unsafe {
                let crow = c.add($r * ldc);
                if accumulate {
                    _mm256_storeu_ps(crow, _mm256_add_ps(_mm256_loadu_ps(crow), $v0));
                    _mm256_storeu_ps(
                        crow.add(8),
                        _mm256_add_ps(_mm256_loadu_ps(crow.add(8)), $v1),
                    );
                } else {
                    _mm256_storeu_ps(crow, $v0);
                    _mm256_storeu_ps(crow.add(8), $v1);
                }
            }
        };
    }
    store_row!(0, c00, c01);
    store_row!(1, c10, c11);
    store_row!(2, c20, c21);
    store_row!(3, c30, c31);
    store_row!(4, c40, c41);
    store_row!(5, c50, c51);
}

/// Strided operands of [`gemm_direct`]: element `(i, d)` of A is
/// `a[i·a_row + d·a_depth]`, depth row `d` of B is `b[d·ldb ..]`, and
/// output row `i` is `out[i·ldo ..]`.
pub(crate) struct Direct<'a> {
    pub a: &'a [f32],
    pub a_row: usize,
    pub a_depth: usize,
    pub b: &'a [f32],
    pub ldb: usize,
    pub ldo: usize,
}

/// `out (m × n) = A (m × depth) · B (depth × n)` read straight from
/// strided operands, without packing — for products so small (one
/// window's attention) that packing would cost more than the FMAs.
///
/// Bit-identical to [`gemm`] over the same operands: every element is
/// one FMA chain from +0 over the depth in order, per [`KC`] slab, and
/// later slabs are added to the first.
pub(crate) fn gemm_direct(m: usize, n: usize, depth: usize, v: &Direct<'_>, out: &mut [f32]) {
    if m == 0 || n == 0 || depth == 0 {
        return;
    }
    let last_a = (m - 1) * v.a_row + (depth - 1) * v.a_depth;
    assert!(last_a < v.a.len(), "gemm_direct: A view out of bounds");
    assert!(
        (depth - 1) * v.ldb + n <= v.b.len(),
        "gemm_direct: B view out of bounds"
    );
    assert!(
        (m - 1) * v.ldo + n <= out.len(),
        "gemm_direct: output view out of bounds"
    );
    assert!(simd::avx2_active(), "gemm_direct needs AVX2+FMA");
    // SAFETY: AVX2+FMA verified above; the asserts bound every A index
    // (i < m, d < depth), B row span (d < depth, j < n) and output span
    // (i < m, j < n) the kernel touches.
    unsafe { direct_kernel(m, n, depth, v, out.as_mut_ptr()) }
}

/// The body of [`gemm_direct`]: four output rows (the last one repeated
/// when fewer remain) by eight columns at a time, with masked loads and
/// stores at the right edge.
///
/// # Safety
///
/// AVX2+FMA must be runtime-verified, and every index implied by
/// `m`, `n`, `depth` and the strides of `v` must lie inside `v.a`, `v.b`
/// and the `out` allocation.
#[target_feature(enable = "avx2,fma")]
unsafe fn direct_kernel(m: usize, n: usize, depth: usize, v: &Direct<'_>, out: *mut f32) {
    let (a, b) = (v.a.as_ptr(), v.b.as_ptr());
    for i0 in (0..m).step_by(4) {
        let rows = [
            i0,
            (i0 + 1).min(m - 1),
            (i0 + 2).min(m - 1),
            (i0 + 3).min(m - 1),
        ];
        for j0 in (0..n).step_by(8) {
            let lanes = (n - j0).min(8) as i32;
            let mask = _mm256_setr_epi32(
                -i32::from(lanes > 0),
                -i32::from(lanes > 1),
                -i32::from(lanes > 2),
                -i32::from(lanes > 3),
                -i32::from(lanes > 4),
                -i32::from(lanes > 5),
                -i32::from(lanes > 6),
                -i32::from(lanes > 7),
            );
            let mut total = [_mm256_setzero_ps(); 4];
            for k0 in (0..depth).step_by(KC) {
                let mut acc = [_mm256_setzero_ps(); 4];
                for d in k0..(k0 + KC).min(depth) {
                    // SAFETY: row `d < depth` of B has `n` readable
                    // floats from `j0` on; masked-off lanes are not read.
                    let bv = unsafe { _mm256_maskload_ps(b.add(d * v.ldb + j0), mask) };
                    for (acc, &i) in acc.iter_mut().zip(&rows) {
                        // SAFETY: `i < m` and `d < depth` (caller bound).
                        let av = unsafe { *a.add(i * v.a_row + d * v.a_depth) };
                        *acc = _mm256_fmadd_ps(_mm256_set1_ps(av), bv, *acc);
                    }
                }
                for (t, acc) in total.iter_mut().zip(acc) {
                    *t = if k0 == 0 { acc } else { _mm256_add_ps(*t, acc) };
                }
            }
            for (r, t) in total.iter().enumerate().take(m - i0) {
                // SAFETY: row `i0 + r < m` of the output has `n` writable
                // floats from `j0` on; masked-off lanes are not written.
                unsafe { _mm256_maskstore_ps(out.add((i0 + r) * v.ldo + j0), mask, *t) };
            }
        }
    }
}

/// Dimensions of a kernel-gradient GEMM ([`conv_kernel_grad`]).
pub(crate) struct ConvShape {
    pub batches: usize,
    pub rows_in: usize,
    pub rows_out: usize,
    pub k: usize,
    pub l: usize,
    pub pl: usize,
}

/// Packs every row block of A over the whole depth, as [`gemm_panels`]
/// reads it: block `ib` at `ib·depth·MR`. The caller recycles the buffer.
pub(crate) fn pack_a<A: APanelSrc>(m: usize, depth: usize, a: &A) -> Vec<f32> {
    let nblocks = m.div_ceil(MR);
    // Fully packed before use — unspecified initial contents are fine.
    let mut pa = scratch::take_full(nblocks * depth * MR);
    for ib in 0..nblocks {
        let (i0, dst) = (ib * MR, &mut pa[ib * depth * MR..][..depth * MR]);
        a.pack_block(0, depth, i0, MR.min(m - i0), dst);
    }
    pa
}

/// `out (m × n) = A (m × depth) · B (depth × n)`, one column panel at a
/// time, the whole depth in one microkernel pass, with A packed by
/// [`pack_a`] — so a caller running many products against one A packs
/// it once.
///
/// B is packed one panel at a time by `pack_b(j0, w, dst)`, which writes
/// columns `j0 .. j0 + w` of every depth row `d` to `dst[d·NR ..]` and
/// zeros columns `w .. NR`; the panel then meets every row block while it
/// is L1-resident, and its buffer is the same size whatever `n` is.
/// Panels fan out over the pool, each writing only its own columns of
/// `out`.
pub(crate) fn gemm_panels(
    m: usize,
    n: usize,
    depth: usize,
    pa: &[f32],
    pack_b: &PackPanel<'_>,
    out: &mut [f32],
) {
    assert_eq!(out.len(), m * n, "gemm_panels output length");
    let nblocks = m.div_ceil(MR);
    assert_eq!(pa.len(), nblocks * depth * MR, "packed A length");
    if m == 0 || n == 0 || depth == 0 {
        return;
    }
    let base = SyncMutPtr(out.as_mut_ptr());
    let npanels = n.div_ceil(NR);
    let run_panel = |jp: usize| {
        let j0 = jp * NR;
        let w = NR.min(n - j0);
        let mut pb = scratch::take_full(depth * NR);
        pack_b(j0, w, &mut pb);
        for ib in 0..nblocks {
            let i0 = ib * MR;
            // SAFETY: same contract as in `gemm` — both panels are fully
            // packed for `depth` steps, `i0 < m` and `j0 < n`, and the
            // tile stays inside rows i0..i0+h, columns j0..j0+w of `out`
            // (stride `n`), which no other panel writes.
            unsafe {
                microkernel(
                    pa.as_ptr().add(ib * depth * MR),
                    pb.as_ptr(),
                    depth,
                    base.get().add(i0 * n + j0),
                    n,
                    MR.min(m - i0),
                    w,
                    false,
                );
            }
        }
        scratch::recycle(pb);
    };
    if par::threads() > 1 && m * n >= par::PAR_THRESHOLD && npanels > 1 {
        par::for_each_index(npanels, run_panel);
    } else {
        for jp in 0..npanels {
            run_panel(jp);
        }
    }
}

/// The B packer of [`gemm_panels`]: `(j0, w, dst)`.
pub(crate) type PackPanel<'a> = dyn Fn(usize, usize, &mut [f32]) + Sync + 'a;

/// Kernel gradient as one batch-fused GEMM:
/// `gw (C_out × C_in·k) = Σ_{bi,t} grad_out[bi][·][t] · X̃[bi][·][t]ᵀ`,
/// i.e. an `nt`-shaped product whose depth is the whole batch-time extent
/// `B·L` — the deepest (and best-amortized) contraction in the backend.
///
/// Several output gradients of one input (`gs`, each `(B, C_out, L)`)
/// stack into one GEMM of `gs.len()·C_out` rows: the input windows are
/// padded and packed once, and row block `i` of `gw` is the gradient of
/// kernel `i`. Every element is bit-identical to a separate call's,
/// because a row's result depends only on its own A stream and the
/// shared B panels.
pub(crate) fn conv_kernel_grad(x: &[f32], gs: &[&Tensor], gw: &mut [f32], s: &ConvShape) {
    let (l, stride) = (s.l, s.l + s.k - 1);
    let m = gs.len() * s.rows_out;
    debug_assert_eq!(gw.len(), m * s.rows_in * s.k);
    if l == 0 || s.batches == 0 {
        return;
    }
    // Pad every batch element's input rows once (forward-side padding).
    let mut pad = scratch::take_zeroed(s.batches * s.rows_in * stride);
    for r in 0..s.batches * s.rows_in {
        pad[r * stride + s.pl..r * stride + s.pl + l].copy_from_slice(&x[r * l..(r + 1) * l]);
    }
    gemm(
        m,
        s.rows_in * s.k,
        s.batches * l,
        &ABatchRows {
            parts: gs,
            rows: s.rows_out,
            l,
        },
        &BBatchWindows {
            pad: &pad,
            stride,
            cin: s.rows_in,
            k: s.k,
            l,
        },
        gw,
    );
    scratch::recycle(pad);
}
