//! Bit-exact determinism of the pooled/threaded kernels.
//!
//! The worker pool splits every kernel into contiguous output spans that
//! are computed exactly as the sequential loop would — and the packed
//! GEMM core fixes its row-block geometry by tile size, never by worker
//! count — so results must be **bit identical** across thread counts
//! *within each dispatch path* (packed AVX2 and forced scalar), and
//! across buffer-recycling cycles. These tests pin that contract for
//! matmul, the batched matmuls, the convolution kernels, and the
//! reductions, on both paths.
//!
//! All tests share one mutex: the thread count and the dispatch override
//! are process-global state, so the assertions must not interleave.

use cae_tensor::{par, simd, Padding, Tensor};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Serializes tests that mutate the global thread count.
fn lock() -> MutexGuard<'static, ()> {
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    GATE.get_or_init(|| Mutex::new(()))
        .lock()
        .expect("determinism gate poisoned")
}

/// Deterministic pseudo-random tensor (splitmix-style LCG).
fn rand_tensor(dims: &[usize], seed: u64) -> Tensor {
    let n: usize = dims.iter().product();
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
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

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Runs `f` at every thread count and asserts the outputs are bit-equal
/// to the sequential (1-thread) result, separately **within each**
/// dispatch path: once with the default dispatch (packed AVX2 where the
/// host has it) and once with the scalar path forced. Packing must not
/// make results depend on the worker count.
fn assert_bit_exact_across_threads(name: &str, f: impl Fn() -> Vec<Vec<f32>>) {
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            simd::set_force_scalar(false);
            par::set_threads(1);
        }
    }
    let _reset = Reset;
    for force_scalar in [false, true] {
        simd::set_force_scalar(force_scalar);
        let path = if force_scalar { "scalar" } else { "dispatched" };
        par::set_threads(1);
        let reference = f();
        for &t in &THREAD_COUNTS[1..] {
            par::set_threads(t);
            let got = f();
            par::set_threads(1);
            assert_eq!(
                reference.len(),
                got.len(),
                "{name} [{path}]: output count differs at {t} threads"
            );
            for (out_idx, (a, b)) in reference.iter().zip(got.iter()).enumerate() {
                assert!(
                    a == b,
                    "{name} [{path}]: output {out_idx} not bit-exact at {t} threads"
                );
            }
        }
    }
}

#[test]
fn matmul_family_bit_exact_across_thread_counts() {
    let _gate = lock();
    // Big enough that every kernel clears PAR_THRESHOLD and fans out.
    let a2 = rand_tensor(&[96, 64], 1);
    let b2 = rand_tensor(&[64, 80], 2);
    let a3 = rand_tensor(&[48, 24, 16], 3);
    let b3 = rand_tensor(&[48, 16, 24], 4);
    let bt = rand_tensor(&[48, 24, 16], 5);
    assert_bit_exact_across_threads("matmul family", || {
        vec![
            a2.matmul(&b2).into_vec(),
            a2.matmul_nt(&rand_tensor(&[80, 64], 6)).into_vec(),
            a2.matmul_tn(&rand_tensor(&[96, 80], 7)).into_vec(),
            a3.bmm(&b3).into_vec(),
            a3.bmm_nt(&bt).into_vec(),
            a3.transpose12().bmm_tn(&b3).into_vec(),
        ]
    });
}

#[test]
fn matmul_edge_tiles_bit_exact_across_thread_counts() {
    let _gate = lock();
    // Dimensions off the 6×16 tile grid: the last row block is 4 high
    // and the last column panel 5 wide, so the packed path exercises its
    // zero-padded edge tiles at every thread count.
    let a = rand_tensor(&[94, 37], 51);
    let b = rand_tensor(&[37, 85], 52);
    assert_bit_exact_across_threads("matmul edge tiles", || {
        vec![
            a.matmul(&b).into_vec(),
            a.matmul_nt(&rand_tensor(&[85, 37], 53)).into_vec(),
            a.matmul_tn(&rand_tensor(&[94, 85], 54)).into_vec(),
        ]
    });
}

#[test]
fn conv_kernels_bit_exact_across_thread_counts() {
    let _gate = lock();
    let x = rand_tensor(&[32, 16, 32], 11);
    let w = rand_tensor(&[16, 16, 3], 12);
    let g = rand_tensor(&[32, 16, 32], 13);
    // Deep kernel gradients: B·L = 37·15 = 555 spans two depth slabs, the
    // second starting mid-window; C_in·K = 7·k is never a multiple of the
    // 16-column panel.
    let xd = rand_tensor(&[37, 7, 15], 14);
    let gd = rand_tensor(&[37, 10, 15], 15);
    assert_bit_exact_across_threads("conv kernels", || {
        let mut outs = vec![
            x.conv1d(&w, Padding::Same).into_vec(),
            x.conv1d(&w, Padding::Causal).into_vec(),
            Tensor::conv1d_input_grad(&g, &w, Padding::Same).into_vec(),
            Tensor::conv1d_input_grad(&g, &w, Padding::Causal).into_vec(),
            Tensor::conv1d_kernel_grad(&x, &g, 3, Padding::Same).into_vec(),
            Tensor::conv1d_kernel_grad(&x, &g, 3, Padding::Causal).into_vec(),
        ];
        for k in [1, 2, 5] {
            for padding in [Padding::Same, Padding::Causal] {
                outs.push(Tensor::conv1d_kernel_grad(&xd, &gd, k, padding).into_vec());
            }
        }
        outs
    });
}

#[test]
fn reductions_bit_exact_across_thread_counts() {
    let _gate = lock();
    let x = rand_tensor(&[24, 32, 24], 21);
    assert_bit_exact_across_threads("reductions", || {
        vec![
            x.sum_axis0().into_vec(),
            x.sum_keep_last().into_vec(),
            x.sum_keep_channel().into_vec(),
            vec![x.sum(), x.mean(), x.sq_norm()],
            x.row_sq_norms(),
        ]
    });
}

#[test]
fn rand_normal_bit_exact_across_thread_counts() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let _gate = lock();
    // The training noise shape (B = 32, w = 16, D = 38) and odd counts
    // on either side of `PAR_THRESHOLD`, so the transform fans out.
    assert_bit_exact_across_threads("rand_normal", || {
        [
            32 * 16 * 38,
            par::PAR_THRESHOLD + 1,
            2 * par::PAR_THRESHOLD - 1,
            7,
        ]
        .iter()
        .map(|&n| {
            Tensor::rand_normal(&[n], 0.25, 0.1, &mut StdRng::seed_from_u64(n as u64)).into_vec()
        })
        .collect()
    });
}

#[test]
fn results_unchanged_after_scratch_recycling() {
    let _gate = lock();
    par::set_threads(2);
    let x = rand_tensor(&[32, 16, 32], 31);
    let w = rand_tensor(&[16, 16, 3], 32);
    let a = rand_tensor(&[96, 64], 33);
    let b = rand_tensor(&[64, 96], 34);
    let conv_ref = x.conv1d(&w, Padding::Same);
    let mm_ref = a.matmul(&b);
    // Poison the scratch pool with recycled garbage between runs: pooled
    // outputs must still come back fully initialized.
    for round in 0..5 {
        let mut junk = Tensor::full_pooled(&[32, 16, 32], f32::NAN);
        junk.data_mut()[0] = round as f32;
        junk.recycle();
        Tensor::full_pooled(&[96, 96], f32::INFINITY).recycle();
        let conv = x.conv1d(&w, Padding::Same);
        let mm = a.matmul(&b);
        assert!(conv == conv_ref, "conv output differs after recycling");
        assert!(mm == mm_ref, "matmul output differs after recycling");
        conv.recycle();
        mm.recycle();
    }
    par::set_threads(1);
}

#[test]
fn pool_spawns_workers_once_per_process() {
    let _gate = lock();
    par::set_threads(4);
    let work = || {
        let x = rand_tensor(&[32, 16, 32], 41);
        let w = rand_tensor(&[16, 16, 3], 42);
        x.conv1d(&w, Padding::Same).recycle();
        let a = rand_tensor(&[96, 64], 43);
        a.matmul(&rand_tensor(&[64, 96], 44)).recycle();
    };
    work();
    // Other tests in this binary may already have grown the pool to their
    // own thread counts (up to 8 → 7 workers); it must never exceed that.
    let after_warmup = par::pool_threads_spawned();
    assert!(
        (1..=7).contains(&after_warmup),
        "expected 1..=7 workers after a 4-thread kernel, got {after_warmup}"
    );
    for _ in 0..100 {
        work();
    }
    par::set_threads(1);
    assert_eq!(
        par::pool_threads_spawned(),
        after_warmup,
        "pool re-spawned workers on later kernel calls"
    );
}
