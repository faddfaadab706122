//! Property-based tests of tensor algebra identities, plus the
//! cross-dispatch contract: every GEMM/conv entry point must produce the
//! same result (≤1e-4 relative tolerance) on the SIMD and forced-scalar
//! paths.

use cae_tensor::{simd, Padding, Tensor};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Strategy producing a tensor of the given shape with bounded values.
fn tensor_strategy(dims: Vec<usize>) -> impl Strategy<Value = Tensor> {
    let n: usize = dims.iter().product();
    proptest::collection::vec(-10.0f32..10.0, n).prop_map(move |data| Tensor::from_vec(data, &dims))
}

/// Strategy with a tighter value range for cross-path comparisons, so
/// accumulated rounding stays far inside the 1e-4 relative tolerance
/// even for deep contractions.
fn small_tensor_strategy(dims: Vec<usize>) -> impl Strategy<Value = Tensor> {
    let n: usize = dims.iter().product();
    proptest::collection::vec(-2.0f32..2.0, n).prop_map(move |data| Tensor::from_vec(data, &dims))
}

/// The force-scalar override is process-global; comparisons serialize on
/// this gate so a concurrent test cannot flip the path mid-comparison.
fn simd_gate() -> MutexGuard<'static, ()> {
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    GATE.get_or_init(|| Mutex::new(()))
        .lock()
        .expect("simd gate poisoned")
}

/// Runs `f` once on the forced-scalar path and once on the default
/// (SIMD where available) path, returning `(scalar, dispatched)`.
fn on_both_paths(f: impl Fn() -> Tensor) -> (Tensor, Tensor) {
    let _gate = simd_gate();
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            simd::set_force_scalar(false);
        }
    }
    let _reset = Reset;
    simd::set_force_scalar(true);
    let scalar = f();
    simd::set_force_scalar(false);
    (scalar, f())
}

/// Elementwise `|a − b| ≤ tol · max(1, |a|, |b|)`.
fn assert_rel_close(a: &[f32], b: &[f32], tol: f32) {
    assert_eq!(a.len(), b.len(), "length mismatch");
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        let denom = x.abs().max(y.abs()).max(1.0);
        assert!(
            (x - y).abs() <= tol * denom,
            "paths differ at index {i}: {x} vs {y} (tol {tol})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn add_commutes(
        (a, b) in (1usize..5, 1usize..5).prop_flat_map(|(m, n)| {
            (tensor_strategy(vec![m, n]), tensor_strategy(vec![m, n]))
        })
    ) {
        let lhs = a.add(&b);
        let rhs = b.add(&a);
        cae_tensor::assert_close(lhs.data(), rhs.data(), 1e-5);
    }

    #[test]
    fn sub_then_add_roundtrips(
        (a, b) in (1usize..5, 1usize..5).prop_flat_map(|(m, n)| {
            (tensor_strategy(vec![m, n]), tensor_strategy(vec![m, n]))
        })
    ) {
        let roundtrip = a.sub(&b).add(&b);
        cae_tensor::assert_close(roundtrip.data(), a.data(), 1e-4);
    }

    #[test]
    fn matmul_identity_left_and_right(
        a in (1usize..6, 1usize..6).prop_flat_map(|(m, n)| tensor_strategy(vec![m, n]))
    ) {
        let m = a.dims()[0];
        let n = a.dims()[1];
        cae_tensor::assert_close(Tensor::eye(m).matmul(&a).data(), a.data(), 1e-5);
        cae_tensor::assert_close(a.matmul(&Tensor::eye(n)).data(), a.data(), 1e-5);
    }

    #[test]
    fn matmul_distributes_over_add(
        (a, b, c) in (1usize..4, 1usize..4, 1usize..4).prop_flat_map(|(m, k, n)| {
            (
                tensor_strategy(vec![m, k]),
                tensor_strategy(vec![k, n]),
                tensor_strategy(vec![k, n]),
            )
        })
    ) {
        let lhs = a.matmul(&b.add(&c));
        let rhs = a.matmul(&b).add(&a.matmul(&c));
        cae_tensor::assert_close(lhs.data(), rhs.data(), 1e-2);
    }

    #[test]
    fn transpose_is_involution(
        a in (1usize..6, 1usize..6).prop_flat_map(|(m, n)| tensor_strategy(vec![m, n]))
    ) {
        let tt = a.transpose().transpose();
        prop_assert_eq!(tt.data(), a.data());
    }

    #[test]
    fn transpose12_is_involution(
        a in (1usize..4, 1usize..5, 1usize..5)
            .prop_flat_map(|(b, m, n)| tensor_strategy(vec![b, m, n]))
    ) {
        let tt = a.transpose12().transpose12();
        prop_assert_eq!(tt.data(), a.data());
    }

    #[test]
    fn softmax_rows_are_distributions(
        a in (1usize..5, 1usize..6).prop_flat_map(|(m, n)| tensor_strategy(vec![m, n]))
    ) {
        let y = a.softmax_last();
        let n = a.dims()[1];
        for row in y.data().chunks_exact(n) {
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4, "row sum {}", sum);
            prop_assert!(row.iter().all(|&v| (0.0..=1.0001).contains(&v)));
        }
    }

    #[test]
    fn conv_delta_kernel_is_identity(
        a in (1usize..3, 1usize..3, 3usize..10)
            .prop_flat_map(|(b, c, l)| tensor_strategy(vec![b, c, l]))
    ) {
        // A per-channel delta kernel (identity mapping) with Same padding.
        let c = a.dims()[1];
        let mut w = Tensor::zeros(&[c, c, 3]);
        for ci in 0..c {
            w.set(&[ci, ci, 1], 1.0);
        }
        let y = a.conv1d(&w, Padding::Same);
        cae_tensor::assert_close(y.data(), a.data(), 1e-5);
    }

    #[test]
    fn conv_is_linear_in_input(
        (a, b) in (1usize..3, 1usize..3, 4usize..9).prop_flat_map(|(bs, c, l)| {
            (tensor_strategy(vec![bs, c, l]), tensor_strategy(vec![bs, c, l]))
        })
    ) {
        let c = a.dims()[1];
        let mut rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(99);
        let w = Tensor::rand_uniform(&[2, c, 3], -1.0, 1.0, &mut rng);
        let lhs = a.add(&b).conv1d(&w, Padding::Causal);
        let rhs = a.conv1d(&w, Padding::Causal).add(&b.conv1d(&w, Padding::Causal));
        cae_tensor::assert_close(lhs.data(), rhs.data(), 1e-2);
    }

    #[test]
    fn mse_is_nonnegative_and_zero_on_self(
        a in (1usize..5, 1usize..5).prop_flat_map(|(m, n)| tensor_strategy(vec![m, n]))
    ) {
        prop_assert!(a.mse(&a).abs() < 1e-9);
        let shifted = a.add_scalar(1.0);
        let m = a.mse(&shifted);
        prop_assert!((m - 1.0).abs() < 1e-4);
    }

    #[test]
    fn row_sq_norms_match_total(
        a in (1usize..5, 1usize..5).prop_flat_map(|(m, n)| tensor_strategy(vec![m, n]))
    ) {
        let per_row: f32 = a.row_sq_norms().iter().sum();
        prop_assert!((per_row - a.sq_norm()).abs() < 1e-2 * (1.0 + a.sq_norm()));
    }

    /// The register-blocked `matmul_into` against a textbook triple loop,
    /// with inner dims straddling the 4-way unroll boundary.
    #[test]
    fn blocked_matmul_matches_naive_reference(
        (a, b) in (1usize..7, 1usize..11, 1usize..7).prop_flat_map(|(m, k, n)| {
            (tensor_strategy(vec![m, k]), tensor_strategy(vec![k, n]))
        })
    ) {
        let (m, k) = (a.dims()[0], a.dims()[1]);
        let n = b.dims()[1];
        let fast = a.matmul(&b);
        let mut naive = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a.data()[i * k + p] * b.data()[p * n + j];
                }
                naive[i * n + j] = acc;
            }
        }
        // |entry| <= k * 100; scale the tolerance with the contraction depth.
        cae_tensor::assert_close(fast.data(), &naive, 1e-3 * k as f32);
    }

    /// `conv1d` and `conv1d_input_grad` against textbook quintuple loops,
    /// across kernel sizes straddling the 4-way unroll boundary of the
    /// GEMM depth (`C_in·K`), for both padding modes, with windows up to
    /// 40 long so a window spans up to three 16-column panels.
    #[test]
    fn fused_conv1d_matches_naive_reference(
        (x, w, g, causal) in (1usize..3, 1usize..4, 2usize..41, 1usize..8, 1usize..3)
            .prop_flat_map(|(bs, cin, l, k, cout)| {
                (
                    tensor_strategy(vec![bs, cin, l]),
                    tensor_strategy(vec![cout, cin, k]),
                    tensor_strategy(vec![bs, cout, l]),
                    any::<bool>(),
                )
            })
    ) {
        let padding = if causal { Padding::Causal } else { Padding::Same };
        let (bs, cin, l) = (x.dims()[0], x.dims()[1], x.dims()[2]);
        let (cout, k) = (w.dims()[0], w.dims()[2]);
        let pl = padding.left(k) as isize;
        let fast = x.conv1d(&w, padding);
        let fast_gx = Tensor::conv1d_input_grad(&g, &w, padding);
        let mut naive = Tensor::zeros(&[bs, cout, l]);
        let mut naive_gx = Tensor::zeros(&[bs, cin, l]);
        for bi in 0..bs {
            for co in 0..cout {
                for t in 0..l {
                    let mut acc = 0.0f32;
                    for ci in 0..cin {
                        for j in 0..k {
                            let s = t as isize + j as isize - pl;
                            if s >= 0 && (s as usize) < l {
                                acc += w.at(&[co, ci, j]) * x.at(&[bi, ci, s as usize]);
                            }
                        }
                    }
                    naive.set(&[bi, co, t], acc);
                }
            }
            // gx[ci][s] = Σ K[co][ci][j]·g[co][s + pl − j].
            for ci in 0..cin {
                for s in 0..l {
                    let mut acc = 0.0f32;
                    for co in 0..cout {
                        for j in 0..k {
                            let t = s as isize + pl - j as isize;
                            if t >= 0 && (t as usize) < l {
                                acc += w.at(&[co, ci, j]) * g.at(&[bi, co, t as usize]);
                            }
                        }
                    }
                    naive_gx.set(&[bi, ci, s], acc);
                }
            }
        }
        cae_tensor::assert_close(fast.data(), naive.data(), 1e-3 * (cin * k) as f32);
        cae_tensor::assert_close(fast_gx.data(), naive_gx.data(), 1e-3 * (cout * k) as f32);
    }

    /// SIMD vs forced-scalar for the 2-D matmul family, with dimensions
    /// straddling the 6×16 tile edges and the packed-path size cutoff.
    #[test]
    fn simd_matches_scalar_matmul_family(
        (a, b) in (1usize..20, 1usize..24, 1usize..36).prop_flat_map(|(m, k, n)| {
            (small_tensor_strategy(vec![m, k]), small_tensor_strategy(vec![k, n]))
        })
    ) {
        let (scalar, simd_r) = on_both_paths(|| a.matmul(&b));
        assert_rel_close(scalar.data(), simd_r.data(), 1e-4);
        let (scalar, simd_r) = on_both_paths(|| a.transpose().matmul_tn(&b));
        assert_rel_close(scalar.data(), simd_r.data(), 1e-4);
        let (scalar, simd_r) = on_both_paths(|| a.matmul_nt(&b.transpose()));
        assert_rel_close(scalar.data(), simd_r.data(), 1e-4);
    }

    /// SIMD vs forced-scalar for the batched matmul family.
    #[test]
    fn simd_matches_scalar_bmm_family(
        (a, b) in (1usize..5, 1usize..14, 1usize..14, 1usize..20).prop_flat_map(|(bs, m, k, n)| {
            (small_tensor_strategy(vec![bs, m, k]), small_tensor_strategy(vec![bs, k, n]))
        })
    ) {
        let (scalar, simd_r) = on_both_paths(|| a.bmm(&b));
        assert_rel_close(scalar.data(), simd_r.data(), 1e-4);
        let (scalar, simd_r) = on_both_paths(|| a.bmm_nt(&b.transpose12()));
        assert_rel_close(scalar.data(), simd_r.data(), 1e-4);
        let (scalar, simd_r) = on_both_paths(|| a.transpose12().bmm_tn(&b));
        assert_rel_close(scalar.data(), simd_r.data(), 1e-4);
    }

    /// SIMD vs forced-scalar for the convolution forward and both
    /// adjoints, across kernel sizes and both padding modes. One draw in
    /// four is a deep kernel-gradient shape: `B·L` = 555 spans two depth
    /// slabs of the packed GEMM (512 + 43), the second starting mid-window
    /// (t = 2), and `C_in·K` (6..=45) is mostly not a multiple of the
    /// 16-column panel, so the gather packer's offsets and zero-padded
    /// edge panels are covered for every k in 1..=5.
    #[test]
    fn simd_matches_scalar_conv_family(
        (x, w, g, causal) in ((1usize..4, 1usize..5, 2usize..24, 1usize..6, 1usize..5), 0usize..4)
            .prop_flat_map(|((bs, cin, l, k, cout), shape)| {
                let (bs, cin, l) = if shape == 0 { (37, cin + 5, 15) } else { (bs, cin, l) };
                (
                    small_tensor_strategy(vec![bs, cin, l]),
                    small_tensor_strategy(vec![cout, cin, k]),
                    small_tensor_strategy(vec![bs, cout, l]),
                    any::<bool>(),
                )
            })
    ) {
        let padding = if causal { Padding::Causal } else { Padding::Same };
        let k = w.dims()[2];
        let (scalar, simd_r) = on_both_paths(|| x.conv1d(&w, padding));
        assert_rel_close(scalar.data(), simd_r.data(), 1e-4);
        let (scalar, simd_r) = on_both_paths(|| Tensor::conv1d_input_grad(&g, &w, padding));
        assert_rel_close(scalar.data(), simd_r.data(), 1e-4);
        let (scalar, simd_r) =
            on_both_paths(|| Tensor::conv1d_kernel_grad(&x, &g, k, padding));
        assert_rel_close(scalar.data(), simd_r.data(), 1e-4);
    }

    /// SIMD vs forced-scalar for the dispatched elementwise kernels and
    /// reductions (the transcendentals use a polynomial `exp` on the
    /// vector path, so the comparison is toleranced, not bit-exact).
    #[test]
    fn simd_matches_scalar_elementwise(
        x in (1usize..6, 1usize..40).prop_flat_map(|(m, n)| small_tensor_strategy(vec![m, n]))
    ) {
        for op in [Tensor::sigmoid, Tensor::tanh, Tensor::relu, Tensor::softmax_last] {
            let (scalar, simd_r) = on_both_paths(|| op(&x));
            assert_rel_close(scalar.data(), simd_r.data(), 1e-4);
        }
        let (scalar, simd_r) = on_both_paths(|| Tensor::scalar(x.sum()));
        assert_rel_close(scalar.data(), simd_r.data(), 1e-4);
        let (scalar, simd_r) = on_both_paths(|| Tensor::scalar(x.sq_norm()));
        assert_rel_close(scalar.data(), simd_r.data(), 1e-4);
    }
}
