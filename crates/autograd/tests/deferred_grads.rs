//! The backward's deferred phase against the inline sweep it replaced.
//!
//! [`Tape::backward`] holds leaf weight gradients (`Matmul` right operands,
//! `Conv1d` and `Glu` kernels) back from the reverse sweep, computes them
//! in one pool fan-out, and then adds every leaf contribution in sweep
//! order. Each graph here is checked by `to_bits` against a hand-written
//! reverse pass that calls the same `Tensor` kernels in the order a
//! single inline sweep calls them, at 1 and 2 pool threads.

use cae_autograd::{ParamStore, Tape, Var};
use cae_tensor::{par, Padding, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Serializes the tests: the pool's thread count is process-global.
fn lock() -> MutexGuard<'static, ()> {
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    GATE.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Puts the pool back to one thread even when a check panics.
struct OneThreadOnDrop;

impl Drop for OneThreadOnDrop {
    fn drop(&mut self) {
        par::set_threads(1);
    }
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

fn rand(dims: &[usize], rng: &mut StdRng) -> Tensor {
    Tensor::rand_uniform(dims, -1.0, 1.0, rng)
}

/// Runs `check` at 1 and 2 pool threads.
fn at_one_and_two_threads(check: impl Fn(usize)) {
    let _gate = lock();
    let _reset = OneThreadOnDrop;
    for threads in [1, 2] {
        par::set_threads(threads);
        check(threads);
    }
}

/// `(leaf, ∂loss/∂leaf)` pairs compared by bits.
fn assert_grads(tape: &Tape, expected: &[(Var, Tensor)], what: &str, threads: usize) {
    for (i, (leaf, want)) in expected.iter().enumerate() {
        let got = tape.grad(*leaf).expect("every leaf feeds the loss");
        assert!(
            bits(got) == bits(want),
            "{what}: leaf {i} differs from the inline sweep at {threads} thread(s)"
        );
    }
}

/// A parameter consumed by three `Matmul` nodes and an `Add`: its four
/// contributions (deferred, deferred, inline, deferred in sweep order)
/// must fold in exactly that order.
#[test]
fn leaf_shared_by_matmuls_and_an_add_folds_in_sweep_order() {
    let mut rng = StdRng::seed_from_u64(11);
    let xs = [0; 3].map(|_| rand(&[6, 5], &mut rng));
    let (w, c) = (rand(&[5, 7], &mut rng), rand(&[5, 7], &mut rng));
    let (mask_s, mask_a) = (rand(&[6, 7], &mut rng), rand(&[5, 7], &mut rng));

    // Today's inline order: the sweep meets m3, m2, a, then m1.
    let [g1, g2, g3] = xs.each_ref().map(|x| x.matmul_tn(&mask_s));
    let fold = |parts: [&Tensor; 4]| {
        let mut sum = parts[0].clone();
        for part in &parts[1..] {
            sum.add_inplace(part);
        }
        sum
    };
    let want_w = fold([&g3, &g2, &mask_a, &g1]);
    let want_x = mask_s.matmul_nt(&w);
    // The check can tell the orders apart: adding the inline
    // contribution first gives other bits.
    let other_order = fold([&mask_a, &g3, &g2, &g1]);
    assert_ne!(bits(&want_w), bits(&other_order), "pick another seed");

    at_one_and_two_threads(|threads| {
        let mut store = ParamStore::new();
        let w_id = store.register("w", w.clone());
        let mut tape = Tape::new();
        let [x1, x2, x3] = xs.each_ref().map(|t| tape.constant(t.clone()));
        let cv = tape.constant(c.clone());
        let wv = tape.param(&store, w_id);
        let m1 = tape.matmul(x1, wv);
        let a = tape.add(wv, cv);
        let m2 = tape.matmul(x2, wv);
        let m3 = tape.matmul(x3, wv);
        let s = tape.add(m1, m2);
        let s = tape.add(s, m3);
        let ps = tape.mul_const(s, &mask_s);
        let ls = tape.sum_all(ps);
        let pa = tape.mul_const(a, &mask_a);
        let la = tape.sum_all(pa);
        let loss = tape.add(ls, la);
        tape.backward(loss);
        let expected = [
            (wv, want_w.clone()),
            (x1, want_x.clone()),
            (x2, want_x.clone()),
            (x3, want_x.clone()),
            (cv, mask_a.clone()),
        ];
        assert_grads(&tape, &expected, "shared leaf", threads);
        tape.accumulate_param_grads(&mut store);
        assert_eq!(bits(store.grad(w_id)), bits(&want_w));
    });
}

/// A `Conv1d` whose kernel is computed on the tape stays inline: its
/// gradient must flow on through the sweep into the leaf behind it. A
/// second convolution of the same input by a leaf kernel is deferred.
#[test]
fn conv_with_a_computed_kernel_stays_inline() {
    let mut rng = StdRng::seed_from_u64(12);
    let x = rand(&[3, 4, 11], &mut rng);
    let k_leaf = rand(&[5, 4, 3], &mut rng);
    let k_direct = rand(&[5, 4, 3], &mut rng);
    let (mask1, mask2) = (rand(&[3, 5, 11], &mut rng), rand(&[3, 5, 11], &mut rng));

    // Sweep order: the direct conv (node after the computed one) first.
    let want_k_direct = Tensor::conv1d_kernel_grad(&x, &mask2, 3, Padding::Causal);
    let mut want_x = Tensor::conv1d_input_grad(&mask2, &k_direct, Padding::Causal);
    let k_computed = k_leaf.scale(0.5);
    want_x.add_inplace(&Tensor::conv1d_input_grad(
        &mask1,
        &k_computed,
        Padding::Same,
    ));
    let want_k_leaf = Tensor::conv1d_kernel_grad(&x, &mask1, 3, Padding::Same).scale(0.5);

    at_one_and_two_threads(|threads| {
        let mut tape = Tape::new();
        let [xv, kv, kd] = [&x, &k_leaf, &k_direct].map(|t| tape.constant(t.clone()));
        let half = tape.mul_scalar(kv, 0.5);
        let y1 = tape.conv1d(xv, half, Padding::Same);
        let y2 = tape.conv1d(xv, kd, Padding::Causal);
        let p1 = tape.mul_const(y1, &mask1);
        let p2 = tape.mul_const(y2, &mask2);
        let (l1, l2) = (tape.sum_all(p1), tape.sum_all(p2));
        let loss = tape.add(l1, l2);
        tape.backward(loss);
        let expected = [
            (kd, want_k_direct.clone()),
            (xv, want_x.clone()),
            (kv, want_k_leaf.clone()),
        ];
        assert_grads(&tape, &expected, "computed kernel", threads);
    });
}

/// A GLU block, a convolution and a linear head, all on leaf parameters:
/// the shape of one CAE layer's training step.
#[test]
fn glu_conv_and_linear_on_leaf_parameters_match_the_inline_sweep() {
    let mut rng = StdRng::seed_from_u64(13);
    let (b, c, l, co, out) = (3, 4, 9, 5, 3);
    let x = rand(&[b, c, l], &mut rng);
    let (wv, bv) = (rand(&[c, c, 3], &mut rng), rand(&[c], &mut rng));
    let (wg, bg) = (rand(&[c, c, 3], &mut rng), rand(&[c], &mut rng));
    let (kc, bc) = (rand(&[co, c, 3], &mut rng), rand(&[co], &mut rng));
    let (w, bias) = (rand(&[co, out], &mut rng), rand(&[out], &mut rng));
    let target = rand(&[b * l, out], &mut rng);

    // Forward, by the same kernels the fused node and the ops use.
    let value = x.conv1d(&wv, Padding::Causal).add_bias_channel(&bv);
    let gate = x
        .conv1d(&wg, Padding::Causal)
        .add_bias_channel(&bg)
        .sigmoid();
    let glu = value.mul(&gate);
    let conv = glu.conv1d(&kc, Padding::Same).add_bias_channel(&bc);
    let flat = conv.transpose12().reshape(&[b * l, co]);
    let pred = flat.matmul(&w).add_bias_last(&bias);

    // Today's inline reverse pass, node by node from the loss.
    let g_pred = pred.sub(&target).scale(2.0 / target.len() as f32);
    let want_bias = g_pred.sum_keep_last();
    let g_flat = g_pred.matmul_nt(&w);
    let want_w = flat.matmul_tn(&g_pred);
    let g_conv = g_flat.reshape(&[b, l, co]).transpose12();
    let want_bc = g_conv.sum_keep_channel();
    let g_glu = Tensor::conv1d_input_grad(&g_conv, &kc, Padding::Same);
    let want_kc = Tensor::conv1d_kernel_grad(&glu, &g_conv, 3, Padding::Same);
    let g_value = g_glu.mul(&gate);
    let g_pre = Tensor::sigmoid_grad_from_output(&gate, &g_glu.mul(&value));
    let gw = Tensor::conv1d_kernel_grad_stacked(&x, &[&g_value, &g_pre], 3, Padding::Causal);
    let half = gw.len() / 2;
    let want_wv = Tensor::from_vec(gw.data()[..half].to_vec(), &[c, c, 3]);
    let want_wg = Tensor::from_vec(gw.data()[half..].to_vec(), &[c, c, 3]);
    let mut want_x = Tensor::conv1d_input_grad(&g_pre, &wg, Padding::Causal);
    want_x.add_inplace(&Tensor::conv1d_input_grad(&g_value, &wv, Padding::Causal));

    at_one_and_two_threads(|threads| {
        let mut store = ParamStore::new();
        let ids = [&wv, &bv, &wg, &bg, &kc, &bc, &w, &bias].map(|t| store.register("p", t.clone()));
        let mut tape = Tape::new();
        let xv = tape.constant(x.clone());
        let [wvv, bvv, wgv, bgv, kcv, bcv, wv_lin, biasv] = ids.map(|id| tape.param(&store, id));
        let g = tape.glu(xv, (wvv, bvv), (wgv, bgv), Padding::Causal);
        assert_eq!(bits(tape.value(g)), bits(&glu), "forward differs");
        let y = tape.conv1d(g, kcv, Padding::Same);
        let y = tape.add_bias_channel(y, bcv);
        let y = tape.transpose12(y);
        let y = tape.reshape(y, &[b * l, co]);
        let y = tape.matmul(y, wv_lin);
        let y = tape.add_bias_last(y, biasv);
        let loss = tape.mse_loss(y, &target);
        tape.backward(loss);
        let expected = [
            (xv, want_x.clone()),
            (wvv, want_wv.clone()),
            (bvv, g_value.sum_keep_channel()),
            (wgv, want_wg.clone()),
            (bgv, g_pre.sum_keep_channel()),
            (kcv, want_kc.clone()),
            (bcv, want_bc.clone()),
            (wv_lin, want_w.clone()),
            (biasv, want_bias.clone()),
        ];
        assert_grads(&tape, &expected, "glu/conv/linear", threads);
    });
}
