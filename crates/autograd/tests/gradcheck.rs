//! Finite-difference gradient checks for every autograd op.
//!
//! For each op we build a scalar loss through that op from one or more
//! parameters, compute analytic gradients with `Tape::backward`, and compare
//! against central finite differences on the parameter values.

use cae_autograd::{ParamId, ParamStore, Tape, Var};
use cae_tensor::{Padding, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Central finite-difference gradient of `f` w.r.t. the parameter `id`.
fn finite_diff(
    store: &mut ParamStore,
    id: ParamId,
    f: &dyn Fn(&mut Tape, &ParamStore) -> Var,
) -> Tensor {
    let eps = 1e-2f32;
    let n = store.value(id).len();
    let mut grad = Tensor::zeros(store.value(id).dims());
    for idx in 0..n {
        let orig = store.value(id).data()[idx];

        store.value_mut(id).data_mut()[idx] = orig + eps;
        let mut tape = Tape::new();
        let up_var = f(&mut tape, store);
        let up = tape.value(up_var).item();

        store.value_mut(id).data_mut()[idx] = orig - eps;
        let mut tape = Tape::new();
        let down_var = f(&mut tape, store);
        let down = tape.value(down_var).item();

        store.value_mut(id).data_mut()[idx] = orig;
        grad.data_mut()[idx] = (up - down) / (2.0 * eps);
    }
    grad
}

/// Runs the check: analytic grads of `f`'s scalar output vs finite
/// differences, for every parameter in the store.
fn check_grads(store: &mut ParamStore, f: impl Fn(&mut Tape, &ParamStore) -> Var, tol: f32) {
    let mut tape = Tape::new();
    let loss = f(&mut tape, store);
    assert_eq!(tape.value(loss).len(), 1, "loss must be scalar");
    tape.backward(loss);
    store.zero_grads();
    tape.accumulate_param_grads(store);

    let ids: Vec<ParamId> = store.ids().collect();
    for id in ids {
        let analytic = store.grad(id).clone();
        let numeric = finite_diff(store, id, &f);
        for (i, (&a, &n)) in analytic
            .data()
            .iter()
            .zip(numeric.data().iter())
            .enumerate()
        {
            let denom = 1.0f32.max(a.abs()).max(n.abs());
            assert!(
                (a - n).abs() / denom <= tol,
                "param {:?} ({}) grad mismatch at {i}: analytic {a} vs numeric {n}",
                id,
                store.name(id),
            );
        }
    }
}

fn rng() -> StdRng {
    StdRng::seed_from_u64(12345)
}

fn register(store: &mut ParamStore, name: &str, dims: &[usize], rng: &mut StdRng) -> ParamId {
    store.register(name, Tensor::rand_uniform(dims, -1.0, 1.0, rng))
}

#[test]
fn grad_add_sub_mul() {
    let mut rng = rng();
    let mut store = ParamStore::new();
    let a = register(&mut store, "a", &[3, 4], &mut rng);
    let b = register(&mut store, "b", &[3, 4], &mut rng);
    check_grads(
        &mut store,
        |tape, store| {
            let av = tape.param(store, a);
            let bv = tape.param(store, b);
            let s = tape.add(av, bv);
            let d = tape.sub(s, bv);
            let m = tape.mul(d, bv);
            tape.mean_all(m)
        },
        2e-2,
    );
}

#[test]
fn grad_scalar_ops() {
    let mut rng = rng();
    let mut store = ParamStore::new();
    let a = register(&mut store, "a", &[5], &mut rng);
    check_grads(
        &mut store,
        |tape, store| {
            let av = tape.param(store, a);
            let x = tape.mul_scalar(av, 3.0);
            let y = tape.add_scalar(x, -0.5);
            let z = tape.square(y);
            tape.sum_all(z)
        },
        2e-2,
    );
}

#[test]
fn grad_matmul() {
    let mut rng = rng();
    let mut store = ParamStore::new();
    let a = register(&mut store, "a", &[3, 4], &mut rng);
    let b = register(&mut store, "b", &[4, 2], &mut rng);
    check_grads(
        &mut store,
        |tape, store| {
            let av = tape.param(store, a);
            let bv = tape.param(store, b);
            let c = tape.matmul(av, bv);
            let sq = tape.square(c);
            tape.mean_all(sq)
        },
        2e-2,
    );
}

#[test]
fn grad_bmm_and_bmm_nt() {
    let mut rng = rng();
    let mut store = ParamStore::new();
    let a = register(&mut store, "a", &[2, 3, 4], &mut rng);
    let b = register(&mut store, "b", &[2, 4, 3], &mut rng);
    check_grads(
        &mut store,
        |tape, store| {
            let av = tape.param(store, a);
            let bv = tape.param(store, b);
            let c = tape.bmm(av, bv); // (2,3,3)
            let d = tape.bmm_nt(c, c); // (2,3,3)
            let sq = tape.square(d);
            tape.mean_all(sq)
        },
        3e-2,
    );
}

#[test]
fn grad_transpose_and_reshape() {
    let mut rng = rng();
    let mut store = ParamStore::new();
    let a = register(&mut store, "a", &[2, 3, 4], &mut rng);
    check_grads(
        &mut store,
        |tape, store| {
            let av = tape.param(store, a);
            let t = tape.transpose12(av); // (2,4,3)
            let r = tape.reshape(t, &[4, 6]);
            let sq = tape.square(r);
            tape.sum_all(sq)
        },
        2e-2,
    );
}

#[test]
fn grad_conv1d_same_padding() {
    let mut rng = rng();
    let mut store = ParamStore::new();
    let x = register(&mut store, "x", &[2, 3, 7], &mut rng);
    let w = register(&mut store, "w", &[4, 3, 3], &mut rng);
    check_grads(
        &mut store,
        |tape, store| {
            let xv = tape.param(store, x);
            let wv = tape.param(store, w);
            let y = tape.conv1d(xv, wv, Padding::Same);
            let sq = tape.square(y);
            tape.mean_all(sq)
        },
        3e-2,
    );
}

#[test]
fn grad_conv1d_causal_padding() {
    let mut rng = rng();
    let mut store = ParamStore::new();
    let x = register(&mut store, "x", &[1, 2, 6], &mut rng);
    let w = register(&mut store, "w", &[2, 2, 3], &mut rng);
    check_grads(
        &mut store,
        |tape, store| {
            let xv = tape.param(store, x);
            let wv = tape.param(store, w);
            let y = tape.conv1d(xv, wv, Padding::Causal);
            let sq = tape.square(y);
            tape.sum_all(sq)
        },
        3e-2,
    );
}

#[test]
fn grad_biases() {
    let mut rng = rng();
    let mut store = ParamStore::new();
    let x = register(&mut store, "x", &[2, 3, 4], &mut rng);
    let b_last = register(&mut store, "b_last", &[4], &mut rng);
    let b_chan = register(&mut store, "b_chan", &[3], &mut rng);
    check_grads(
        &mut store,
        |tape, store| {
            let xv = tape.param(store, x);
            let bl = tape.param(store, b_last);
            let bc = tape.param(store, b_chan);
            let y = tape.add_bias_last(xv, bl);
            let z = tape.add_bias_channel(y, bc);
            let sq = tape.square(z);
            tape.mean_all(sq)
        },
        2e-2,
    );
}

#[test]
fn grad_activations() {
    let mut rng = rng();
    let mut store = ParamStore::new();
    let a = register(&mut store, "a", &[4, 5], &mut rng);
    check_grads(
        &mut store,
        |tape, store| {
            let av = tape.param(store, a);
            let s = tape.sigmoid(av);
            let t = tape.tanh(s);
            let e = tape.exp(t);
            let sq = tape.square(e);
            tape.mean_all(sq)
        },
        2e-2,
    );
}

#[test]
fn grad_relu_away_from_kink() {
    let mut store = ParamStore::new();
    // Values far from 0 so finite differences don't straddle the kink.
    let a = store.register(
        "a",
        Tensor::from_vec(vec![1.0, -1.0, 2.0, -2.0, 0.5, -0.5], &[6]),
    );
    check_grads(
        &mut store,
        |tape, store| {
            let av = tape.param(store, a);
            let r = tape.relu(av);
            let sq = tape.square(r);
            tape.sum_all(sq)
        },
        2e-2,
    );
}

#[test]
fn grad_softmax() {
    let mut rng = rng();
    let mut store = ParamStore::new();
    let a = register(&mut store, "a", &[3, 4], &mut rng);
    let target = Tensor::rand_uniform(&[3, 4], 0.0, 1.0, &mut rng);
    check_grads(
        &mut store,
        |tape, store| {
            let av = tape.param(store, a);
            let y = tape.softmax_last(av);
            tape.mse_loss(y, &target)
        },
        2e-2,
    );
}

#[test]
fn grad_mse_loss() {
    let mut rng = rng();
    let mut store = ParamStore::new();
    let a = register(&mut store, "a", &[3, 3], &mut rng);
    let target = Tensor::rand_uniform(&[3, 3], -1.0, 1.0, &mut rng);
    check_grads(
        &mut store,
        |tape, store| {
            let av = tape.param(store, a);
            tape.mse_loss(av, &target)
        },
        2e-2,
    );
}

#[test]
fn grad_shift_right_time() {
    let mut rng = rng();
    let mut store = ParamStore::new();
    let a = register(&mut store, "a", &[2, 4, 3], &mut rng);
    check_grads(
        &mut store,
        |tape, store| {
            let av = tape.param(store, a);
            let s = tape.shift_right_time(av);
            let sq = tape.square(s);
            tape.sum_all(sq)
        },
        2e-2,
    );
}

#[test]
fn grad_mul_const_and_broadcast() {
    let mut rng = rng();
    let mut store = ParamStore::new();
    let a = register(&mut store, "a", &[2, 3, 4], &mut rng);
    let b = register(&mut store, "b", &[3, 4], &mut rng);
    let mask = Tensor::bernoulli_mask(&[2, 3, 4], 0.6, &mut rng);
    check_grads(
        &mut store,
        |tape, store| {
            let av = tape.param(store, a);
            let bv = tape.param(store, b);
            let x = tape.add_broadcast0(av, bv);
            let m = tape.mul_const(x, &mask);
            let sq = tape.square(m);
            tape.mean_all(sq)
        },
        2e-2,
    );
}

#[test]
fn grad_composite_attention_like_block() {
    // A miniature of the paper's attention: scores = softmax(Z Eᵀ),
    // context = scores · E, loss = mse(context + D, target).
    let mut rng = rng();
    let mut store = ParamStore::new();
    let z = register(&mut store, "z", &[2, 4, 3], &mut rng);
    let e = register(&mut store, "e", &[2, 4, 3], &mut rng);
    let d = register(&mut store, "d", &[2, 4, 3], &mut rng);
    let target = Tensor::rand_uniform(&[2, 4, 3], -1.0, 1.0, &mut rng);
    check_grads(
        &mut store,
        |tape, store| {
            let zv = tape.param(store, z);
            let ev = tape.param(store, e);
            let dv = tape.param(store, d);
            let scores = tape.bmm_nt(zv, ev);
            let attn = tape.softmax_last(scores);
            let ctx = tape.bmm(attn, ev);
            let out = tape.add(ctx, dv);
            tape.mse_loss(out, &target)
        },
        3e-2,
    );
}

#[test]
fn grad_composite_glu_conv_block() {
    // GLU(x) = conv(x, W1) ⊙ σ(conv(x, W2)), as in paper Eq. 4–5.
    let mut rng = rng();
    let mut store = ParamStore::new();
    let x = register(&mut store, "x", &[1, 3, 6], &mut rng);
    let w1 = register(&mut store, "w1", &[3, 3, 3], &mut rng);
    let w2 = register(&mut store, "w2", &[3, 3, 3], &mut rng);
    check_grads(
        &mut store,
        |tape, store| {
            let xv = tape.param(store, x);
            let w1v = tape.param(store, w1);
            let w2v = tape.param(store, w2);
            let a1 = tape.conv1d(xv, w1v, Padding::Same);
            let a2 = tape.conv1d(xv, w2v, Padding::Same);
            let gate = tape.sigmoid(a2);
            let glu = tape.mul(a1, gate);
            let sq = tape.square(glu);
            tape.mean_all(sq)
        },
        3e-2,
    );

    // The same block as one fused node, with biases, under both paddings.
    let b1 = register(&mut store, "b1", &[3], &mut rng);
    let b2 = register(&mut store, "b2", &[3], &mut rng);
    for padding in [Padding::Same, Padding::Causal] {
        check_grads(
            &mut store,
            |tape, store| {
                let xv = tape.param(store, x);
                let value = (tape.param(store, w1), tape.param(store, b1));
                let gate = (tape.param(store, w2), tape.param(store, b2));
                let glu = tape.glu(xv, value, gate, padding);
                let sq = tape.square(glu);
                tape.mean_all(sq)
            },
            3e-2,
        );
    }
}
