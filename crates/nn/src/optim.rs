//! Gradient-descent optimizers over a [`ParamStore`].

use cae_autograd::ParamStore;
use cae_tensor::simd::{self, AdamStep};
use cae_tensor::Tensor;

/// Common optimizer interface: consume accumulated gradients, update
/// parameter values, and reset the accumulators.
pub trait Optimizer {
    /// Applies one update step using the gradients accumulated in `store`,
    /// then zeroes them.
    fn step(&mut self, store: &mut ParamStore);

    /// The current learning rate.
    fn learning_rate(&self) -> f32;

    /// Overrides the learning rate (for schedules/sweeps).
    fn set_learning_rate(&mut self, lr: f32);
}

/// Adam (Kingma & Ba) — the optimizer used by the paper
/// ("We use Adam … The learning rate is set to 0.001", Section 4.1.5).
#[derive(Debug)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Adam with the paper's defaults (β₁ = 0.9, β₂ = 0.999, ε = 1e-8),
    /// with moment buffers laid out for `store`.
    pub fn new(store: &ParamStore, lr: f32) -> Self {
        let m = store
            .ids()
            .map(|id| Tensor::zeros(store.value(id).dims()))
            .collect();
        let v = store
            .ids()
            .map(|id| Tensor::zeros(store.value(id).dims()))
            .collect();
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m,
            v,
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, store: &mut ParamStore) {
        self.t += 1;
        let step = AdamStep {
            lr: self.lr,
            beta1: self.beta1,
            beta2: self.beta2,
            eps: self.eps,
            bias_correction1: 1.0 - self.beta1.powi(self.t as i32),
            bias_correction2: 1.0 - self.beta2.powi(self.t as i32),
        };
        assert_eq!(
            store.len(),
            self.m.len(),
            "optimizer layout does not match store"
        );
        for (((value, grad), m), v) in store
            .values_mut_and_grads()
            .zip(&mut self.m)
            .zip(&mut self.v)
        {
            simd::adam_update(
                value.data_mut(),
                m.data_mut(),
                v.data_mut(),
                grad.data(),
                &step,
            );
        }
        store.zero_grads();
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Plain stochastic gradient descent with optional momentum.
#[derive(Debug)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// SGD with the given learning rate and momentum (0 disables momentum).
    pub fn new(store: &ParamStore, lr: f32, momentum: f32) -> Self {
        let velocity = store
            .ids()
            .map(|id| Tensor::zeros(store.value(id).dims()))
            .collect();
        Sgd {
            lr,
            momentum,
            velocity,
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, store: &mut ParamStore) {
        assert_eq!(
            store.len(),
            self.velocity.len(),
            "optimizer layout does not match store"
        );
        for ((value, grad), vel) in store.values_mut_and_grads().zip(&mut self.velocity) {
            for ((p, vel), &g) in value
                .data_mut()
                .iter_mut()
                .zip(vel.data_mut())
                .zip(grad.data())
            {
                let v = self.momentum * *vel + g;
                *vel = v;
                *p -= self.lr * v;
            }
        }
        store.zero_grads();
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cae_autograd::{ParamId, Tape};

    /// Minimizes f(w) = mean((w − c)²) and checks convergence to c.
    fn converges_to_constant(mut opt: impl Optimizer, store: &mut ParamStore, steps: usize) -> f32 {
        let id = store.ids().next().expect("store has one param");
        let target = Tensor::from_vec(vec![1.0, -2.0, 0.5], &[3]);
        for _ in 0..steps {
            let mut tape = Tape::new();
            let w = tape.param(store, id);
            let loss = tape.mse_loss(w, &target);
            tape.backward(loss);
            tape.accumulate_param_grads(store);
            opt.step(store);
        }
        store.value(id).sub(&target).norm()
    }

    #[test]
    fn adam_minimizes_quadratic() {
        let mut store = ParamStore::new();
        store.register("w", Tensor::zeros(&[3]));
        let opt = Adam::new(&store, 0.05);
        let dist = converges_to_constant(opt, &mut store, 400);
        assert!(dist < 1e-2, "Adam did not converge: distance {dist}");
    }

    #[test]
    fn sgd_minimizes_quadratic() {
        let mut store = ParamStore::new();
        store.register("w", Tensor::zeros(&[3]));
        let opt = Sgd::new(&store, 0.3, 0.5);
        let dist = converges_to_constant(opt, &mut store, 200);
        assert!(dist < 1e-2, "SGD did not converge: distance {dist}");
    }

    #[test]
    fn step_resets_gradients() {
        let mut store = ParamStore::new();
        let id = store.register("w", Tensor::zeros(&[2]));
        store.accumulate_grad(id, &Tensor::ones(&[2]));
        let mut opt = Sgd::new(&store, 0.1, 0.0);
        opt.step(&mut store);
        assert_eq!(store.grad(id).data(), &[0.0, 0.0]);
        cae_tensor::assert_close(store.value(id).data(), &[-0.1, -0.1], 1e-6);
    }

    /// `Adam::step` against the textbook loop it vectorizes, by bits:
    /// parameters of 15, 1037 and 7 elements end off the 8-lane grid.
    #[test]
    fn adam_step_matches_the_reference_loop_bit_for_bit() {
        let shapes: [&[usize]; 3] = [&[3, 5], &[1037], &[7]];
        let fill = |n: usize, seed: usize| -> Tensor {
            let data = (0..n)
                .map(|i| ((i * 7919 + seed * 31) % 1_009) as f32 / 504.5 - 1.0)
                .collect();
            Tensor::from_vec(data, &[n])
        };
        let mut store = ParamStore::new();
        for (i, dims) in shapes.iter().enumerate() {
            let n = dims.iter().product();
            store.register(format!("p{i}"), fill(n, i).reshape(dims));
        }
        let mut reference: Vec<(Vec<f32>, Vec<f32>, Vec<f32>)> = store
            .ids()
            .map(|id| {
                let n = store.value(id).len();
                (store.value(id).data().to_vec(), vec![0.0; n], vec![0.0; n])
            })
            .collect();
        let (lr, b1, b2, eps) = (1e-3f32, 0.9f32, 0.999f32, 1e-8f32);
        let mut opt = Adam::new(&store, lr);
        for t in 1..=3 {
            let ids: Vec<ParamId> = store.ids().collect();
            for (k, &id) in ids.iter().enumerate() {
                let n = store.value(id).len();
                let g = fill(n, 10 * t + k).reshape(store.value(id).dims());
                store.accumulate_grad(id, &g);
                let (value, m, v) = &mut reference[k];
                let (bc1, bc2) = (1.0 - b1.powi(t as i32), 1.0 - b2.powi(t as i32));
                for i in 0..n {
                    let g = g.data()[i];
                    m[i] = b1 * m[i] + (1.0 - b1) * g;
                    v[i] = b2 * v[i] + (1.0 - b2) * g * g;
                    value[i] -= lr * (m[i] / bc1) / ((v[i] / bc2).sqrt() + eps);
                }
            }
            opt.step(&mut store);
            for (k, &id) in ids.iter().enumerate() {
                let got: Vec<u32> = store.value(id).data().iter().map(|x| x.to_bits()).collect();
                let want: Vec<u32> = reference[k].0.iter().map(|x| x.to_bits()).collect();
                assert!(got == want, "param {k}, step {t}");
            }
        }
    }

    #[test]
    fn learning_rate_accessors() {
        let store = ParamStore::new();
        let mut opt = Adam::new(&store, 0.001);
        assert_eq!(opt.learning_rate(), 0.001);
        opt.set_learning_rate(0.01);
        assert_eq!(opt.learning_rate(), 0.01);
    }
}
