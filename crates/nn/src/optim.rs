//! Gradient-descent optimizers over a [`ParamStore`].

use cae_autograd::ParamStore;
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
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let ids: Vec<_> = store.ids().collect();
        assert_eq!(
            ids.len(),
            self.m.len(),
            "optimizer layout does not match store"
        );
        for (slot, id) in ids.into_iter().enumerate() {
            let (value, grad) = store.value_mut_and_grad(id);
            let m = &mut self.m[slot];
            let v = &mut self.v[slot];
            for i in 0..grad.len() {
                let g = grad.data()[i];
                let mi = self.beta1 * m.data()[i] + (1.0 - self.beta1) * g;
                let vi = self.beta2 * v.data()[i] + (1.0 - self.beta2) * g * g;
                m.data_mut()[i] = mi;
                v.data_mut()[i] = vi;
                let m_hat = mi / bc1;
                let v_hat = vi / bc2;
                value.data_mut()[i] -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
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
        let ids: Vec<_> = store.ids().collect();
        assert_eq!(
            ids.len(),
            self.velocity.len(),
            "optimizer layout does not match store"
        );
        for (slot, id) in ids.into_iter().enumerate() {
            let (value, grad) = store.value_mut_and_grad(id);
            let vel = &mut self.velocity[slot];
            for i in 0..grad.len() {
                let g = grad.data()[i];
                let v = self.momentum * vel.data()[i] + g;
                vel.data_mut()[i] = v;
                value.data_mut()[i] -= self.lr * v;
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
    use cae_autograd::Tape;

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

    #[test]
    fn learning_rate_accessors() {
        let store = ParamStore::new();
        let mut opt = Adam::new(&store, 0.001);
        assert_eq!(opt.learning_rate(), 0.001);
        opt.set_learning_rate(0.01);
        assert_eq!(opt.learning_rate(), 0.01);
    }
}
