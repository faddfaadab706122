//! Affine layer over the last axis.

use crate::{Activation, Initializer, XavierInit};
use cae_autograd::{ParamId, ParamStore, Tape, Var};
use cae_tensor::Tensor;
use rand::Rng;

/// Affine map `y = f(x · W + b)` applied over the **last** axis of an
/// input of any rank: `(…, in) → (…, out)`.
///
/// Used for the observation/position embeddings (paper Sec. 3.1.1), the
/// attention state summary `z_t = W_z d_t + b_z` (Eq. 7) and the heads of
/// the recurrent/variational baselines.
#[derive(Clone, Debug)]
pub struct Linear {
    weight: ParamId,
    bias: ParamId,
    in_features: usize,
    out_features: usize,
    activation: Activation,
}

impl Linear {
    /// Registers a Xavier-initialized `(in, out)` weight and zero bias in
    /// `store`.
    pub fn new<R: Rng + ?Sized>(
        store: &mut ParamStore,
        name: &str,
        in_features: usize,
        out_features: usize,
        activation: Activation,
        rng: &mut R,
    ) -> Self {
        Self::with_init(
            store,
            name,
            in_features,
            out_features,
            activation,
            &mut XavierInit(rng),
        )
    }

    /// [`Linear::new`] with an explicit weight [`Initializer`] — the
    /// checkpoint-loading path registers zeros here and overwrites them
    /// with stored values.
    pub fn with_init(
        store: &mut ParamStore,
        name: &str,
        in_features: usize,
        out_features: usize,
        activation: Activation,
        init: &mut impl Initializer,
    ) -> Self {
        let weight = store.register(
            format!("{name}.weight"),
            init.weight(&[in_features, out_features], in_features, out_features),
        );
        let bias = store.register(format!("{name}.bias"), Tensor::zeros(&[out_features]));
        Linear {
            weight,
            bias,
            in_features,
            out_features,
            activation,
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// The `(in, out)` weight and the length-`out` bias in `store`.
    pub fn params<'s>(&self, store: &'s ParamStore) -> (&'s Tensor, &'s Tensor) {
        (store.value(self.weight), store.value(self.bias))
    }

    /// Applies the layer. `x` must have last dimension `in_features`.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, x: Var) -> Var {
        let dims = tape.value(x).dims().to_vec();
        let last = *dims.last().expect("Linear input must have rank >= 1");
        assert_eq!(
            last, self.in_features,
            "Linear: input last dim {last} != in_features {}",
            self.in_features
        );
        let rows: usize = dims[..dims.len() - 1].iter().product();
        let flat = tape.reshape(x, &[rows, self.in_features]);
        let w = tape.param(store, self.weight);
        let b = tape.param(store, self.bias);
        let y = tape.matmul(flat, w);
        let y = tape.add_bias_last(y, b);
        let mut out_dims = dims;
        *out_dims.last_mut().expect("non-empty dims") = self.out_features;
        let y = tape.reshape(y, &out_dims);
        self.activation.apply(tape, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn shapes_any_rank() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut store = ParamStore::new();
        let lin = Linear::new(&mut store, "l", 4, 7, Activation::Identity, &mut rng);
        let mut tape = Tape::new();
        let x2 = tape.constant(Tensor::ones(&[3, 4]));
        let y2 = lin.forward(&mut tape, &store, x2);
        assert_eq!(tape.value(y2).dims(), &[3, 7]);
        let x3 = tape.constant(Tensor::ones(&[2, 5, 4]));
        let y3 = lin.forward(&mut tape, &store, x3);
        assert_eq!(tape.value(y3).dims(), &[2, 5, 7]);
    }

    #[test]
    fn learns_identity_map() {
        use crate::{Adam, Optimizer};
        let mut rng = StdRng::seed_from_u64(9);
        let mut store = ParamStore::new();
        let lin = Linear::new(&mut store, "l", 3, 3, Activation::Identity, &mut rng);
        let mut opt = Adam::new(&store, 0.05);
        let x = Tensor::rand_uniform(&[16, 3], -1.0, 1.0, &mut rng);
        let mut last = f32::INFINITY;
        for _ in 0..200 {
            let mut tape = Tape::new();
            let xv = tape.constant(x.clone());
            let y = lin.forward(&mut tape, &store, xv);
            let loss = tape.mse_loss(y, &x);
            tape.backward(loss);
            tape.accumulate_param_grads(&mut store);
            opt.step(&mut store);
            last = tape.value(loss).item();
        }
        assert!(
            last < 1e-3,
            "identity regression did not converge: loss {last}"
        );
    }

    #[test]
    #[should_panic(expected = "in_features")]
    fn rejects_wrong_input_width() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut store = ParamStore::new();
        let lin = Linear::new(&mut store, "l", 4, 2, Activation::Identity, &mut rng);
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::ones(&[3, 5]));
        lin.forward(&mut tape, &store, x);
    }
}
