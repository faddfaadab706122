//! Convolutional layers: plain conv and the paper's gated (GLU) block.

use crate::{Activation, Initializer, XavierInit};
use cae_autograd::{ParamId, ParamStore, Tape, Var};
use cae_tensor::{Padding, Tensor};
use rand::Rng;

/// 1-D convolution plus channel bias and activation over `(B, C, L)` data:
/// `y = f(W ⊗ x + b)`.
#[derive(Clone, Debug)]
pub struct Conv1dLayer {
    kernel: ParamId,
    bias: ParamId,
    in_channels: usize,
    out_channels: usize,
    kernel_size: usize,
    padding: Padding,
    activation: Activation,
}

impl Conv1dLayer {
    /// Registers an Xavier-initialized `(out, in, k)` kernel (fan-in
    /// `in·k`, fan-out `out·k`) and zero bias.
    #[allow(clippy::too_many_arguments)]
    pub fn new<R: Rng + ?Sized>(
        store: &mut ParamStore,
        name: &str,
        in_channels: usize,
        out_channels: usize,
        kernel_size: usize,
        padding: Padding,
        activation: Activation,
        rng: &mut R,
    ) -> Self {
        Self::with_init(
            store,
            name,
            in_channels,
            out_channels,
            kernel_size,
            padding,
            activation,
            &mut XavierInit(rng),
        )
    }

    /// [`Conv1dLayer::new`] with an explicit weight [`Initializer`] (the
    /// checkpoint-loading path).
    #[allow(clippy::too_many_arguments)]
    pub fn with_init(
        store: &mut ParamStore,
        name: &str,
        in_channels: usize,
        out_channels: usize,
        kernel_size: usize,
        padding: Padding,
        activation: Activation,
        init: &mut impl Initializer,
    ) -> Self {
        let kernel = store.register(
            format!("{name}.kernel"),
            init.weight(
                &[out_channels, in_channels, kernel_size],
                in_channels * kernel_size,
                out_channels * kernel_size,
            ),
        );
        let bias = store.register(format!("{name}.bias"), Tensor::zeros(&[out_channels]));
        Conv1dLayer {
            kernel,
            bias,
            in_channels,
            out_channels,
            kernel_size,
            padding,
            activation,
        }
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Kernel width.
    pub fn kernel_size(&self) -> usize {
        self.kernel_size
    }

    /// Zero-padding scheme.
    pub fn padding(&self) -> Padding {
        self.padding
    }

    /// The `(out, in, k)` kernel and the length-`out` bias in `store`.
    pub fn params<'s>(&self, store: &'s ParamStore) -> (&'s Tensor, &'s Tensor) {
        (store.value(self.kernel), store.value(self.bias))
    }

    /// Applies the convolution. `x` must be `(B, in_channels, L)`.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, x: Var) -> Var {
        assert_eq!(
            tape.value(x).dims()[1],
            self.in_channels,
            "Conv1dLayer: input channels {} != expected {}",
            tape.value(x).dims()[1],
            self.in_channels
        );
        let w = tape.param(store, self.kernel);
        let b = tape.param(store, self.bias);
        let y = tape.conv1d(x, w, self.padding);
        let y = tape.add_bias_channel(y, b);
        self.activation.apply(tape, y)
    }
}

/// The paper's Gated Linear Unit convolution block (Eq. 4–5):
///
/// `GLU(E) = (W₁ ⊗ E + b₁) ⊙ σ(W₂ ⊗ E + b₂)`
///
/// The gate `σ(A₂)` mimics an RNN's gating, controlling how much
/// information flows along the temporal dimension.
#[derive(Clone, Debug)]
pub struct GluConv1d {
    value_conv: Conv1dLayer,
    gate_conv: Conv1dLayer,
}

impl GluConv1d {
    /// Registers the two convolution kernels of the block.
    pub fn new<R: Rng + ?Sized>(
        store: &mut ParamStore,
        name: &str,
        channels: usize,
        kernel_size: usize,
        padding: Padding,
        rng: &mut R,
    ) -> Self {
        Self::with_init(
            store,
            name,
            channels,
            kernel_size,
            padding,
            &mut XavierInit(rng),
        )
    }

    /// [`GluConv1d::new`] with an explicit weight [`Initializer`] (the
    /// checkpoint-loading path).
    pub fn with_init(
        store: &mut ParamStore,
        name: &str,
        channels: usize,
        kernel_size: usize,
        padding: Padding,
        init: &mut impl Initializer,
    ) -> Self {
        GluConv1d {
            value_conv: Conv1dLayer::with_init(
                store,
                &format!("{name}.value"),
                channels,
                channels,
                kernel_size,
                padding,
                Activation::Identity,
                init,
            ),
            gate_conv: Conv1dLayer::with_init(
                store,
                &format!("{name}.gate"),
                channels,
                channels,
                kernel_size,
                padding,
                Activation::Sigmoid,
                init,
            ),
        }
    }

    /// The value convolution `W₁ ⊗ E + b₁`.
    pub fn value_conv(&self) -> &Conv1dLayer {
        &self.value_conv
    }

    /// The gate convolution `σ(W₂ ⊗ E + b₂)`.
    pub fn gate_conv(&self) -> &Conv1dLayer {
        &self.gate_conv
    }

    /// Applies the gated block on `(B, C, L)` data as one tape node
    /// ([`Tape::glu`]).
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, x: Var) -> Var {
        let mut params =
            |conv: &Conv1dLayer| (tape.param(store, conv.kernel), tape.param(store, conv.bias));
        let (value, gate) = (params(&self.value_conv), params(&self.gate_conv));
        tape.glu(x, value, gate, self.value_conv.padding)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cae_autograd::{ParamStore, Tape};
    use cae_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn conv_layer_shapes() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let conv = Conv1dLayer::new(
            &mut store,
            "c",
            3,
            5,
            3,
            Padding::Same,
            Activation::Tanh,
            &mut rng,
        );
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::ones(&[2, 3, 8]));
        let y = conv.forward(&mut tape, &store, x);
        assert_eq!(tape.value(y).dims(), &[2, 5, 8]);
        assert_eq!(conv.out_channels(), 5);
        assert_eq!(conv.kernel_size(), 3);
    }

    #[test]
    fn glu_gate_bounds_output() {
        // With sigmoid gates in (0, 1), |GLU(x)| <= |value conv output|.
        let mut rng = StdRng::seed_from_u64(4);
        let mut store = ParamStore::new();
        let glu = GluConv1d::new(&mut store, "g", 2, 3, Padding::Causal, &mut rng);
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::rand_uniform(&[1, 2, 10], -2.0, 2.0, &mut rng));
        let y = glu.forward(&mut tape, &store, x);
        let value_only = glu.value_conv.forward(&mut tape, &store, x);
        for (&gated, &raw) in tape
            .value(y)
            .data()
            .iter()
            .zip(tape.value(value_only).data())
        {
            assert!(
                gated.abs() <= raw.abs() + 1e-6,
                "gate amplified: {gated} vs {raw}"
            );
        }
    }

    #[test]
    fn glu_preserves_shape() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut store = ParamStore::new();
        let glu = GluConv1d::new(&mut store, "g", 4, 3, Padding::Same, &mut rng);
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::ones(&[3, 4, 6]));
        let y = glu.forward(&mut tape, &store, x);
        assert_eq!(tape.value(y).dims(), &[3, 4, 6]);
    }

    #[test]
    fn causal_conv_output_ignores_future() {
        // Changing the input after time t must not change output at t.
        let mut rng = StdRng::seed_from_u64(6);
        let mut store = ParamStore::new();
        let conv = Conv1dLayer::new(
            &mut store,
            "c",
            1,
            1,
            3,
            Padding::Causal,
            Activation::Identity,
            &mut rng,
        );
        let base = Tensor::rand_uniform(&[1, 1, 8], -1.0, 1.0, &mut rng);
        let mut changed = base.clone();
        for t in 5..8 {
            changed.data_mut()[t] += 10.0;
        }
        let mut tape = Tape::new();
        let xa = tape.constant(base);
        let xb = tape.constant(changed);
        let ya = conv.forward(&mut tape, &store, xa);
        let yb = conv.forward(&mut tape, &store, xb);
        // outputs before t=5 identical
        cae_tensor::assert_close(
            &tape.value(ya).data()[..5],
            &tape.value(yb).data()[..5],
            1e-6,
        );
    }
}
