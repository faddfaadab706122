//! The activation alphabet shared by all models.

use cae_autograd::{Tape, Var};
use cae_tensor::simd;
use serde::{Deserialize, Serialize};

/// Non-linearity applied by a layer.
///
/// The paper leaves `f_E`, `f_D`, `f_R` (Eq. 3, 6 and the reconstruction
/// layer) as unspecified "non-linear activation functions"; the models take
/// them as configuration with sensible defaults.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// No non-linearity (used by reconstruction heads on z-scored data,
    /// which must be able to produce negative outputs).
    Identity,
    /// Rectified linear unit.
    Relu,
    /// Hyperbolic tangent (default: bounded, keeps deep conv stacks stable).
    #[default]
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
}

impl Activation {
    /// Applies the activation on the tape.
    pub fn apply(self, tape: &mut Tape, x: Var) -> Var {
        match self {
            Activation::Identity => x,
            Activation::Relu => tape.relu(x),
            Activation::Tanh => tape.tanh(x),
            Activation::Sigmoid => tape.sigmoid(x),
        }
    }

    /// Applies the activation to a buffer in place — elementwise
    /// bit-identical to [`Activation::apply`].
    pub fn apply_in_place(self, x: &mut [f32]) {
        match self {
            Activation::Identity => {}
            Activation::Relu => simd::relu_in_place(x),
            Activation::Tanh => simd::tanh_in_place(x),
            Activation::Sigmoid => simd::sigmoid_in_place(x),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cae_tensor::Tensor;

    #[test]
    fn identity_returns_same_var() {
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::ones(&[2]));
        assert_eq!(Activation::Identity.apply(&mut tape, x), x);
    }

    #[test]
    fn each_activation_computes_expected_value() {
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::from_vec(vec![-1.0, 0.0, 1.0], &[3]));
        let r = Activation::Relu.apply(&mut tape, x);
        assert_eq!(tape.value(r).data(), &[0.0, 0.0, 1.0]);
        let t = Activation::Tanh.apply(&mut tape, x);
        assert!((tape.value(t).data()[2] - 1.0f32.tanh()).abs() < 1e-6);
        let s = Activation::Sigmoid.apply(&mut tape, x);
        assert!((tape.value(s).data()[1] - 0.5).abs() < 1e-6);
    }
}
