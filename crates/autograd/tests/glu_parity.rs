//! The fused GLU node ([`Tape::glu`]) against the composition of
//! primitive ops it replaces — `conv1d` + `add_bias_channel` for the value
//! and the gate, `sigmoid` on the gate, `mul` — compared with `to_bits`
//! equality: the forward value and the gradients of the input, both
//! kernels and both biases. The input also feeds a skip connection, so
//! its gradient slot already holds a contribution when the block's
//! arrives. Every check runs on the active dispatch path and again with
//! the scalar path forced.

use cae_autograd::{Tape, Var};
use cae_tensor::{simd, Padding, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Releases the scalar override even when a check panics.
struct ScalarOverride;

impl Drop for ScalarOverride {
    fn drop(&mut self) {
        simd::set_force_scalar(false);
    }
}

/// `(value, [∂x, ∂W₁, ∂b₁, ∂W₂, ∂b₂])` as bit patterns, for the loss
/// `Σ mask ⊙ (GLU(x) + x)` built by `block`.
fn run(
    inputs: &[Tensor; 6],
    padding: Padding,
    block: impl Fn(&mut Tape, Var, (Var, Var), (Var, Var), Padding) -> Var,
) -> (Vec<u32>, Vec<Vec<u32>>) {
    let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let mut tape = Tape::new();
    let [x, wv, bv, wg, bg, mask] = inputs;
    let leaves: Vec<Var> = [x, wv, bv, wg, bg]
        .iter()
        .map(|t| tape.constant((*t).clone()))
        .collect();
    let glu = block(
        &mut tape,
        leaves[0],
        (leaves[1], leaves[2]),
        (leaves[3], leaves[4]),
        padding,
    );
    let skip = tape.add(glu, leaves[0]);
    let weighted = tape.mul_const(skip, mask);
    let loss = tape.sum_all(weighted);
    tape.backward(loss);
    let grads = leaves
        .iter()
        .map(|&v| bits(tape.grad(v).expect("every leaf feeds the loss")))
        .collect();
    (bits(tape.value(glu)), grads)
}

fn composed(
    tape: &mut Tape,
    x: Var,
    (wv, bv): (Var, Var),
    (wg, bg): (Var, Var),
    padding: Padding,
) -> Var {
    let value = tape.conv1d(x, wv, padding);
    let value = tape.add_bias_channel(value, bv);
    let gate = tape.conv1d(x, wg, padding);
    let gate = tape.add_bias_channel(gate, bg);
    let gate = tape.sigmoid(gate);
    tape.mul(value, gate)
}

#[test]
fn fused_glu_matches_composed_ops_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(77);
    // C = 7 is not a multiple of the 6-row GEMM tile; B·L = 40·13 = 520
    // takes the kernel gradient past one 512-deep slab.
    let shapes = [(3, 7, 13, 3), (40, 7, 13, 2), (2, 4, 5, 5)];
    let cases: Vec<[Tensor; 6]> = shapes
        .iter()
        .map(|&(b, c, l, k)| {
            let mut t = |dims: &[usize]| Tensor::rand_uniform(dims, -1.0, 1.0, &mut rng);
            [
                t(&[b, c, l]),
                t(&[c, c, k]),
                t(&[c]),
                t(&[c, c, k]),
                t(&[c]),
                t(&[b, c, l]),
            ]
        })
        .collect();
    let check = || {
        for inputs in &cases {
            for padding in [Padding::Same, Padding::Causal] {
                let path = simd::active_name();
                let dims = inputs[0].dims();
                let (value, grads) = run(inputs, padding, Tape::glu);
                let (value_ref, grads_ref) = run(inputs, padding, composed);
                assert!(
                    value == value_ref,
                    "GLU value differs ({path}, {dims:?}, {padding:?})"
                );
                for (name, (g, g_ref)) in ["x", "W1", "b1", "W2", "b2"]
                    .iter()
                    .zip(grads.iter().zip(&grads_ref))
                {
                    assert!(
                        g == g_ref,
                        "gradient of {name} differs ({path}, {dims:?}, {padding:?})"
                    );
                }
            }
        }
    };
    check();
    let _scalar = ScalarOverride;
    simd::set_force_scalar(true);
    check();
}
