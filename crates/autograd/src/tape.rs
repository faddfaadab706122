//! The forward tape: an arena of values plus the op that produced each.

use crate::params::{ParamId, ParamStore};
use cae_tensor::{scratch, simd, Padding, Tensor};

/// Handle to a node on a [`Tape`]. Cheap to copy; only valid for the tape
/// that produced it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Var(pub(crate) usize);

/// How a tape node was produced. Drives the backward dispatch.
#[derive(Debug)]
pub enum Op {
    /// Input node: a constant, or a parameter if `param` is set.
    Leaf { param: Option<ParamId> },
    /// Elementwise sum of two same-shape nodes.
    Add(Var, Var),
    /// Elementwise difference.
    Sub(Var, Var),
    /// Elementwise product.
    Mul(Var, Var),
    /// `(B, M, N) + (M, N)`: adds `rhs` to every batch element of `lhs`.
    AddBroadcast0(Var, Var),
    /// Adds a scalar constant.
    AddScalar(Var),
    /// Multiplies by a scalar constant.
    MulScalar(Var, f32),
    /// 2-D matrix product.
    Matmul(Var, Var),
    /// Batched 3-D matrix product.
    Bmm(Var, Var),
    /// Batched product with transposed right operand (`A · Bᵀ`).
    BmmNt(Var, Var),
    /// Swap of the last two axes of a rank-3 node.
    Transpose12(Var),
    /// Shape reinterpretation (element count preserved).
    Reshape(Var),
    /// 1-D convolution of `input` `(B, C_in, L)` with `kernel`
    /// `(C_out, C_in, K)`.
    Conv1d {
        input: Var,
        kernel: Var,
        padding: Padding,
    },
    /// The gated convolution block `(W₁ ⊗ x + b₁) ⊙ σ(W₂ ⊗ x + b₂)` over
    /// `input` `(B, C, L)` with `(C, C, K)` kernels, as one node. It
    /// saves both factors for the backward.
    Glu {
        input: Var,
        /// The value kernel and bias `(W₁, b₁)`.
        value_params: (Var, Var),
        /// The gate kernel and bias `(W₂, b₂)`.
        gate_params: (Var, Var),
        padding: Padding,
        /// `W₁ ⊗ x + b₁`.
        value: Tensor,
        /// `σ(W₂ ⊗ x + b₂)`.
        gate: Tensor,
    },
    /// `(…, C) + (C)` bias over the last axis.
    AddBiasLast(Var, Var),
    /// `(B, C, L) + (C)` bias over the channel axis.
    AddBiasChannel(Var, Var),
    /// Elementwise logistic sigmoid.
    Sigmoid(Var),
    /// Elementwise tanh.
    Tanh(Var),
    /// Elementwise ReLU.
    Relu(Var),
    /// Elementwise exponential.
    Exp(Var),
    /// Elementwise square.
    Square(Var),
    /// Softmax over the last axis.
    SoftmaxLast(Var),
    /// Mean over all elements (rank-0 output).
    MeanAll(Var),
    /// Sum over all elements (rank-0 output).
    SumAll(Var),
    /// Mean squared error against a constant target (rank-0 output).
    MseLoss { pred: Var, target: Tensor },
    /// `(B, L, C)` shifted one step along time: row 0 zeroed, row `t` takes
    /// row `t−1`. Builds the decoder input of Figure 3.
    ShiftRightTime(Var),
    /// Elementwise product with a constant tensor (no gradient to the
    /// constant) — connection masks, dropout-style gates.
    MulConst(Var, Tensor),
}

/// Append-only computation tape.
///
/// Values, ops and gradients are parallel arenas indexed by [`Var`].
///
/// Dropping or [`clear`](Tape::clear)ing a tape recycles every node's
/// storage into the thread-local scratch pool of `cae-tensor`, so the next
/// forward/backward pass (on this tape or a fresh one) reallocates nothing.
/// Hot loops should still prefer reusing one tape via `clear()` — that
/// also keeps the arena vectors themselves warm.
pub struct Tape {
    pub(crate) values: Vec<Tensor>,
    pub(crate) ops: Vec<Op>,
    pub(crate) grads: Vec<Option<Tensor>>,
}

impl std::fmt::Debug for Tape {
    /// Arena sizes only — a tape holds every intermediate tensor of a pass.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tape")
            .field("nodes", &self.values.len())
            .field("grads", &self.grads.iter().filter(|g| g.is_some()).count())
            .finish_non_exhaustive()
    }
}

impl Default for Tape {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for Tape {
    fn drop(&mut self) {
        self.clear();
    }
}

impl Tape {
    /// An empty tape.
    pub fn new() -> Self {
        Tape {
            values: Vec::new(),
            ops: Vec::new(),
            grads: Vec::new(),
        }
    }

    /// Drops all nodes but keeps the allocations of the arenas, returning
    /// every node's tensor storage to the scratch pool.
    pub fn clear(&mut self) {
        for value in self.values.drain(..) {
            value.recycle();
        }
        for op in self.ops.drain(..) {
            // Ops that own tensors (targets, masks) recycle them too.
            match op {
                Op::MseLoss { target, .. } => target.recycle(),
                Op::MulConst(_, mask) => mask.recycle(),
                Op::Glu { value, gate, .. } => {
                    value.recycle();
                    gate.recycle();
                }
                _ => {}
            }
        }
        for grad in self.grads.drain(..).flatten() {
            grad.recycle();
        }
    }

    /// Number of nodes currently on the tape.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the tape holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The forward value of a node.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.values[v.0]
    }

    /// The gradient of the last [`Tape::backward`] loss w.r.t. leaf `v`
    /// (a constant or a parameter), if it participated in the loss. An
    /// inner node's gradient is released once the backward has used it,
    /// so this returns `None` for inner nodes.
    pub fn grad(&self, v: Var) -> Option<&Tensor> {
        self.grads.get(v.0).and_then(|g| g.as_ref())
    }

    fn push(&mut self, value: Tensor, op: Op) -> Var {
        self.values.push(value);
        self.ops.push(op);
        Var(self.values.len() - 1)
    }

    // ------------------------------------------------------------------
    // Inputs
    // ------------------------------------------------------------------

    /// Adds a constant input node (no gradient tracked back to the caller).
    pub fn constant(&mut self, value: Tensor) -> Var {
        self.push(value, Op::Leaf { param: None })
    }

    /// Injects a parameter from `store`, recording its id so
    /// [`Tape::accumulate_param_grads`] can flush the gradient back.
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        self.push(store.value(id).clone(), Op::Leaf { param: Some(id) })
    }

    // ------------------------------------------------------------------
    // Arithmetic
    // ------------------------------------------------------------------

    /// Elementwise sum.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let v = self.values[a.0].add(&self.values[b.0]);
        self.push(v, Op::Add(a, b))
    }

    /// Elementwise difference `a − b`.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let v = self.values[a.0].sub(&self.values[b.0]);
        self.push(v, Op::Sub(a, b))
    }

    /// Elementwise product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let v = self.values[a.0].mul(&self.values[b.0]);
        self.push(v, Op::Mul(a, b))
    }

    /// `(B, M, N) + (M, N)` broadcast over the batch axis.
    pub fn add_broadcast0(&mut self, a: Var, b: Var) -> Var {
        let (av, bv) = (&self.values[a.0], &self.values[b.0]);
        assert_eq!(av.rank(), 3, "add_broadcast0 lhs must be rank 3");
        assert_eq!(bv.rank(), 2, "add_broadcast0 rhs must be rank 2");
        assert_eq!(
            &av.dims()[1..],
            bv.dims(),
            "add_broadcast0 trailing dims mismatch"
        );
        let (bs, m, n) = (av.dims()[0], av.dims()[1], av.dims()[2]);
        let mut out = av.clone();
        for bi in 0..bs {
            let chunk = &mut out.data_mut()[bi * m * n..(bi + 1) * m * n];
            for (o, &x) in chunk.iter_mut().zip(bv.data().iter()) {
                *o += x;
            }
        }
        self.push(out, Op::AddBroadcast0(a, b))
    }

    /// Adds a scalar constant elementwise.
    pub fn add_scalar(&mut self, a: Var, s: f32) -> Var {
        let v = self.values[a.0].add_scalar(s);
        self.push(v, Op::AddScalar(a))
    }

    /// Multiplies by a scalar constant elementwise.
    pub fn mul_scalar(&mut self, a: Var, s: f32) -> Var {
        let v = self.values[a.0].scale(s);
        self.push(v, Op::MulScalar(a, s))
    }

    /// Convenience for `1 − a` (gating complements in GRU/LSTM cells).
    pub fn one_minus(&mut self, a: Var) -> Var {
        let neg = self.mul_scalar(a, -1.0);
        self.add_scalar(neg, 1.0)
    }

    // ------------------------------------------------------------------
    // Linear algebra
    // ------------------------------------------------------------------

    /// 2-D matrix product `(M, K) · (K, N)`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let v = self.values[a.0].matmul(&self.values[b.0]);
        self.push(v, Op::Matmul(a, b))
    }

    /// Batched matrix product `(B, M, K) · (B, K, N)`.
    pub fn bmm(&mut self, a: Var, b: Var) -> Var {
        let v = self.values[a.0].bmm(&self.values[b.0]);
        self.push(v, Op::Bmm(a, b))
    }

    /// Batched product with the right operand transposed:
    /// `(B, M, K) · (B, N, K)ᵀ` — the attention-score kernel.
    pub fn bmm_nt(&mut self, a: Var, b: Var) -> Var {
        let v = self.values[a.0].bmm_nt(&self.values[b.0]);
        self.push(v, Op::BmmNt(a, b))
    }

    /// Swaps the last two axes of a rank-3 node.
    pub fn transpose12(&mut self, a: Var) -> Var {
        let v = self.values[a.0].transpose12();
        self.push(v, Op::Transpose12(a))
    }

    /// Reinterprets the node with a new shape of equal element count.
    pub fn reshape(&mut self, a: Var, dims: &[usize]) -> Var {
        let v = self.values[a.0].reshape(dims);
        self.push(v, Op::Reshape(a))
    }

    // ------------------------------------------------------------------
    // Convolution and biases
    // ------------------------------------------------------------------

    /// 1-D convolution (see [`cae_tensor::Tensor::conv1d`]).
    pub fn conv1d(&mut self, input: Var, kernel: Var, padding: Padding) -> Var {
        let v = self.values[input.0].conv1d(&self.values[kernel.0], padding);
        self.push(
            v,
            Op::Conv1d {
                input,
                kernel,
                padding,
            },
        )
    }

    /// The gated linear unit `(W₁ ⊗ x + b₁) ⊙ σ(W₂ ⊗ x + b₂)` (paper
    /// Eq. 4–5) of `input` `(B, C, L)`, given the value and gate
    /// `(kernel, bias)` pairs with `(C, C, K)` kernels.
    ///
    /// One node, bit for bit the composition
    /// `mul(add_bias_channel(conv1d(x, W₁), b₁),
    /// sigmoid(add_bias_channel(conv1d(x, W₂), b₂)))` in value and in
    /// every gradient: the two convolutions run as one stacked GEMM
    /// forward and one stacked kernel-gradient GEMM backward.
    pub fn glu(
        &mut self,
        input: Var,
        value_params: (Var, Var),
        gate_params: (Var, Var),
        padding: Padding,
    ) -> Var {
        let [x, wv, bv, wg, bg] = [
            input,
            value_params.0,
            value_params.1,
            gate_params.0,
            gate_params.1,
        ]
        .map(|v| &self.values[v.0]);
        let (b, c, l) = (x.dims()[0], wv.dims()[0], x.dims()[2]);
        assert!(
            bv.dims() == [c] && bg.dims() == [c],
            "glu biases must have {c} channels"
        );
        let pair = x.conv1d_stacked(&[wv, wg], padding);
        let (mut value, mut gate) = (scratch::take_full(b * c * l), scratch::take_full(b * c * l));
        for ((v, s), p) in value
            .chunks_exact_mut(c * l)
            .zip(gate.chunks_exact_mut(c * l))
            .zip(pair.data().chunks_exact(2 * c * l))
        {
            let (pv, ps) = p.split_at(c * l);
            for (dst, src, bias) in [(v, pv, bv), (s, ps, bg)] {
                for ((d, s), &bias) in dst
                    .chunks_exact_mut(l)
                    .zip(src.chunks_exact(l))
                    .zip(bias.data())
                {
                    for (d, &s) in d.iter_mut().zip(s) {
                        *d = s + bias;
                    }
                }
            }
        }
        pair.recycle();
        simd::sigmoid_in_place(&mut gate);
        let (value, gate) = (
            Tensor::from_vec(value, &[b, c, l]),
            Tensor::from_vec(gate, &[b, c, l]),
        );
        let out = value.mul(&gate);
        self.push(
            out,
            Op::Glu {
                input,
                value_params,
                gate_params,
                padding,
                value,
                gate,
            },
        )
    }

    /// `(…, C) + (C)` bias along the last axis.
    pub fn add_bias_last(&mut self, x: Var, bias: Var) -> Var {
        let v = self.values[x.0].add_bias_last(&self.values[bias.0]);
        self.push(v, Op::AddBiasLast(x, bias))
    }

    /// `(B, C, L) + (C)` bias along the channel axis.
    pub fn add_bias_channel(&mut self, x: Var, bias: Var) -> Var {
        let v = self.values[x.0].add_bias_channel(&self.values[bias.0]);
        self.push(v, Op::AddBiasChannel(x, bias))
    }

    // ------------------------------------------------------------------
    // Nonlinearities
    // ------------------------------------------------------------------

    /// Elementwise logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let v = self.values[a.0].sigmoid();
        self.push(v, Op::Sigmoid(a))
    }

    /// Elementwise tanh.
    pub fn tanh(&mut self, a: Var) -> Var {
        let v = self.values[a.0].tanh();
        self.push(v, Op::Tanh(a))
    }

    /// Elementwise ReLU.
    pub fn relu(&mut self, a: Var) -> Var {
        let v = self.values[a.0].relu();
        self.push(v, Op::Relu(a))
    }

    /// Elementwise natural exponential.
    pub fn exp(&mut self, a: Var) -> Var {
        let v = self.values[a.0].exp();
        self.push(v, Op::Exp(a))
    }

    /// Elementwise square.
    pub fn square(&mut self, a: Var) -> Var {
        let v = self.values[a.0].square();
        self.push(v, Op::Square(a))
    }

    /// Softmax over the last axis.
    pub fn softmax_last(&mut self, a: Var) -> Var {
        let v = self.values[a.0].softmax_last();
        self.push(v, Op::SoftmaxLast(a))
    }

    // ------------------------------------------------------------------
    // Reductions and losses
    // ------------------------------------------------------------------

    /// Mean over all elements, producing a rank-0 node.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let v = Tensor::scalar(self.values[a.0].mean());
        self.push(v, Op::MeanAll(a))
    }

    /// Sum over all elements, producing a rank-0 node.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let v = Tensor::scalar(self.values[a.0].sum());
        self.push(v, Op::SumAll(a))
    }

    /// Mean squared error of `pred` against a constant `target`
    /// (rank-0 node). This is the autoencoder objective J (paper Eq. 11).
    pub fn mse_loss(&mut self, pred: Var, target: &Tensor) -> Var {
        let v = Tensor::scalar(self.values[pred.0].mse(target));
        self.push(
            v,
            Op::MseLoss {
                pred,
                target: target.clone(),
            },
        )
    }

    // ------------------------------------------------------------------
    // Structural
    // ------------------------------------------------------------------

    /// Shifts a `(B, L, C)` node one step along time (decoder input
    /// construction, Figure 3): output row 0 is zero padding, row `t` is
    /// input row `t−1`.
    pub fn shift_right_time(&mut self, a: Var) -> Var {
        let x = &self.values[a.0];
        assert_eq!(x.rank(), 3, "shift_right_time requires rank 3 (B, L, C)");
        let (b, l, c) = (x.dims()[0], x.dims()[1], x.dims()[2]);
        let mut out = Tensor::zeros_pooled(&[b, l, c]);
        for bi in 0..b {
            let src = &x.data()[bi * l * c..(bi + 1) * l * c];
            let dst = &mut out.data_mut()[bi * l * c..(bi + 1) * l * c];
            if l > 1 {
                dst[c..].copy_from_slice(&src[..(l - 1) * c]);
            }
        }
        self.push(out, Op::ShiftRightTime(a))
    }

    /// Elementwise product with a constant mask (no gradient to the mask).
    pub fn mul_const(&mut self, a: Var, mask: &Tensor) -> Var {
        let v = self.values[a.0].mul(mask);
        self.push(v, Op::MulConst(a, mask.clone()))
    }

    // ------------------------------------------------------------------
    // Gradient flush
    // ------------------------------------------------------------------

    /// Adds every parameter node's gradient into its slot in `store`.
    ///
    /// Call after [`Tape::backward`]. Constants and parameter nodes that did
    /// not influence the loss are skipped.
    pub fn accumulate_param_grads(&self, store: &mut ParamStore) {
        for (i, op) in self.ops.iter().enumerate() {
            if let Op::Leaf { param: Some(id) } = op {
                if let Some(g) = self.grads.get(i).and_then(|g| g.as_ref()) {
                    store.accumulate_grad(*id, g);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_values_match_tensor_ops() {
        let mut tape = Tape::new();
        let a = tape.constant(Tensor::from_vec(vec![1.0, 2.0], &[2]));
        let b = tape.constant(Tensor::from_vec(vec![3.0, 4.0], &[2]));
        let s = tape.add(a, b);
        assert_eq!(tape.value(s).data(), &[4.0, 6.0]);
        let p = tape.mul(a, b);
        assert_eq!(tape.value(p).data(), &[3.0, 8.0]);
        let m = tape.mean_all(p);
        assert_eq!(tape.value(m).item(), 5.5);
    }

    #[test]
    fn one_minus_composition() {
        let mut tape = Tape::new();
        let a = tape.constant(Tensor::from_vec(vec![0.25, 0.75], &[2]));
        let o = tape.one_minus(a);
        assert_eq!(tape.value(o).data(), &[0.75, 0.25]);
    }

    #[test]
    fn shift_right_time_pads_front() {
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::from_vec(
            vec![1.0, 10.0, 2.0, 20.0, 3.0, 30.0],
            &[1, 3, 2],
        ));
        let y = tape.shift_right_time(x);
        assert_eq!(tape.value(y).data(), &[0.0, 0.0, 1.0, 10.0, 2.0, 20.0]);
    }

    #[test]
    fn clear_keeps_tape_usable() {
        let mut tape = Tape::new();
        let a = tape.constant(Tensor::ones(&[4]));
        let _ = tape.relu(a);
        assert_eq!(tape.len(), 2);
        tape.clear();
        assert!(tape.is_empty());
        let b = tape.constant(Tensor::ones(&[2]));
        assert_eq!(b, Var(0));
    }

    #[test]
    fn add_broadcast0_adds_per_batch() {
        let mut tape = Tape::new();
        let a = tape.constant(Tensor::zeros(&[2, 2, 2]));
        let b = tape.constant(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]));
        let y = tape.add_broadcast0(a, b);
        assert_eq!(
            tape.value(y).data(),
            &[1.0, 2.0, 3.0, 4.0, 1.0, 2.0, 3.0, 4.0]
        );
    }
}
