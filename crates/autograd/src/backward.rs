//! The reverse pass: gradient propagation by op dispatch.

use crate::tape::{Op, Tape, Var};
use cae_tensor::Tensor;

impl Tape {
    /// Runs reverse-mode differentiation from `loss` (which must be a
    /// rank-0/single-element node) through every node on the tape.
    ///
    /// After this call, [`Tape::grad`] returns `∂loss/∂node` for every node
    /// that influenced the loss, and
    /// [`Tape::accumulate_param_grads`](Tape::accumulate_param_grads) can
    /// flush parameter gradients.
    pub fn backward(&mut self, loss: Var) {
        assert_eq!(
            self.values[loss.0].len(),
            1,
            "backward() requires a scalar loss node, got {} elements",
            self.values[loss.0].len()
        );
        for grad in self.grads.drain(..).flatten() {
            grad.recycle();
        }
        self.grads.resize(self.values.len(), None);
        self.grads[loss.0] = Some(Tensor::from_vec(vec![1.0], self.values[loss.0].dims()));

        for i in (0..=loss.0).rev() {
            let Some(g) = self.grads[i].take() else {
                continue;
            };
            self.propagate(i, &g);
            self.grads[i] = Some(g);
        }
    }

    /// Adds `delta` into the gradient slot of node `target`.
    fn accum(&mut self, target: Var, delta: Tensor) {
        match &mut self.grads[target.0] {
            Some(existing) => {
                existing.add_inplace(&delta);
                delta.recycle();
            }
            slot @ None => *slot = Some(delta),
        }
    }

    /// Propagates the output gradient `g` of node `i` to its parents.
    fn propagate(&mut self, i: usize, g: &Tensor) {
        // `ops` is only read; gradients are written through `accum`.
        // Borrowck: clone light metadata out of the op before mutating.
        match &self.ops[i] {
            Op::Leaf { .. } => {}

            Op::Add(a, b) => {
                let (a, b) = (*a, *b);
                self.accum(a, g.clone());
                self.accum(b, g.clone());
            }
            Op::Sub(a, b) => {
                let (a, b) = (*a, *b);
                self.accum(a, g.clone());
                self.accum(b, g.neg());
            }
            Op::Mul(a, b) => {
                let (a, b) = (*a, *b);
                let da = g.mul(&self.values[b.0]);
                let db = g.mul(&self.values[a.0]);
                self.accum(a, da);
                self.accum(b, db);
            }
            Op::AddBroadcast0(a, b) => {
                let (a, b) = (*a, *b);
                self.accum(a, g.clone());
                self.accum(b, g.sum_axis0());
            }
            Op::AddScalar(a) => {
                let a = *a;
                self.accum(a, g.clone());
            }
            Op::MulScalar(a, s) => {
                let (a, s) = (*a, *s);
                self.accum(a, g.scale(s));
            }

            Op::Matmul(a, b) => {
                let (a, b) = (*a, *b);
                let da = g.matmul_nt(&self.values[b.0]);
                let db = self.values[a.0].matmul_tn(g);
                self.accum(a, da);
                self.accum(b, db);
            }
            Op::Bmm(a, b) => {
                let (a, b) = (*a, *b);
                let da = g.bmm_nt(&self.values[b.0]);
                let db = self.values[a.0].bmm_tn(g);
                self.accum(a, da);
                self.accum(b, db);
            }
            Op::BmmNt(a, b) => {
                // S = A · Bᵀ ⇒ dA = dS · B, dB = dSᵀ · A.
                let (a, b) = (*a, *b);
                let da = g.bmm(&self.values[b.0]);
                let db = g.bmm_tn(&self.values[a.0]);
                self.accum(a, da);
                self.accum(b, db);
            }
            Op::Transpose12(a) => {
                let a = *a;
                self.accum(a, g.transpose12());
            }
            Op::Reshape(a) => {
                let a = *a;
                let dims = self.values[a.0].dims().to_vec();
                self.accum(a, g.reshape(&dims));
            }

            Op::Conv1d {
                input,
                kernel,
                padding,
            } => {
                let (input, kernel, padding) = (*input, *kernel, *padding);
                let k = self.values[kernel.0].dims()[2];
                let dx = Tensor::conv1d_input_grad(g, &self.values[kernel.0], padding);
                let dw = Tensor::conv1d_kernel_grad(&self.values[input.0], g, k, padding);
                self.accum(input, dx);
                self.accum(kernel, dw);
            }
            Op::Glu {
                input,
                value_params: (wv, bv),
                gate_params: (wg, bg),
                padding,
                value,
                gate,
            } => {
                let (input, wv, bv, wg, bg, padding) = (*input, *wv, *bv, *wg, *bg, *padding);
                // The product rule, then σ′ on the gate branch.
                let g_value = g.mul(gate);
                let g_gate = g.mul(value);
                let g_pre = Tensor::sigmoid_grad_from_output(gate, &g_gate);
                g_gate.recycle();
                let kernel = self.values[wv.0].dims().to_vec();
                let gw = Tensor::conv1d_kernel_grad_stacked(
                    &self.values[input.0],
                    &[&g_value, &g_pre],
                    kernel[2],
                    padding,
                );
                let (gwv, gwg) = split_rows(gw, &kernel);
                let dx_gate = Tensor::conv1d_input_grad(&g_pre, &self.values[wg.0], padding);
                let dx_value = Tensor::conv1d_input_grad(&g_value, &self.values[wv.0], padding);
                // The composed block's reverse order: the gate branch
                // (bias, then conv) before the value branch, so `input`
                // receives the gate's contribution first.
                self.accum(bg, g_pre.sum_keep_channel());
                self.accum(input, dx_gate);
                self.accum(wg, gwg);
                self.accum(bv, g_value.sum_keep_channel());
                self.accum(input, dx_value);
                self.accum(wv, gwv);
                g_value.recycle();
                g_pre.recycle();
            }
            Op::AddBiasLast(x, bias) => {
                let (x, bias) = (*x, *bias);
                self.accum(x, g.clone());
                self.accum(bias, g.sum_keep_last());
            }
            Op::AddBiasChannel(x, bias) => {
                let (x, bias) = (*x, *bias);
                self.accum(x, g.clone());
                self.accum(bias, g.sum_keep_channel());
            }

            Op::Sigmoid(a) => {
                let a = *a;
                let dx = Tensor::sigmoid_grad_from_output(&self.values[i], g);
                self.accum(a, dx);
            }
            Op::Tanh(a) => {
                let a = *a;
                let dx = Tensor::tanh_grad_from_output(&self.values[i], g);
                self.accum(a, dx);
            }
            Op::Relu(a) => {
                let a = *a;
                let dx = Tensor::relu_grad_from_output(&self.values[i], g);
                self.accum(a, dx);
            }
            Op::Exp(a) => {
                let a = *a;
                let dx = g.mul(&self.values[i]);
                self.accum(a, dx);
            }
            Op::Square(a) => {
                let a = *a;
                let dx = g.mul(&self.values[a.0]).scale(2.0);
                self.accum(a, dx);
            }
            Op::SoftmaxLast(a) => {
                let a = *a;
                let y = &self.values[i];
                let n = *y.dims().last().expect("softmax output has no axes");
                let mut dx = cae_tensor::scratch::take_zeroed(y.len());
                for ((dx_row, y_row), g_row) in dx
                    .chunks_exact_mut(n)
                    .zip(y.data().chunks_exact(n))
                    .zip(g.data().chunks_exact(n))
                {
                    let dot: f32 = y_row
                        .iter()
                        .zip(g_row.iter())
                        .map(|(&yv, &gv)| yv * gv)
                        .sum();
                    for ((d, &yv), &gv) in dx_row.iter_mut().zip(y_row.iter()).zip(g_row.iter()) {
                        *d = yv * (gv - dot);
                    }
                }
                let dx = Tensor::from_vec(dx, y.dims());
                self.accum(a, dx);
            }

            Op::MeanAll(a) => {
                let a = *a;
                let n = self.values[a.0].len().max(1);
                let dims = self.values[a.0].dims().to_vec();
                let dx = Tensor::full_pooled(&dims, g.item() / n as f32);
                self.accum(a, dx);
            }
            Op::SumAll(a) => {
                let a = *a;
                let dims = self.values[a.0].dims().to_vec();
                let dx = Tensor::full_pooled(&dims, g.item());
                self.accum(a, dx);
            }
            Op::MseLoss { pred, target } => {
                let pred = *pred;
                let n = target.len().max(1) as f32;
                let scale = 2.0 * g.item() / n;
                let dx = self.values[pred.0].sub(target).scale(scale);
                self.accum(pred, dx);
            }

            Op::ShiftRightTime(a) => {
                // out[:, t, :] = in[:, t-1, :] ⇒ din[:, t, :] = dout[:, t+1, :].
                let a = *a;
                let dims = self.values[a.0].dims().to_vec();
                let (b, l, c) = (dims[0], dims[1], dims[2]);
                let mut dx = Tensor::zeros_pooled(&dims);
                for bi in 0..b {
                    let src = &g.data()[bi * l * c..(bi + 1) * l * c];
                    let dst = &mut dx.data_mut()[bi * l * c..(bi + 1) * l * c];
                    if l > 1 {
                        dst[..(l - 1) * c].copy_from_slice(&src[c..]);
                    }
                }
                self.accum(a, dx);
            }
            Op::MulConst(a, mask) => {
                let a = *a;
                let dx = g.mul(mask);
                self.accum(a, dx);
            }
        }
    }
}

/// Splits a tensor of two stacked `dims`-shaped halves (leading axis
/// doubled) into the two halves.
fn split_rows(stacked: Tensor, dims: &[usize]) -> (Tensor, Tensor) {
    let mut first = stacked.into_vec();
    let half = first.len() / 2;
    let mut second = cae_tensor::scratch::take(half);
    second.extend_from_slice(&first[half..]);
    first.truncate(half);
    (
        Tensor::from_vec(first, dims),
        Tensor::from_vec(second, dims),
    )
}

#[cfg(test)]
mod tests {
    use crate::{ParamStore, Tape};
    use cae_tensor::Tensor;

    #[test]
    fn backward_through_chain() {
        // loss = mean((2x)^2), x = [1, 2] → d/dx = 8x / 2 = 4x
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::from_vec(vec![1.0, 2.0], &[2]));
        let two_x = tape.mul_scalar(x, 2.0);
        let sq = tape.square(two_x);
        let loss = tape.mean_all(sq);
        tape.backward(loss);
        cae_tensor::assert_close(tape.grad(x).unwrap().data(), &[4.0, 8.0], 1e-5);
    }

    #[test]
    fn grad_accumulates_over_shared_parents() {
        // loss = sum(x * x) — the same node used twice must get both
        // gradient contributions: d/dx = 2x.
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::from_vec(vec![3.0, -1.0], &[2]));
        let prod = tape.mul(x, x);
        let loss = tape.sum_all(prod);
        tape.backward(loss);
        cae_tensor::assert_close(tape.grad(x).unwrap().data(), &[6.0, -2.0], 1e-5);
    }

    #[test]
    fn params_receive_grads() {
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]));
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::from_vec(vec![1.0, 0.0], &[1, 2]));
        let wv = tape.param(&store, w);
        let y = tape.matmul(x, wv); // = first row of w
        let loss = tape.sum_all(y);
        tape.backward(loss);
        tape.accumulate_param_grads(&mut store);
        // only the first row of w received gradient 1
        assert_eq!(store.grad(w).data(), &[1.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "scalar loss")]
    fn backward_rejects_non_scalar() {
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::ones(&[3]));
        tape.backward(x);
    }

    #[test]
    fn unused_nodes_have_no_grad() {
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::ones(&[2]));
        let unused = tape.constant(Tensor::ones(&[2]));
        let loss = tape.sum_all(x);
        tape.backward(loss);
        assert!(tape.grad(unused).is_none());
        assert!(tape.grad(x).is_some());
    }
}
