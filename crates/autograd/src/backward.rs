//! The reverse pass: gradient propagation by op dispatch, in two phases.
//!
//! The sweep walks the tape in reverse and propagates every input
//! gradient as it goes. A weight gradient of a leaf — the kernel gradient
//! of a `Conv1d` or `Glu` node, `aᵀ·g` of a `Matmul` node's right operand
//! — feeds nothing later in the sweep, so the sweep records it as a
//! [`Deferred`] task instead of computing it. Once the sweep is done, all
//! tasks run as one fan-out on the worker pool, and every contribution to
//! a leaf is then added in the order the sweep produced it, so a leaf
//! reused by several nodes sums its contributions exactly as a single
//! inline sweep would.

use crate::tape::{Op, Tape, Var};
use cae_tensor::{par, Padding, Tensor};

/// A weight gradient held back from the reverse sweep: the kernel call
/// and the operands beside the node's output gradient.
enum Deferred {
    /// `aᵀ · g` of a `Matmul` node, for its right operand.
    Matmul { a: Var },
    /// The kernel gradient of a `Conv1d` node.
    Conv1d {
        input: Var,
        k: usize,
        padding: Padding,
    },
    /// Both kernel gradients of a `Glu` node, from its value and
    /// pre-activation gate gradients: one stacked GEMM, split into the
    /// `(value, gate)` halves.
    Glu {
        input: Var,
        g_value: Tensor,
        g_pre: Tensor,
        kernel: [usize; 3],
        padding: Padding,
    },
}

impl Deferred {
    /// Computes the gradient (both halves for a GLU) from the tape's
    /// values and, except for a GLU, which owns its operands, the node's
    /// output gradient `g`.
    fn run(&self, values: &[Tensor], g: Option<&Tensor>) -> (Tensor, Option<Tensor>) {
        let g = || g.expect("the task reads its node's output gradient");
        match self {
            Deferred::Matmul { a } => (values[a.0].matmul_tn(g()), None),
            Deferred::Conv1d { input, k, padding } => (
                Tensor::conv1d_kernel_grad(&values[input.0], g(), *k, *padding),
                None,
            ),
            Deferred::Glu {
                input,
                g_value,
                g_pre,
                kernel,
                padding,
            } => {
                let gw = Tensor::conv1d_kernel_grad_stacked(
                    &values[input.0],
                    &[g_value, g_pre],
                    kernel[2],
                    *padding,
                );
                let (gwv, gwg) = split_rows(gw, kernel);
                (gwv, Some(gwg))
            }
        }
    }

    /// Returns the task's own buffers to the scratch pool.
    fn recycle(self) {
        if let Deferred::Glu { g_value, g_pre, .. } = self {
            g_value.recycle();
            g_pre.recycle();
        }
    }
}

/// A contribution to a node's gradient.
enum Contribution {
    /// Computed during the sweep.
    Ready(Tensor),
    /// Output `half` (1 only for a GLU's gate kernel) of deferred task
    /// `task`.
    Pending { task: usize, half: usize },
}

/// What the sweep hands to the deferred phase.
#[derive(Default)]
struct Sweep {
    /// Deferred tasks, each with the node whose output gradient it reads,
    /// if any: that gradient stays on the tape until the task has run.
    tasks: Vec<(Option<usize>, Deferred)>,
    /// Every contribution to a leaf, in the order the sweep made it.
    leaf_log: Vec<(Var, Contribution)>,
}

impl Sweep {
    /// Queues `task`, which reads the output gradient of `node` if set,
    /// returning its index.
    fn push(&mut self, node: Option<usize>, task: Deferred) -> usize {
        self.tasks.push((node, task));
        self.tasks.len() - 1
    }

    /// Whether the task queued last reads the output gradient of `node`.
    fn last_reads_grad_of(&self, node: usize) -> bool {
        self.tasks.last().is_some_and(|(n, _)| *n == Some(node))
    }
}

impl Tape {
    /// Runs reverse-mode differentiation from `loss` (which must be a
    /// rank-0/single-element node) through every node on the tape.
    ///
    /// After this call, [`Tape::grad`] returns `∂loss/∂leaf` for every
    /// leaf that influenced the loss, and
    /// [`Tape::accumulate_param_grads`](Tape::accumulate_param_grads) can
    /// flush parameter gradients. Each inner node's gradient is freed as
    /// soon as nothing else reads it.
    ///
    /// The leaf weight gradients run after the sweep as one fan-out on the
    /// `cae_tensor::par` pool (inline at one thread); every gradient is
    /// bit-identical at every thread count.
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

        let mut sweep = Sweep::default();
        for i in (0..=loss.0).rev() {
            let Some(g) = self.grads[i].take() else {
                continue;
            };
            self.propagate(i, &g, &mut sweep);
            // An inner node's gradient is freed, not recycled: the
            // thread's scratch pool is capped, and filling it with the
            // sweep's gradients would push out the value buffers the next
            // forward reuses when the tape is cleared.
            if self.is_leaf(Var(i)) || sweep.last_reads_grad_of(i) {
                self.grads[i] = Some(g);
            }
        }

        let (values, grads, tasks) = (&self.values, &self.grads, &sweep.tasks);
        let mut outputs: Vec<[Option<Tensor>; 2]> = par::map_indexed(tasks.len(), |t| {
            let (node, task) = &tasks[t];
            let g = node.map(|n| grads[n].as_ref().expect("a task's node keeps its gradient"));
            let (first, second) = task.run(values, g);
            [Some(first), second]
        });
        for (node, task) in sweep.tasks {
            if let Some(n) = node {
                self.grads[n] = None;
            }
            task.recycle();
        }
        for (target, contribution) in sweep.leaf_log {
            let delta = match contribution {
                Contribution::Ready(delta) => delta,
                Contribution::Pending { task, half } => outputs[task][half]
                    .take()
                    .expect("each deferred output is consumed once"),
            };
            self.add_to_slot(target, delta);
        }
    }

    /// Adds `delta` into the gradient of node `target`: at once for an
    /// inner node, whose gradient the sweep still reads, and through the
    /// sweep's log for a leaf, so that the leaf's contributions are added
    /// in sweep order after the deferred phase.
    fn accum(&mut self, sweep: &mut Sweep, target: Var, delta: Tensor) {
        if self.is_leaf(target) {
            sweep.leaf_log.push((target, Contribution::Ready(delta)));
        } else {
            self.add_to_slot(target, delta);
        }
    }

    /// Adds `delta` into the gradient slot of node `target`.
    fn add_to_slot(&mut self, target: Var, delta: Tensor) {
        match &mut self.grads[target.0] {
            Some(existing) => {
                existing.add_inplace(&delta);
                delta.recycle();
            }
            slot @ None => *slot = Some(delta),
        }
    }

    /// Adds `contribution` to the gradient of node `target`; a pending
    /// one only ever targets a leaf.
    fn contribute(&mut self, sweep: &mut Sweep, target: Var, contribution: Contribution) {
        match contribution {
            Contribution::Ready(delta) => self.accum(sweep, target, delta),
            pending => sweep.leaf_log.push((target, pending)),
        }
    }

    /// Contributes the weight gradient `task` of node `i` (output
    /// gradient `g`) to `target`: deferred when `target` is a leaf,
    /// computed now otherwise, because the sweep still has to propagate
    /// it.
    fn weight_grad(
        &mut self,
        sweep: &mut Sweep,
        (i, g): (usize, &Tensor),
        target: Var,
        task: Deferred,
    ) {
        if self.is_leaf(target) {
            let task = sweep.push(Some(i), task);
            self.contribute(sweep, target, Contribution::Pending { task, half: 0 });
        } else {
            let (dw, _) = task.run(&self.values, Some(g));
            self.accum(sweep, target, dw);
        }
    }

    /// Whether node `v` is a leaf (a constant or a parameter).
    fn is_leaf(&self, v: Var) -> bool {
        matches!(self.ops[v.0], Op::Leaf { .. })
    }

    /// Propagates the output gradient `g` of node `i` to its parents.
    fn propagate(&mut self, i: usize, g: &Tensor, sweep: &mut Sweep) {
        // `ops` is only read; gradients are written through `accum`.
        // Borrowck: clone light metadata out of the op before mutating.
        match &self.ops[i] {
            Op::Leaf { .. } => {}

            Op::Add(a, b) => {
                let (a, b) = (*a, *b);
                self.accum(sweep, a, g.clone());
                self.accum(sweep, b, g.clone());
            }
            Op::Sub(a, b) => {
                let (a, b) = (*a, *b);
                self.accum(sweep, a, g.clone());
                self.accum(sweep, b, g.neg());
            }
            Op::Mul(a, b) => {
                let (a, b) = (*a, *b);
                let da = g.mul(&self.values[b.0]);
                let db = g.mul(&self.values[a.0]);
                self.accum(sweep, a, da);
                self.accum(sweep, b, db);
            }
            Op::AddBroadcast0(a, b) => {
                let (a, b) = (*a, *b);
                self.accum(sweep, a, g.clone());
                self.accum(sweep, b, g.sum_axis0());
            }
            Op::AddScalar(a) => {
                let a = *a;
                self.accum(sweep, a, g.clone());
            }
            Op::MulScalar(a, s) => {
                let (a, s) = (*a, *s);
                self.accum(sweep, a, g.scale(s));
            }

            Op::Matmul(a, b) => {
                let (a, b) = (*a, *b);
                let da = g.matmul_nt(&self.values[b.0]);
                self.accum(sweep, a, da);
                self.weight_grad(sweep, (i, g), b, Deferred::Matmul { a });
            }
            Op::Bmm(a, b) => {
                let (a, b) = (*a, *b);
                let da = g.bmm_nt(&self.values[b.0]);
                let db = self.values[a.0].bmm_tn(g);
                self.accum(sweep, a, da);
                self.accum(sweep, b, db);
            }
            Op::BmmNt(a, b) => {
                // S = A · Bᵀ ⇒ dA = dS · B, dB = dSᵀ · A.
                let (a, b) = (*a, *b);
                let da = g.bmm(&self.values[b.0]);
                let db = g.bmm_tn(&self.values[a.0]);
                self.accum(sweep, a, da);
                self.accum(sweep, b, db);
            }
            Op::Transpose12(a) => {
                let a = *a;
                self.accum(sweep, a, g.transpose12());
            }
            Op::Reshape(a) => {
                let a = *a;
                let dims = self.values[a.0].dims().to_vec();
                self.accum(sweep, a, g.reshape(&dims));
            }

            Op::Conv1d {
                input,
                kernel,
                padding,
            } => {
                let (input, kernel, padding) = (*input, *kernel, *padding);
                let k = self.values[kernel.0].dims()[2];
                let dx = Tensor::conv1d_input_grad(g, &self.values[kernel.0], padding);
                self.accum(sweep, input, dx);
                let task = Deferred::Conv1d { input, k, padding };
                self.weight_grad(sweep, (i, g), kernel, task);
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
                let dx_gate = Tensor::conv1d_input_grad(&g_pre, &self.values[wg.0], padding);
                let dx_value = Tensor::conv1d_input_grad(&g_value, &self.values[wv.0], padding);
                let (dbg, dbv) = (g_pre.sum_keep_channel(), g_value.sum_keep_channel());
                let kernel = self.values[wv.0]
                    .dims()
                    .try_into()
                    .expect("glu kernel is rank 3");
                let task = Deferred::Glu {
                    input,
                    g_value,
                    g_pre,
                    kernel,
                    padding,
                };
                // One stacked task for both kernels: deferred when both are
                // leaves.
                let (dwv, dwg) = if self.is_leaf(wv) && self.is_leaf(wg) {
                    let task = sweep.push(None, task);
                    (
                        Contribution::Pending { task, half: 0 },
                        Contribution::Pending { task, half: 1 },
                    )
                } else {
                    let (gwv, gwg) = task.run(&self.values, None);
                    task.recycle();
                    let gwg = gwg.expect("a glu task yields both kernels");
                    (Contribution::Ready(gwv), Contribution::Ready(gwg))
                };
                // The composed block's reverse order: the gate branch
                // (bias, then conv) before the value branch, so `input`
                // receives the gate's contribution first.
                self.accum(sweep, bg, dbg);
                self.accum(sweep, input, dx_gate);
                self.contribute(sweep, wg, dwg);
                self.accum(sweep, bv, dbv);
                self.accum(sweep, input, dx_value);
                self.contribute(sweep, wv, dwv);
            }
            Op::AddBiasLast(x, bias) => {
                let (x, bias) = (*x, *bias);
                self.accum(sweep, x, g.clone());
                self.accum(sweep, bias, g.sum_keep_last());
            }
            Op::AddBiasChannel(x, bias) => {
                let (x, bias) = (*x, *bias);
                self.accum(sweep, x, g.clone());
                self.accum(sweep, bias, g.sum_keep_channel());
            }

            Op::Sigmoid(a) => {
                let a = *a;
                let dx = Tensor::sigmoid_grad_from_output(&self.values[i], g);
                self.accum(sweep, a, dx);
            }
            Op::Tanh(a) => {
                let a = *a;
                let dx = Tensor::tanh_grad_from_output(&self.values[i], g);
                self.accum(sweep, a, dx);
            }
            Op::Relu(a) => {
                let a = *a;
                let dx = Tensor::relu_grad_from_output(&self.values[i], g);
                self.accum(sweep, a, dx);
            }
            Op::Exp(a) => {
                let a = *a;
                let dx = g.mul(&self.values[i]);
                self.accum(sweep, a, dx);
            }
            Op::Square(a) => {
                let a = *a;
                let dx = g.mul(&self.values[a.0]).scale(2.0);
                self.accum(sweep, a, dx);
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
                self.accum(sweep, a, dx);
            }

            Op::MeanAll(a) => {
                let a = *a;
                let n = self.values[a.0].len().max(1);
                let dims = self.values[a.0].dims().to_vec();
                let dx = Tensor::full_pooled(&dims, g.item() / n as f32);
                self.accum(sweep, a, dx);
            }
            Op::SumAll(a) => {
                let a = *a;
                let dims = self.values[a.0].dims().to_vec();
                let dx = Tensor::full_pooled(&dims, g.item());
                self.accum(sweep, a, dx);
            }
            Op::MseLoss { pred, target } => {
                let pred = *pred;
                let n = target.len().max(1) as f32;
                let scale = 2.0 * g.item() / n;
                let dx = self.values[pred.0].sub(target).scale(scale);
                self.accum(sweep, pred, dx);
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
                self.accum(sweep, a, dx);
            }
            Op::MulConst(a, mask) => {
                let a = *a;
                let dx = g.mul(mask);
                self.accum(sweep, a, dx);
            }
        }
    }
}

/// Splits a tensor of two stacked `dims`-shaped halves (leading axis
/// doubled) into the two halves.
fn split_rows(stacked: Tensor, dims: &[usize; 3]) -> (Tensor, Tensor) {
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
    fn only_leaf_gradients_outlive_the_backward() {
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::from_vec(vec![1.0, 2.0], &[1, 2]));
        let w = tape.constant(Tensor::from_vec(vec![3.0, 4.0], &[2, 1]));
        let y = tape.matmul(x, w);
        let s = tape.square(y);
        let loss = tape.sum_all(s);
        tape.backward(loss);
        for inner in [y, s, loss] {
            assert!(tape.grad(inner).is_none(), "inner gradient kept");
        }
        // d/dw (x·w)² = 2(x·w)·xᵀ = 22·[1, 2]ᵀ.
        assert_eq!(tape.grad(w).unwrap().data(), &[22.0, 44.0]);
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
