//! Tape-based reverse-mode automatic differentiation over [`cae_tensor`].
//!
//! The training of every neural model in the reproduction — the CAE basic
//! models, the recurrent and feed-forward baselines and the variational
//! models — runs through this engine.
//!
//! # Design
//!
//! * A [`Tape`] is an append-only arena of nodes. Each forward operation
//!   appends a node holding its output [`Tensor`](cae_tensor::Tensor) and an
//!   [`Op`] describing how it was produced, then hands back a [`Var`]
//!   (a `Copy` index into the tape).
//! * [`Tape::backward`] walks the arena in reverse, dispatching on the `Op`
//!   enum to propagate gradients — no closures, no `Rc`/`RefCell` graphs.
//! * The backward runs in two phases. The reverse sweep propagates every
//!   input gradient, which later nodes of the sweep read. A weight
//!   gradient of a leaf reads nothing later in the sweep: the kernel
//!   gradients of `Conv1d` and `Glu` nodes and the `aᵀ·g` of a `Matmul`
//!   node whose right operand is a leaf. The sweep therefore records it
//!   as a pending task, and after the sweep all pending tasks run as one
//!   `cae_tensor::par::map_indexed` fan-out (inline at one thread). This
//!   is the weight/input gradient split of zero-bubble pipeline
//!   schedules (arXiv:2401.10241). A weight gradient whose target is
//!   *not* a leaf (a kernel computed on the tape) is computed in the
//!   sweep, as its gradient must flow on.
//! * Ordering guarantee: every contribution to a leaf's gradient, pending
//!   or computed in the sweep, is added after the fan-out in the order
//!   the sweep produced it. A leaf used by several nodes (the per-step
//!   weights of a recurrent model) therefore sums its contributions in
//!   the same order at every thread count, and the gradients are bit for
//!   bit those of a single inline sweep
//!   (`crates/autograd/tests/deferred_grads.rs`).
//! * Only leaf gradients outlive the backward. An inner node's gradient
//!   is freed once the sweep has propagated it (or, for a node with a
//!   pending task, once the task has run), so a tape's peak footprint is
//!   its values plus the gradients in flight. Freed, not recycled: the
//!   thread's scratch pool is capped, and the sweep's gradients would
//!   crowd out the value buffers the next forward reuses.
//! * Model parameters live outside the tape in a [`ParamStore`]. Injecting a
//!   parameter into a tape ([`Tape::param`]) records its [`ParamId`], so
//!   after `backward` the accumulated gradients can be flushed back with
//!   [`Tape::accumulate_param_grads`] and consumed by an optimizer.
//!
//! A tape is built fresh for every training step (or reused via
//! [`Tape::clear`], which keeps allocations), which makes control flow in
//! models — loops over RNN steps, per-layer attention — ordinary Rust.
//!
//! # Example
//!
//! ```
//! use cae_autograd::{ParamStore, Tape};
//! use cae_tensor::Tensor;
//!
//! let mut store = ParamStore::new();
//! let w = store.register("w", Tensor::from_vec(vec![2.0], &[1, 1]));
//!
//! let mut tape = Tape::new();
//! let x = tape.constant(Tensor::from_vec(vec![3.0], &[1, 1]));
//! let wv = tape.param(&store, w);
//! let y = tape.matmul(x, wv);
//! let loss = tape.mse_loss(y, &Tensor::from_vec(vec![10.0], &[1, 1]));
//!
//! tape.backward(loss);
//! tape.accumulate_param_grads(&mut store);
//! // d/dw mean((3w - 10)^2) = 2 * (3w - 10) * 3 = -24 at w = 2
//! assert!((store.grad(w).data()[0] + 24.0).abs() < 1e-4);
//! ```

mod backward;
mod params;
mod tape;

pub use params::{transfer_fraction, ParamId, ParamStore};
pub use tape::{Op, Tape, Var};
