//! Neural network building blocks for the CAE-Ensemble reproduction.
//!
//! Everything here is a thin, explicitly-parameterized layer over the
//! [`cae_autograd`] tape:
//!
//! * [`Linear`] — affine map over the **last** axis of any-rank input;
//! * [`Conv1dLayer`] — 1-D convolution plus channel bias over `(B, C, L)`;
//! * [`GluConv1d`] — the gated convolution block of the paper (Eq. 4–5);
//! * [`GruCell`], [`LstmCell`] — recurrent cells for the RAE baselines;
//! * [`Activation`] — the activation alphabet used across models;
//! * [`Adam`] — the optimizer, behind the [`Optimizer`] trait, over a
//!   [`ParamStore`](cae_autograd::ParamStore).
//!
//! Layers hold only [`ParamId`](cae_autograd::ParamId)s; the values live in
//! the model's `ParamStore`, which keeps parameter transfer between ensemble
//! members (paper Figure 9) a pure store-to-store operation.

mod activation;
mod conv;
mod init;
mod linear;
mod optim;
mod rnn;

pub use activation::Activation;
pub use conv::{Conv1dLayer, GluConv1d};
pub use init::{Initializer, XavierInit, ZerosInit};
pub use linear::Linear;
pub use optim::{Adam, Optimizer};
pub use rnn::{GruCell, LstmCell, LstmState};
