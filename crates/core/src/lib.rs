//! **CAE-Ensemble** — diversity-driven convolutional autoencoder ensembles
//! for unsupervised time series outlier detection.
//!
//! This crate implements the primary contribution of
//! *"Unsupervised Time Series Outlier Detection with Diversity-Driven
//! Convolutional Ensembles"* (Campos et al., PVLDB 2022):
//!
//! * [`Cae`] — the convolutional sequence-to-sequence autoencoder basic
//!   model (Section 3.1): observation+position embedding, GLU-gated
//!   convolutional encoder with skip connections, causal convolutional
//!   decoder with encoder-state injection, per-layer global attention and a
//!   reconstruction head. Training records its forward on an autograd
//!   tape; every scorer runs [`Cae::infer`], a tape-free forward whose
//!   [`Inference`] is bit-identical to the tape's.
//! * [`CaeEnsemble`] — the diversity-driven ensemble (Section 3.2):
//!   sequential basic-model generation with parameter transfer (fraction β,
//!   Figure 9), the diversity-driven objective `J − λK` (Eq. 13) and median
//!   score aggregation (Eq. 15). Implements Algorithm 1.
//! * [`hyper`] — fully unsupervised hyperparameter selection by the median
//!   validation reconstruction error (Section 3.3, Algorithm 2).
//! * [`StreamingDetector`] — online per-observation scoring (the setting of
//!   Table 8).
//! * [`persist`] — versioned binary checkpoints: [`CaeEnsemble::save`] /
//!   [`CaeEnsemble::load`] round-trip a trained ensemble bit-exactly, so
//!   the online phase can run in a process that never trains (the
//!   offline/online split of Section 4.2.7; fleet-scale serving lives in
//!   the `cae-serve` crate).
//! * [`diversity`] — the ensemble diversity metric DIV (Eq. 9–10), also
//!   used stand-alone to reproduce Table 6.
//!
//! # Quickstart
//!
//! ```
//! use cae_core::{CaeConfig, CaeEnsemble, EnsembleConfig};
//! use cae_data::{Detector, TimeSeries};
//!
//! // A short periodic series with one injected spike. Deliberately tiny
//! // (and trained for a single epoch) so `cargo test` stays fast; see
//! // `examples/quickstart.rs` for a realistic configuration.
//! let mut values: Vec<f32> = (0..96)
//!     .map(|t| (t as f32 * 0.4).sin())
//!     .collect();
//! values[70] += 6.0;
//! let series = TimeSeries::univariate(values.clone());
//!
//! let model_cfg = CaeConfig::new(1).embed_dim(8).layers(1).window(8);
//! let ens_cfg = EnsembleConfig::new()
//!     .num_models(2)
//!     .epochs_per_model(1)
//!     .seed(7);
//! let mut detector = CaeEnsemble::new(model_cfg, ens_cfg);
//! detector.fit(&series);
//! let scores = detector.score(&series);
//! assert_eq!(scores.len(), 96);
//! ```

mod config;
pub mod diversity;
mod ensemble;
pub mod hyper;
mod model;
pub mod persist;
pub mod repair;
mod shard;
mod streaming;

pub use config::{CaeConfig, EnsembleConfig, ReconstructionTarget};
pub use ensemble::{CaeEnsemble, RefitOptions};
pub use hyper::{select_hyperparameters, HyperRanges, HyperSelection, TrialRecord};
pub use model::{Cae, Inference, Positions};
pub use persist::{FallbackExhausted, PersistError, RecoveredLoad};
pub use repair::{repair_series, RepairReport};
pub use streaming::StreamingDetector;
