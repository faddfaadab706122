//! Baseline outlier detectors from the CAE-Ensemble evaluation
//! (paper Section 4.1.2).
//!
//! Every detector implements [`cae_data::Detector`] with the same
//! fit-on-train / score-per-observation contract as the CAE-Ensemble, so
//! the benchmark harness can run the full Table 3–4 comparison uniformly.
//!
//! | Paper name | Type | Here |
//! |---|---|---|
//! | ISF | Isolation Forest, 100 estimators | [`IsolationForest`] |
//! | LOF | Local Outlier Factor, k = 20 | [`LocalOutlierFactor`] |
//! | OCSVM | one-class SVM, RBF kernel, ν = 0.5 | [`OneClassSvm`] (random-Fourier-feature approximation; see the substitution note in `ocsvm.rs`) |
//! | MAS | moving-average smoothing | [`MovingAverage`] |
//! | AE-Ensemble | feed-forward AEs, 20% connections dropped | [`AeEnsemble`] |
//! | RAE | LSTM seq2seq autoencoder | [`Rae`] |
//! | RAE-Ensemble | recurrent AEs with sparse skip connections | [`RaeEnsemble`] |
//! | MSCRED | correlation-matrix reconstruction | [`Mscred`] (convolutional-AE-free simplification; see the substitution note in `mscred.rs`) |
//! | RNNVAE | variational recurrent AE | [`RnnVae`] |
//! | OMNIANOMALY | stochastic recurrent AE | [`OmniAnomaly`] (without normalizing flows; see the substitution note in `omni.rs`) |
//!
//! The eleventh comparison method, the single CAE, is
//! [`cae_core::CaeEnsemble`] with `num_models(1)`.

mod ae_ensemble;
mod isolation_forest;
mod lof;
mod mas;
mod mscred;
mod ocsvm;
mod omni;
mod rae;
mod rnnvae;
pub(crate) mod util;

pub use ae_ensemble::{AeEnsemble, AeEnsembleConfig};
pub use isolation_forest::{IsolationForest, IsolationForestConfig};
pub use lof::{LocalOutlierFactor, LofConfig};
pub use mas::{MovingAverage, MovingAverageConfig};
pub use mscred::{Mscred, MscredConfig};
pub use ocsvm::{OcsvmConfig, OneClassSvm};
pub use omni::{OmniAnomaly, OmniConfig};
pub use rae::{Rae, RaeConfig, RaeEnsemble, RaeEnsembleConfig};
pub use rnnvae::{RnnVae, RnnVaeConfig};
