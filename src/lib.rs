//! # CAE-Ensemble reproduction
//!
//! Umbrella crate for the from-scratch Rust reproduction of
//! *"Unsupervised Time Series Outlier Detection with Diversity-Driven
//! Convolutional Ensembles"* (Campos et al., PVLDB 2022).
//!
//! This crate re-exports the public API of the workspace so downstream
//! users can depend on a single crate:
//!
//! * [`core`] — the CAE-Ensemble detector (the paper's contribution);
//! * [`serve`] — checkpoint-backed serving: many concurrent streams
//!   batched against one trained ensemble, with hot ensemble swap;
//! * [`adapt`] — online adaptation: drift detection, background
//!   warm-start re-fit, atomic checkpointing and swap publishing;
//! * [`chaos`] — deterministic fault injection: seeded failpoints and
//!   input-fault generators for chaos-testing the serving stack;
//! * [`baselines`] — the eleven comparison methods of the evaluation;
//! * [`data`] — time series containers, pre-processing, synthetic datasets;
//! * [`metrics`] — PR/ROC AUC and F1 evaluation suites;
//! * [`obs`] — runtime telemetry: the lock-free metrics registry,
//!   latency histograms, the fleet health report and the exporters every
//!   serving tier publishes into;
//! * [`nn`] / [`autograd`] / [`tensor`] — the neural substrate.
//!
//! See `README.md` for a quickstart and its "Reproducing the paper's
//! figures and tables" section for the paper-to-code map.

pub use cae_adapt as adapt;
pub use cae_autograd as autograd;
pub use cae_baselines as baselines;
pub use cae_chaos as chaos;
pub use cae_core as core;
pub use cae_data as data;
pub use cae_metrics as metrics;
pub use cae_nn as nn;
pub use cae_obs as obs;
pub use cae_serve as serve;
pub use cae_tensor as tensor;

/// Convenience prelude importing the types most programs need.
pub mod prelude {
    pub use cae_adapt::{AdaptationConfig, AdaptationController, CheckpointFailure};
    pub use cae_core::{
        CaeConfig, CaeEnsemble, EnsembleConfig, PersistError, RefitOptions, StreamingDetector,
    };
    pub use cae_data::{
        Dataset, DatasetKind, Detector, DriftMonitor, ObservationReservoir, Scale, Scaler,
        TimeSeries,
    };
    pub use cae_metrics::EvalReport;
    pub use cae_obs::{HealthReport, MetricsRegistry, ObsClock};
    pub use cae_serve::{
        FleetDetector, HealthConfig, PushError, PushOutcome, StreamHealth, StreamId,
    };
}

#[cfg(test)]
mod tests {
    //! Audit that every name the umbrella re-exports actually resolves —
    //! both the crate aliases above and each item in [`crate::prelude`].

    #[test]
    fn prelude_names_resolve_and_construct() {
        use crate::prelude::{
            AdaptationConfig, AdaptationController, CaeConfig, CaeEnsemble, CheckpointFailure,
            Dataset, DatasetKind, Detector, DriftMonitor, EnsembleConfig, EvalReport,
            FleetDetector, HealthConfig, HealthReport, MetricsRegistry, ObsClock,
            ObservationReservoir, PushError, PushOutcome, RefitOptions, Scale, Scaler,
            StreamHealth, StreamingDetector, TimeSeries,
        };

        let series = TimeSeries::univariate((0..64).map(|t| (t as f32 * 0.3).sin()).collect());
        let scaler = Scaler::fit(&series);
        let _scaled = scaler.transform(&series);

        let ds: Dataset = DatasetKind::Ecg.generate(Scale::Quick, 1);
        assert!(!ds.train.is_empty() && !ds.test.is_empty());

        let mut ens = CaeEnsemble::new(
            CaeConfig::new(1).embed_dim(4).window(8).layers(1),
            EnsembleConfig::new()
                .num_models(1)
                .epochs_per_model(1)
                .seed(3),
        );
        ens.fit(&series);
        let scores = ens.score(&series);
        assert_eq!(scores.len(), series.len());

        let labels: Vec<bool> = (0..series.len()).map(|t| t == 40).collect();
        let report = EvalReport::compute(&scores, &labels);
        assert!(report.roc_auc.is_finite());

        let mut streaming = StreamingDetector::new(&ens);
        let s = streaming.push(&[0.5]);
        assert!(s.is_none_or(f32::is_finite));

        let mut fleet = FleetDetector::with_health(ens, HealthConfig::default());
        let id = fleet.add_stream();
        assert_eq!(fleet.push(id, &[0.5]), Ok(PushOutcome::Stored));
        assert_eq!(fleet.stream_health(id), StreamHealth::Healthy);
        assert_eq!(
            fleet.push(id, &[0.5, 0.5]),
            Err(PushError::DimMismatch {
                got: 2,
                expected: 1
            })
        );
        let mut ticked = Vec::new();
        fleet.tick(&mut ticked);
        assert!(ticked.iter().all(|(_, v)| v.is_finite()));
        let mut report: HealthReport = fleet.health_report();
        assert!(report.degraded());

        let mut reservoir = ObservationReservoir::new(1, 8);
        reservoir.push(&[0.5]);
        let mut monitor = DriftMonitor::from_baseline_scores(&scores, 0.1, 4.0);
        let _ = monitor.observe(0.1);
        let _ = RefitOptions::warm(1, 0);
        let mut adapt = AdaptationController::new(
            fleet.ensemble(),
            &scores,
            AdaptationConfig::new()
                .min_observations(16)
                .reservoir_capacity(32),
        );
        let _ = adapt.observe(fleet.ensemble(), &[0.5], 0.1);
        assert!(adapt.poll().is_none());
        report.merge(&adapt.health_report());
        let _: Option<&CheckpointFailure> = adapt.last_checkpoint_error();

        let registry = MetricsRegistry::new();
        registry.counter("prelude_checks_total").inc();
        let _clock = ObsClock::monotonic();
        assert!(registry
            .snapshot()
            .to_json()
            .contains("prelude_checks_total"));
    }

    #[test]
    fn crate_aliases_resolve() {
        let t = crate::tensor::Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let _ = crate::autograd::Tape::new();
        let _ = crate::nn::Activation::Relu;
        let _ = crate::metrics::roc_auc(&[0.1, 0.9], &[false, true]);
        let _ = crate::data::num_windows(16, 8);
        let _ = crate::baselines::MovingAverage::with_defaults();
        let _ = crate::core::ReconstructionTarget::Raw;
        let _ = crate::obs::MetricsRegistry::disabled();
        let _ = crate::serve::FLEET_BATCH;
        let _ = crate::adapt::AdaptationStats::default();
        let _ = crate::chaos::SplitMix64::new(7);
        let _ = crate::chaos::InputFault::ALL;
        assert_eq!(t.dims(), &[2, 2]);
    }
}
