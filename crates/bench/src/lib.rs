//! Shared harness utilities for the table/figure reproduction binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper's evaluation (Section 4); the README's "Reproducing the paper's
//! figures and tables" section lists them. Binaries accept `--scale quick|full` (default `quick`) and print the
//! configuration they ran, so results are reproducible from the command
//! line alone.

use cae_baselines::{
    AeEnsemble, AeEnsembleConfig, IsolationForest, LocalOutlierFactor, MovingAverage, Mscred,
    MscredConfig, OmniAnomaly, OmniConfig, OneClassSvm, Rae, RaeConfig, RaeEnsemble,
    RaeEnsembleConfig, RnnVae, RnnVaeConfig,
};
use cae_core::{CaeConfig, CaeEnsemble, EnsembleConfig};
use cae_data::{Dataset, DatasetKind, Detector, Scale};
use cae_metrics::EvalReport;
use std::time::{Duration, Instant};

/// Seed shared by all harness runs so every binary is reproducible.
pub const HARNESS_SEED: u64 = 2022;

/// Parses `--scale quick|full` from the process arguments.
pub fn parse_scale() -> Scale {
    let args: Vec<String> = std::env::args().collect();
    for pair in args.windows(2) {
        if pair[0] == "--scale" {
            return match pair[1].as_str() {
                "quick" => Scale::Quick,
                "full" => Scale::Full,
                other => panic!("unknown scale {other:?}; use quick or full"),
            };
        }
    }
    Scale::Quick
}

/// Harness-wide knobs derived from the scale preset.
#[derive(Clone, Copy, Debug)]
pub struct RunProfile {
    /// Dataset size preset.
    pub scale: Scale,
    /// Epochs per neural model / ensemble member.
    pub epochs: usize,
    /// Ensemble size `M` for all ensemble methods.
    pub num_models: usize,
    /// Stride between training windows.
    pub train_stride: usize,
    /// Embedding width `D′` of the CAE models.
    pub embed_dim: usize,
    /// Hidden width of the recurrent baselines.
    pub hidden: usize,
    /// Window size `w` shared by the windowed detectors.
    pub window: usize,
}

impl RunProfile {
    /// The profile for a scale preset.
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Quick => RunProfile {
                scale,
                epochs: 5,
                num_models: 5,
                train_stride: 6,
                embed_dim: 24,
                hidden: 24,
                window: 16,
            },
            Scale::Full => RunProfile {
                scale,
                epochs: 8,
                num_models: 8,
                train_stride: 4,
                embed_dim: 32,
                hidden: 32,
                window: 16,
            },
        }
    }

    /// CAE architecture for a `dim`-dimensional dataset.
    pub fn cae_config(&self, dim: usize) -> CaeConfig {
        CaeConfig::new(dim)
            .embed_dim(self.embed_dim)
            .window(self.window)
            .layers(2)
    }

    /// CAE-Ensemble training configuration.
    pub fn ensemble_config(&self) -> EnsembleConfig {
        EnsembleConfig::new()
            .num_models(self.num_models)
            .epochs_per_model(self.epochs)
            .train_stride(self.train_stride)
            .seed(HARNESS_SEED)
    }

    /// The full CAE-Ensemble detector.
    pub fn cae_ensemble(&self, dim: usize) -> CaeEnsemble {
        CaeEnsemble::new(self.cae_config(dim), self.ensemble_config())
    }

    /// The single-CAE detector (the `CAE` row of Tables 3–4).
    pub fn cae_single(&self, dim: usize) -> CaeEnsemble {
        CaeEnsemble::new(
            self.cae_config(dim),
            self.ensemble_config()
                .num_models(1)
                .diversity_driven(false)
                // A single model gets the ensemble's epoch budget share.
                .epochs_per_model(self.epochs * 2),
        )
    }

    /// RAE baseline configuration.
    pub fn rae_config(&self) -> RaeConfig {
        RaeConfig {
            hidden: self.hidden,
            window: self.window,
            epochs: self.epochs * 2,
            train_stride: self.train_stride,
            seed: HARNESS_SEED,
            ..RaeConfig::default()
        }
    }

    /// RAE-Ensemble baseline configuration.
    pub fn rae_ensemble_config(&self) -> RaeEnsembleConfig {
        RaeEnsembleConfig {
            rae: RaeConfig {
                epochs: self.epochs,
                ..self.rae_config()
            },
            num_models: self.num_models,
            ..RaeEnsembleConfig::default()
        }
    }

    /// All twelve detectors of Tables 3–4 in the paper's row order.
    pub fn all_detectors(&self, dim: usize) -> Vec<Box<dyn Detector>> {
        vec![
            Box::new(IsolationForest::with_defaults()),
            Box::new(LocalOutlierFactor::with_defaults()),
            Box::new(MovingAverage::with_defaults()),
            Box::new(OneClassSvm::with_defaults()),
            Box::new(Mscred::new(MscredConfig {
                epochs: self.epochs * 3,
                seed: HARNESS_SEED,
                ..MscredConfig::default()
            })),
            Box::new(OmniAnomaly::new(OmniConfig {
                hidden: self.hidden,
                window: self.window,
                epochs: self.epochs,
                train_stride: self.train_stride,
                seed: HARNESS_SEED,
                ..OmniConfig::default()
            })),
            Box::new(RnnVae::new(RnnVaeConfig {
                hidden: self.hidden,
                window: self.window,
                epochs: self.epochs,
                train_stride: self.train_stride,
                seed: HARNESS_SEED,
                ..RnnVaeConfig::default()
            })),
            Box::new(AeEnsemble::new(AeEnsembleConfig {
                num_models: self.num_models,
                epochs: self.epochs * 2,
                seed: HARNESS_SEED,
                ..AeEnsembleConfig::default()
            })),
            Box::new(Rae::new(self.rae_config())),
            Box::new(RaeEnsemble::new(self.rae_ensemble_config())),
            Box::new(Named::new("CAE", self.cae_single(dim))),
            Box::new(self.cae_ensemble(dim)),
        ]
    }
}

/// Wraps a detector with a display-name override (the single-CAE row of
/// the tables is a one-member `CaeEnsemble` but prints as "CAE").
pub struct Named<D: Detector> {
    name: String,
    inner: D,
}

impl<D: Detector> std::fmt::Debug for Named<D> {
    /// Display name only — `Detector` does not require `Debug`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Named")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

impl<D: Detector> Named<D> {
    /// Renames `inner` for table output.
    pub fn new(name: impl Into<String>, inner: D) -> Self {
        Named {
            name: name.into(),
            inner,
        }
    }
}

impl<D: Detector> Detector for Named<D> {
    fn name(&self) -> &str {
        &self.name
    }

    fn fit(&mut self, train: &cae_data::TimeSeries) {
        self.inner.fit(train);
    }

    fn score(&self, test: &cae_data::TimeSeries) -> Vec<f32> {
        self.inner.score(test)
    }
}

/// Generates one of the five benchmark datasets at the given scale.
pub fn load_dataset(kind: DatasetKind, scale: Scale) -> Dataset {
    kind.generate(scale, HARNESS_SEED)
}

/// Fits the detector, scores the test split and evaluates — one cell group
/// of Tables 3–4. Returns the report and the fit/score wall times.
pub fn evaluate(
    detector: &mut dyn Detector,
    dataset: &Dataset,
) -> (EvalReport, Duration, Duration) {
    let t0 = Instant::now();
    detector.fit(&dataset.train);
    let fit_time = t0.elapsed();
    let t1 = Instant::now();
    let scores = detector.score(&dataset.test);
    let score_time = t1.elapsed();
    (
        EvalReport::compute(&scores, &dataset.test_labels),
        fit_time,
        score_time,
    )
}

/// Prints an aligned plain-text table.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row.iter()) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let mut out = String::new();
        for (w, cell) in widths.iter().zip(cells.iter()) {
            out.push_str(&format!("{cell:<w$}  "));
        }
        println!("{}", out.trim_end());
    };
    line(&header.iter().map(ToString::to_string).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// Formats a metric to the paper's four decimals.
pub fn fmt4(v: f64) -> String {
    format!("{v:.4}")
}

/// Formats a duration in seconds with two decimals.
pub fn fmt_secs(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64())
}

/// Enables thread parallelism matching the machine.
///
/// Every figure/table binary calls this first so reported times reflect
/// the parallel backend (the persistent worker pool in `cae_tensor::par`);
/// `perf_report` sets the same pool from its `--threads` flag instead.
/// Idempotent and cheap: workers are spawned lazily by the first parallel
/// kernel, once per process.
pub fn init_parallelism() {
    cae_tensor::par::use_all_cores();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_scales_differ() {
        let q = RunProfile::new(Scale::Quick);
        let f = RunProfile::new(Scale::Full);
        assert!(f.num_models > q.num_models);
        assert!(f.epochs > q.epochs);
    }

    #[test]
    fn twelve_detectors_in_paper_order() {
        let profile = RunProfile::new(Scale::Quick);
        let detectors = profile.all_detectors(2);
        let names: Vec<&str> = detectors.iter().map(|d| d.name()).collect();
        assert_eq!(
            names,
            vec![
                "ISF",
                "LOF",
                "MAS",
                "OCSVM",
                "MSCRED",
                "OMNIANOMALY",
                "RNNVAE",
                "AE-Ensemble",
                "RAE",
                "RAE-Ensemble",
                "CAE",
                "CAE-Ensemble",
            ]
        );
    }

    #[test]
    fn evaluate_produces_finite_report() {
        let profile = RunProfile::new(Scale::Quick);
        let ds = load_dataset(DatasetKind::Ecg, Scale::Quick);
        let mut mas = MovingAverage::with_defaults();
        let (report, fit, score) = evaluate(&mut mas, &ds);
        assert!(report.roc_auc.is_finite());
        assert!(fit.as_nanos() > 0 || score.as_nanos() > 0);
        let _ = profile;
    }
}
