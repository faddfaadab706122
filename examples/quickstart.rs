//! Quickstart: train a CAE-Ensemble on a synthetic periodic signal and
//! flag injected anomalies.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use cae_ensemble_repro::prelude::*;

/// Fixed RNG seed: training is deterministic, so repeated runs print
/// identical scores.
const SEED: u64 = 7;

/// What `main` and the test run at.
struct Params {
    train_len: usize,
    test_len: usize,
    model: CaeConfig,
    ens: EnsembleConfig,
}

fn main() {
    let report = run(Params {
        train_len: 2000,
        test_len: 800,
        model: CaeConfig::new(1).embed_dim(16).window(16).layers(2),
        ens: EnsembleConfig::new()
            .num_models(4)
            .epochs_per_model(5)
            .lambda(2.0) // diversity weight λ (Eq. 13)
            .beta(0.5) // parameter-transfer fraction β (Fig. 9)
            .seed(SEED),
    });
    assert!(
        report.roc_auc > 0.8,
        "detector failed to separate the anomalies"
    );
    println!("done — ROC AUC {:.3}", report.roc_auc);
}

fn run(p: Params) -> EvalReport {
    // 1. A clean training series: two superimposed sinusoids.
    let wave = |t: usize| (t as f32 * 0.2).sin() + 0.4 * (t as f32 * 0.05).sin();
    let train = TimeSeries::univariate((0..p.train_len).map(wave).collect());

    // 2. A test series with three kinds of injected outliers.
    let n = p.test_len;
    let (spike, shift, osc, span) = (n / 4, n / 2, 3 * n / 4, n / 40);
    let mut values: Vec<f32> = (0..n).map(wave).collect();
    values[spike] += 5.0; // point spike
    for v in &mut values[shift..shift + span] {
        *v += 2.0; // level shift interval
    }
    for (i, v) in values[osc..osc + span].iter_mut().enumerate() {
        *v = if i % 2 == 0 { 3.0 } else { -3.0 }; // oscillation fault
    }
    let test = TimeSeries::univariate(values);
    let mut labels = vec![false; n];
    labels[spike] = true;
    labels[shift..shift + span].fill(true);
    labels[osc..osc + span].fill(true);

    // 3. Train the detector (Section 3 of the paper).
    println!("training CAE-Ensemble ({} basic models)…", p.ens.num_models);
    let mut detector = CaeEnsemble::new(p.model, p.ens);
    detector.fit(&train);

    // 4. Score and evaluate.
    let scores = detector.score(&test);
    assert_eq!(scores.len(), n);
    assert!(scores.iter().all(|s| s.is_finite()));
    let report = EvalReport::compute(&scores, &labels);
    println!("evaluation: {report}");

    // 5. Show the top-scoring timestamps.
    let mut ranked: Vec<(usize, f32)> = scores.iter().copied().enumerate().collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("scores are finite"));
    println!("top-10 flagged timestamps (truth in brackets):");
    for &(t, s) in ranked.iter().take(10) {
        println!(
            "  t = {t:4}  score = {s:8.3}  [{}]",
            if labels[t] { "outlier" } else { "normal" }
        );
    }
    report
}

#[test]
fn quickstart_pipeline_runs_on_a_tiny_series() {
    let report = run(Params {
        train_len: 300,
        test_len: 160,
        model: CaeConfig::new(1).embed_dim(8).window(16).layers(1),
        ens: EnsembleConfig::new()
            .num_models(2)
            .epochs_per_model(3)
            .seed(SEED),
    });
    assert!(
        report.roc_auc > 0.7,
        "tiny quickstart failed to separate injected outliers: {report}"
    );
}
