//! Outlier repair — the paper's stated future work ("it is of interest to
//! enable unsupervised time series cleaning by repairing detected
//! outliers", Section 6), implemented as an extension.
//!
//! Strategy: score the series with the trained ensemble, flag observations
//! above a threshold, and replace each flagged observation with the
//! ensemble's reconstruction of it (median across members, de-normalized
//! back to the original scale). Observations the ensemble considers normal
//! are left untouched.
//!
//! Requires an ensemble trained with
//! [`ReconstructionTarget::Raw`](crate::ReconstructionTarget) — in embedded
//! mode reconstructions live in a learned space and cannot be mapped back
//! to observations.

use crate::config::ReconstructionTarget;
use crate::ensemble::CaeEnsemble;
use cae_data::scoring::median;
use cae_data::{num_windows, TimeSeries};

/// Outcome of a repair pass.
#[derive(Clone, Debug)]
pub struct RepairReport {
    /// The cleaned series (same length/dimensionality as the input).
    pub repaired: TimeSeries,
    /// Indices of the observations that were replaced.
    pub replaced: Vec<usize>,
    /// The outlier scores used for flagging.
    pub scores: Vec<f32>,
}

/// Replaces observations whose outlier score exceeds `threshold` with the
/// ensemble's median reconstruction.
///
/// Panics if the ensemble is unfitted or was trained with the embedded
/// reconstruction target.
pub fn repair_series(ensemble: &CaeEnsemble, series: &TimeSeries, threshold: f32) -> RepairReport {
    assert!(
        ensemble.num_members() > 0,
        "repair_series requires a fitted ensemble"
    );
    assert_eq!(
        ensemble.model_config().target,
        ReconstructionTarget::Raw,
        "repair requires ReconstructionTarget::Raw (reconstructions must live in data space)"
    );
    let w = ensemble.model_config().window;
    let d = series.dim();
    assert!(series.len() >= w, "series shorter than one window");

    let scores = {
        use cae_data::Detector;
        ensemble.score(series)
    };

    // Median-of-members reconstruction for every observation, assembled
    // with the same first-window-full / last-position-after protocol as the
    // scores so each observation has exactly one reconstruction.
    let scaled = match ensemble.scaler() {
        Some(s) => s.transform(series),
        None => series.clone(),
    };
    let n_win = num_windows(scaled.len(), w);
    let starts: Vec<usize> = (0..n_win).collect();
    // Raw-space reconstructions of every window, `(n_win × w × D)` per member.
    let recon_members: Vec<Vec<f32>> = ensemble
        .members()
        .iter()
        .map(|(model, store)| CaeEnsemble::reconstruct_all(model, store, &scaled, &starts))
        .collect();

    let mut repaired = series.clone();
    let mut replaced = Vec::new();
    let mut column = vec![0.0f32; recon_members.len()];
    for (t, &score) in scores.iter().enumerate() {
        if score <= threshold {
            continue;
        }
        // Locate observation t inside the window layout (Figure 10).
        let (win, pos) = if t < w { (0, t) } else { (t - w + 1, w - 1) };
        debug_assert!(win < n_win);
        for dim in 0..d {
            for (slot, member) in column.iter_mut().zip(recon_members.iter()) {
                *slot = member[(win * w + pos) * d + dim];
            }
            let value = median(&mut column);
            repaired.data_mut()[t * d + dim] = value;
        }
        replaced.push(t);
    }

    // De-normalize the replaced observations back to the original scale.
    if let Some(scaler) = ensemble.scaler() {
        let z = TimeSeries::new(repaired.data().to_vec(), d);
        let mut back = scaler.inverse_transform(&z);
        // Only replaced positions came from the scaled space; restore the
        // untouched positions from the original series.
        for t in 0..series.len() {
            if !replaced.contains(&t) {
                let src = series.observation(t);
                back.data_mut()[t * d..(t + 1) * d].copy_from_slice(src);
            }
        }
        repaired = back;
    }

    RepairReport {
        repaired,
        replaced,
        scores,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CaeConfig, EnsembleConfig};
    use cae_data::Detector;

    fn fitted_raw_ensemble(train: &TimeSeries) -> CaeEnsemble {
        let mc = CaeConfig::new(1)
            .embed_dim(8)
            .window(8)
            .layers(1)
            .target(ReconstructionTarget::Raw);
        let ec = EnsembleConfig::new()
            .num_models(3)
            .epochs_per_model(6)
            .batch_size(16)
            .train_stride(2)
            .learning_rate(5e-3)
            .seed(3);
        let mut ens = CaeEnsemble::new(mc, ec);
        ens.fit(train);
        ens
    }

    fn sine(len: usize) -> TimeSeries {
        TimeSeries::univariate((0..len).map(|t| (t as f32 * 0.35).sin()).collect())
    }

    #[test]
    fn repair_replaces_spike_with_plausible_value() {
        let train = sine(400);
        let mut test = sine(150);
        let clean_value = test.data()[80];
        test.data_mut()[80] += 8.0;

        let ens = fitted_raw_ensemble(&train);
        let scores = ens.score(&test);
        let threshold = {
            let mut sorted = scores.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            sorted[(sorted.len() as f64 * 0.98) as usize]
        };
        let report = repair_series(&ens, &test, threshold);
        assert!(
            report.replaced.contains(&80),
            "spike not repaired: {:?}",
            report.replaced
        );
        let repaired_value = report.repaired.observation(80)[0];
        assert!(
            (repaired_value - clean_value).abs() < (test.observation(80)[0] - clean_value).abs(),
            "repair {repaired_value} no closer to clean {clean_value} than spike"
        );
        // Untouched observations are bit-identical to the input.
        assert_eq!(report.repaired.observation(0), test.observation(0));
    }

    #[test]
    fn repair_with_infinite_threshold_is_identity() {
        let train = sine(300);
        let test = sine(100);
        let ens = fitted_raw_ensemble(&train);
        let report = repair_series(&ens, &test, f32::INFINITY);
        assert!(report.replaced.is_empty());
        assert_eq!(report.repaired.data(), test.data());
    }

    #[test]
    #[should_panic(expected = "ReconstructionTarget::Raw")]
    fn repair_rejects_embedded_target() {
        let train = sine(300);
        let mc = CaeConfig::new(1).embed_dim(8).window(8).layers(1);
        let ec = EnsembleConfig::new()
            .num_models(2)
            .epochs_per_model(1)
            .seed(3);
        let mut ens = CaeEnsemble::new(mc, ec);
        ens.fit(&train);
        repair_series(&ens, &train, 0.5);
    }
}
