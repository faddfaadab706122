//! Seeded synthetic generators standing in for the paper's five evaluation
//! datasets.
//!
//! The real datasets (ECG, SMD, MSL, SMAP, WADI) are not redistributable
//! here, so each generator synthesizes a series reproducing the
//! characteristics that drive detector behaviour — dimensionality, outlier
//! ratio, temporal structure, and *interval-labelled* ground truth (whole
//! anomalous windows are labelled although only a few observations inside
//! deviate strongly, the property behind the paper's recall analysis in
//! Figures 11–12). Each generator's module documents what it stands in
//! for.
//!
//! All generators are deterministic given `(Scale, seed)`.

mod ecg;
mod msl;
mod smap;
mod smd;
pub mod synth;
mod wadi;

use crate::Dataset;

/// Dataset size preset.
///
/// The paper's originals hold 10⁵–10⁶ observations; [`Scale::Quick`] scales
/// them to laptop-CPU size while [`Scale::Full`] is ~3× larger for the
/// final benchmark runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Small: every experiment finishes in seconds to minutes on CPU.
    Quick,
    /// Larger: closer to the paper's regime, for the final runs.
    Full,
}

impl Scale {
    /// Multiplies a quick-scale length by the preset factor.
    pub fn len(self, quick: usize) -> usize {
        match self {
            Scale::Quick => quick,
            Scale::Full => quick * 3,
        }
    }
}

/// The five evaluation datasets of Section 4.1.1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// Electrocardiogram-like: 2-dim quasi-periodic beats (outliers 4.88%).
    Ecg,
    /// Server-machine-like: 38-dim correlated load metrics (4.16%).
    Smd,
    /// Mars-rover-telemetry-like: 55-dim, mostly command states (9.17%).
    Msl,
    /// Soil-moisture-satellite-like: 25-dim seasonal channels (12.27%).
    Smap,
    /// Water-distribution-like: 127-dim sensors/actuators under attack
    /// intervals (5.76%).
    Wadi,
}

impl DatasetKind {
    /// All five kinds in the order the paper reports them.
    pub fn all() -> [DatasetKind; 5] {
        [
            DatasetKind::Ecg,
            DatasetKind::Smd,
            DatasetKind::Msl,
            DatasetKind::Smap,
            DatasetKind::Wadi,
        ]
    }

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            DatasetKind::Ecg => "ECG",
            DatasetKind::Smd => "SMD",
            DatasetKind::Msl => "MSL",
            DatasetKind::Smap => "SMAP",
            DatasetKind::Wadi => "WADI",
        }
    }

    /// Observation dimensionality, matching the original dataset.
    pub fn dim(self) -> usize {
        match self {
            DatasetKind::Ecg => 2,
            DatasetKind::Smd => 38,
            DatasetKind::Msl => 55,
            DatasetKind::Smap => 25,
            DatasetKind::Wadi => 127,
        }
    }

    /// Outlier ratio reported in Section 4.1.1, used as the generators'
    /// injection target.
    pub fn paper_outlier_ratio(self) -> f64 {
        match self {
            DatasetKind::Ecg => 0.0488,
            DatasetKind::Smd => 0.0416,
            DatasetKind::Msl => 0.0917,
            DatasetKind::Smap => 0.1227,
            DatasetKind::Wadi => 0.0576,
        }
    }

    /// Generates the dataset at the given scale with a fixed seed.
    pub fn generate(self, scale: Scale, seed: u64) -> Dataset {
        let ds = match self {
            DatasetKind::Ecg => ecg::generate(scale, seed),
            DatasetKind::Smd => smd::generate(scale, seed),
            DatasetKind::Msl => msl::generate(scale, seed),
            DatasetKind::Smap => smap::generate(scale, seed),
            DatasetKind::Wadi => wadi::generate(scale, seed),
        };
        debug_assert!(ds.validate().is_ok());
        ds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_generates_consistent_dataset() {
        for kind in DatasetKind::all() {
            let ds = kind.generate(Scale::Quick, 7);
            ds.validate()
                .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
            assert_eq!(ds.train.dim(), kind.dim(), "{} dim", kind.name());
            assert!(ds.train.len() > 500, "{} train too short", kind.name());
            assert!(ds.test.len() > 500, "{} test too short", kind.name());
        }
    }

    #[test]
    fn outlier_ratios_near_paper_values() {
        for kind in DatasetKind::all() {
            let ds = kind.generate(Scale::Quick, 13);
            let ratio = ds.outlier_ratio();
            let target = kind.paper_outlier_ratio();
            assert!(
                (ratio - target).abs() < 0.35 * target + 0.005,
                "{}: ratio {ratio:.4} vs paper {target:.4}",
                kind.name()
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        for kind in DatasetKind::all() {
            let a = kind.generate(Scale::Quick, 42);
            let b = kind.generate(Scale::Quick, 42);
            assert_eq!(a.train.data(), b.train.data(), "{} train", kind.name());
            assert_eq!(a.test.data(), b.test.data(), "{} test", kind.name());
            assert_eq!(a.test_labels, b.test_labels, "{} labels", kind.name());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = DatasetKind::Ecg.generate(Scale::Quick, 1);
        let b = DatasetKind::Ecg.generate(Scale::Quick, 2);
        assert_ne!(a.test.data(), b.test.data());
    }

    #[test]
    fn full_scale_is_larger() {
        let q = DatasetKind::Smd.generate(Scale::Quick, 3);
        let f = DatasetKind::Smd.generate(Scale::Full, 3);
        assert!(f.train.len() > 2 * q.train.len());
    }

    #[test]
    fn all_values_finite() {
        for kind in DatasetKind::all() {
            let ds = kind.generate(Scale::Quick, 5);
            assert!(
                ds.train
                    .data()
                    .iter()
                    .chain(ds.test.data())
                    .all(|v| v.is_finite()),
                "{} produced non-finite values",
                kind.name()
            );
        }
    }
}
