//! MSCRED (Zhang et al., AAAI 2019), simplified.
//!
//! "A state-of-the-art method for multivariate time series outlier
//! detection that uses an autoencoder to reconstruct correlation matrices
//! instead of using the time series directly. Matrices have length 16 with
//! 5 steps in-between" (paper Section 4.1.2).
//!
//! **Substitution note**: the defining trait — scoring
//! *signature (correlation) matrices* of 16-step segments taken every 5
//! steps — is kept exactly; the ConvLSTM reconstruction stack of the
//! original is replaced by a feed-forward autoencoder over the matrices'
//! upper triangles. Segment-granular scoring is what produces MSCRED's
//! characteristic very-high-recall / very-low-precision rows in the
//! paper's Tables 3–4, and that granularity is retained: every timestamp
//! in a segment inherits the segment's reconstruction error.

use crate::util::gather_observations;
use cae_autograd::{ParamStore, Tape};
use cae_data::{Detector, Scaler, TimeSeries};
use cae_nn::{Activation, Adam, Linear, Optimizer};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// MSCRED hyperparameters.
#[derive(Clone, Debug)]
pub struct MscredConfig {
    /// Signature-matrix segment length (paper: 16).
    pub segment: usize,
    /// Steps between consecutive segments (paper: 5).
    pub stride: usize,
    /// Bottleneck width of the matrix autoencoder.
    pub bottleneck: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size (in segments).
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Cap on the number of channels used for signature matrices; series
    /// with more dimensions use the `cap` highest-variance channels
    /// (keeps the D×D matrices tractable for 127-dim WADI).
    pub channel_cap: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MscredConfig {
    fn default() -> Self {
        MscredConfig {
            segment: 16,
            stride: 5,
            bottleneck: 32,
            epochs: 25,
            batch_size: 32,
            learning_rate: 1e-3,
            channel_cap: 32,
            seed: 42,
        }
    }
}

/// The MSCRED baseline.
pub struct Mscred {
    cfg: MscredConfig,
    scaler: Option<Scaler>,
    /// Channels used for the signature matrices.
    channels: Vec<usize>,
    encoder: Option<Linear>,
    decoder: Option<Linear>,
    store: ParamStore,
}

impl std::fmt::Debug for Mscred {
    /// Config and signature channels only — the store holds the full
    /// encoder/decoder parameter set.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mscred")
            .field("cfg", &self.cfg)
            .field("channels", &self.channels)
            .field("fitted", &self.encoder.is_some())
            .finish_non_exhaustive()
    }
}

impl Mscred {
    /// MSCRED with the given configuration.
    pub fn new(cfg: MscredConfig) -> Self {
        Mscred {
            cfg,
            scaler: None,
            channels: Vec::new(),
            encoder: None,
            decoder: None,
            store: ParamStore::new(),
        }
    }

    /// MSCRED with the paper's segment configuration (16 / 5).
    pub fn with_defaults() -> Self {
        Self::new(MscredConfig::default())
    }

    /// Number of upper-triangle features of a `c × c` signature matrix.
    fn feature_len(&self) -> usize {
        let c = self.channels.len();
        c * (c + 1) / 2
    }

    /// The signature matrix (upper triangle) of the segment starting at
    /// `start`: pairwise inner products of the selected channels over the
    /// segment, scaled by segment length (the MSCRED construction).
    fn signature(&self, series: &TimeSeries, start: usize, out: &mut [f32]) {
        let seg = self.cfg.segment;
        let c = self.channels.len();
        let mut idx = 0;
        for a in 0..c {
            for b in a..c {
                let (da, db) = (self.channels[a], self.channels[b]);
                let mut dot = 0.0f32;
                for t in start..start + seg {
                    let obs = series.observation(t);
                    dot += obs[da] * obs[db];
                }
                out[idx] = dot / seg as f32;
                idx += 1;
            }
        }
    }

    fn segment_starts(&self, len: usize) -> Vec<usize> {
        if len < self.cfg.segment {
            return Vec::new();
        }
        (0..=len - self.cfg.segment)
            .step_by(self.cfg.stride)
            .collect()
    }

    /// The signatures of the segments starting at `starts`, one row each,
    /// as a series of `feature_len`-dimensional observations.
    fn signatures(&self, series: &TimeSeries, starts: &[usize]) -> TimeSeries {
        let f = self.feature_len();
        let mut features = vec![0.0f32; starts.len() * f];
        for (row, &s) in starts.iter().enumerate() {
            self.signature(series, s, &mut features[row * f..(row + 1) * f]);
        }
        TimeSeries::new(features, f)
    }

    /// Reconstruction error of each segment in `series`.
    fn segment_errors(&self, series: &TimeSeries, starts: &[usize]) -> Vec<f32> {
        let encoder = self.encoder.as_ref().expect("fitted");
        let decoder = self.decoder.as_ref().expect("fitted");
        let all: Vec<usize> = (0..starts.len()).collect();
        let batch = gather_observations(&self.signatures(series, starts), &all);
        let mut tape = Tape::new();
        let x = tape.constant(batch.clone());
        let h = encoder.forward(&mut tape, &self.store, x);
        let recon = decoder.forward(&mut tape, &self.store, h);
        tape.value(recon).sub(&batch).row_sq_norms()
    }
}

impl Detector for Mscred {
    fn name(&self) -> &str {
        "MSCRED"
    }

    fn fit(&mut self, train: &TimeSeries) {
        assert!(
            train.len() >= self.cfg.segment,
            "training series shorter than one signature segment"
        );
        self.scaler = Some(Scaler::fit(train));
        let scaled = self.scaler.as_ref().expect("just set").transform(train);

        // Select the channel subset (highest variance on the scaled train;
        // after z-scoring all dims have variance ≈1 unless constant, so
        // this keeps active channels and drops constant ones).
        let d = scaled.dim();
        let mut by_var: Vec<(f32, usize)> = (0..d)
            .map(|di| {
                let mean: f32 = (0..scaled.len())
                    .map(|t| scaled.observation(t)[di])
                    .sum::<f32>()
                    / scaled.len() as f32;
                let var: f32 = (0..scaled.len())
                    .map(|t| {
                        let v = scaled.observation(t)[di] - mean;
                        v * v
                    })
                    .sum::<f32>()
                    / scaled.len() as f32;
                (var, di)
            })
            .collect();
        by_var.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("variance not NaN"));
        self.channels = by_var
            .iter()
            .take(self.cfg.channel_cap)
            .map(|&(_, i)| i)
            .collect();
        self.channels.sort_unstable();

        // Build and train the matrix autoencoder.
        let f = self.feature_len();
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);
        self.store = ParamStore::new();
        let encoder = Linear::new(
            &mut self.store,
            "enc",
            f,
            self.cfg.bottleneck,
            Activation::Tanh,
            &mut rng,
        );
        let decoder = Linear::new(
            &mut self.store,
            "dec",
            self.cfg.bottleneck,
            f,
            Activation::Identity,
            &mut rng,
        );

        let features = self.signatures(&scaled, &self.segment_starts(scaled.len()));
        let mut opt = Adam::new(&self.store, self.cfg.learning_rate);
        let mut order: Vec<usize> = (0..features.len()).collect();
        for _ in 0..self.cfg.epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(self.cfg.batch_size) {
                let batch = gather_observations(&features, chunk);
                let mut tape = Tape::new();
                let x = tape.constant(batch.clone());
                let h = encoder.forward(&mut tape, &self.store, x);
                let recon = decoder.forward(&mut tape, &self.store, h);
                let loss = tape.mse_loss(recon, &batch);
                tape.backward(loss);
                tape.accumulate_param_grads(&mut self.store);
                opt.step(&mut self.store);
            }
        }
        self.encoder = Some(encoder);
        self.decoder = Some(decoder);
    }

    fn score(&self, test: &TimeSeries) -> Vec<f32> {
        assert!(self.encoder.is_some(), "score() before fit()");
        let scaled = self.scaler.as_ref().expect("fitted").transform(test);
        let starts = self.segment_starts(scaled.len());
        assert!(
            !starts.is_empty(),
            "test series shorter than one signature segment"
        );
        let seg_errors = self.segment_errors(&scaled, &starts);

        // Segment-granular scores: each timestamp takes the maximum error
        // of the segments covering it; trailing timestamps beyond the last
        // segment inherit its error.
        let mut scores = vec![0.0f32; scaled.len()];
        for (&start, &err) in starts.iter().zip(seg_errors.iter()) {
            for slot in &mut scores[start..(start + self.cfg.segment).min(scaled.len())] {
                *slot = slot.max(err);
            }
        }
        let last_covered = starts.last().expect("non-empty") + self.cfg.segment;
        let tail_err = *seg_errors.last().expect("non-empty");
        for slot in &mut scores[last_covered.min(scaled.len())..] {
            *slot = tail_err;
        }
        scores
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn correlated(len: usize, seed: u64) -> TimeSeries {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = TimeSeries::empty(3);
        for t in 0..len {
            let base = (t as f32 * 0.2).sin() + rng.gen_range(-0.05..0.05);
            s.push(&[base, 0.8 * base, -0.5 * base]);
        }
        s
    }

    #[test]
    fn correlation_break_flags_whole_segment() {
        let train = correlated(400, 1);
        let mut test = correlated(200, 2);
        // Invert the correlation of channel 1 over an interval.
        for t in 100..120 {
            let d = test.dim();
            test.data_mut()[t * d + 1] *= -1.0;
        }
        let mut m = Mscred::new(MscredConfig {
            epochs: 30,
            ..MscredConfig::default()
        });
        m.fit(&train);
        let scores = m.score(&test);
        let inside: f32 = scores[100..120].iter().sum::<f32>() / 20.0;
        let outside: f32 = scores[..80].iter().sum::<f32>() / 80.0;
        assert!(
            inside > 2.0 * outside,
            "inside {inside} vs outside {outside}"
        );
        // Segment granularity: neighbors of the interval are also elevated
        // (the low-precision signature of MSCRED).
        assert!(scores[95] > outside, "no bleed-over before the interval");
    }

    #[test]
    fn channel_cap_limits_matrix_size() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut s = TimeSeries::empty(10);
        let mut obs = [0.0f32; 10];
        for _ in 0..200 {
            for o in obs.iter_mut() {
                *o = rng.gen_range(-1.0..1.0);
            }
            s.push(&obs);
        }
        let mut m = Mscred::new(MscredConfig {
            channel_cap: 4,
            epochs: 2,
            ..MscredConfig::default()
        });
        m.fit(&s);
        assert_eq!(m.channels.len(), 4);
        assert_eq!(m.feature_len(), 10);
    }

    #[test]
    fn scores_cover_every_timestamp() {
        let train = correlated(300, 4);
        let test = correlated(143, 5); // deliberately not a stride multiple
        let mut m = Mscred::new(MscredConfig {
            epochs: 2,
            ..MscredConfig::default()
        });
        m.fit(&train);
        let scores = m.score(&test);
        assert_eq!(scores.len(), 143);
        assert!(scores.iter().all(|s| s.is_finite()));
    }
}
