//! Seeded input generation, one generator per workload.
//!
//! Every workload draws its data from the SMD-like generator
//! (`DatasetKind::Smd`, 38 dims, 4000 training and 3000 labelled test
//! observations). The seed also fixes everything the benchmark injects on
//! top: stream offsets, parity samples, fault bursts and drift episodes.
//! The program under test only ever sees the generated observations.

use cae_data::{Dataset, DatasetKind, Scale};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Window length of the paper-shaped model every workload serves.
pub const WINDOW: usize = 16;
/// Streams served by `serve_steady`.
pub const STEADY_STREAMS: usize = 64;
/// Streams served by `serve_drift`.
pub const DRIFT_STREAMS: usize = 16;
/// Open-loop tick rate of `serve_drift` (50 Hz sampling).
pub const DRIFT_TICK_MS: u64 = 20;
/// Clean ticks after the warm-up fill before the first drift episode.
const DRIFT_LEAD_TICKS: usize = 100;
/// Drift episodes (one drift switched on, then off) per run.
pub const DRIFT_EPISODES: usize = 3;
/// Share of `serve_drift` observations that are injected faults.
const FAULT_SHARE: f64 = 0.01;
/// Streams whose served scores are compared against the batch scorer.
pub const PARITY_STREAMS: usize = 4;
/// Batch-scorer chunks (of 64 windows) per parity segment.
pub const PARITY_CHUNKS: usize = 8;
/// Observations in one `offline` latency probe: exactly one 64-window
/// inference batch.
pub const OFFLINE_PROBE_LEN: usize = 64 + WINDOW - 1;
/// Latency probes per `offline` run: fifteen beyond p99, so the tail is
/// not read off a handful of probes.
pub const OFFLINE_PROBES: usize = 1500;
/// Observations in a re-fit reservoir (`serve_drift`) and in the re-fit
/// slices the other workloads time.
pub const REFIT_OBS: usize = 240;

/// The SMD-like dataset every workload uses.
pub fn smd(seed: u64) -> Dataset {
    DatasetKind::Smd.generate(Scale::Quick, seed)
}

/// Index into a series of `len` observations that walks forward and
/// reflects at both ends, so a stream can run longer than the series
/// without a discontinuity.
pub fn reflect(t: usize, len: usize) -> usize {
    if len < 2 {
        return 0;
    }
    let period = 2 * (len - 1);
    let r = t % period;
    if r < len {
        r
    } else {
        period - r
    }
}

/// FNV-1a over a stream of 64-bit words; used to fingerprint inputs.
#[derive(Debug)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn floats(&mut self, v: &[f32]) {
        for x in v {
            self.word(u64::from(x.to_bits()));
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

fn dataset_fingerprint(f: &mut Fingerprint, d: &Dataset) {
    f.floats(d.train.data());
    f.floats(d.test.data());
    for &l in &d.test_labels {
        f.word(u64::from(l));
    }
}

/// `serve_steady`: 64 streams replaying the labelled test split from
/// seeded offsets, plus the streams and segment the parity check uses.
#[derive(Debug)]
pub struct SteadyInputs {
    pub data: Dataset,
    pub offsets: Vec<usize>,
    pub parity_streams: Vec<usize>,
    /// First stream time of every parity segment.
    pub parity_start: usize,
}

impl SteadyInputs {
    pub fn generate(seed: u64) -> Self {
        let data = smd(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5747_4541_4459);
        let n = data.test.len();
        let offsets = (0..STEADY_STREAMS).map(|_| rng.gen_range(0..n)).collect();
        let mut parity_streams = Vec::with_capacity(PARITY_STREAMS);
        while parity_streams.len() < PARITY_STREAMS {
            let k = rng.gen_range(0..STEADY_STREAMS);
            if !parity_streams.contains(&k) {
                parity_streams.push(k);
            }
        }
        let parity_start = rng.gen_range(0..64);
        SteadyInputs {
            data,
            offsets,
            parity_streams,
            parity_start,
        }
    }

    fn index(&self, stream: usize, t: usize) -> usize {
        reflect(self.offsets[stream] + t, self.data.test.len())
    }

    /// Observation of `stream` at stream time `t`.
    pub fn observation(&self, stream: usize, t: usize) -> &[f32] {
        self.data.test.observation(self.index(stream, t))
    }

    /// Stream times a parity segment covers.
    pub fn parity_len() -> usize {
        WINDOW - 1 + 64 * PARITY_CHUNKS
    }

    pub fn fingerprint(&self) -> u64 {
        let mut f = Fingerprint::default();
        dataset_fingerprint(&mut f, &self.data);
        for &o in &self.offsets {
            f.word(o as u64);
        }
        for &k in &self.parity_streams {
            f.word(k as u64);
        }
        f.word(self.parity_start as u64);
        f.finish()
    }
}

/// One drift episode: from `start` (inclusive) to `end` (exclusive) the
/// listed dimensions are scaled about their training mean and shifted.
#[derive(Clone, Debug, PartialEq)]
pub struct DriftEpisode {
    pub start: usize,
    pub end: usize,
    pub dims: Vec<usize>,
    pub scale: f32,
    /// Shift in training standard deviations (signed).
    pub shift: f32,
}

/// `serve_drift`: 16 streams over a fixed number of ticks, with drift
/// episodes and injected faults already applied.
#[derive(Debug)]
pub struct DriftInputs {
    pub data: Dataset,
    pub ticks: usize,
    pub dim: usize,
    /// `ticks × streams × dim` observations as pushed.
    obs: Vec<f32>,
    /// `ticks × streams`: whether the fleet must discard the observation
    /// as faulty (non-finite, or flat-lined past the detection threshold).
    faulty: Vec<bool>,
    pub episodes: Vec<DriftEpisode>,
    /// The stream whose scores feed the adaptation controller.
    pub canary: usize,
}

impl DriftInputs {
    /// Inputs for `measured_ticks` open-loop ticks after a `WINDOW`-tick
    /// warm-up fill. `flatline_after` is the fleet's flat-line threshold,
    /// which decides which frozen readings count as faulty.
    pub fn generate(seed: u64, measured_ticks: usize, flatline_after: usize) -> Self {
        let data = smd(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0044_5249_4654);
        let dim = data.test.dim();
        let ticks = WINDOW + measured_ticks;
        let n = data.test.len();

        // Training statistics anchor the drift's scale and shift.
        let train = &data.train;
        let mut mean = vec![0.0f64; dim];
        let mut sq = vec![0.0f64; dim];
        for t in 0..train.len() {
            for (d, &v) in train.observation(t).iter().enumerate() {
                mean[d] += f64::from(v);
                sq[d] += f64::from(v) * f64::from(v);
            }
        }
        let len = train.len() as f64;
        let std: Vec<f64> = (0..dim)
            .map(|d| {
                mean[d] /= len;
                (sq[d] / len - mean[d] * mean[d]).max(1e-12).sqrt()
            })
            .collect();

        // Episodes: alternate on/off phases of equal length after a clean
        // lead. Each episode drifts its own half of the dimensions, so a
        // model adapted to one episode is still off on the next.
        let phase = (measured_ticks.saturating_sub(DRIFT_LEAD_TICKS)) / (2 * DRIFT_EPISODES);
        let mut episodes = Vec::with_capacity(DRIFT_EPISODES);
        for e in 0..DRIFT_EPISODES {
            let start = WINDOW + DRIFT_LEAD_TICKS + 2 * e * phase;
            let mut dims: Vec<usize> = (0..dim).filter(|_| rng.gen_bool(0.5)).collect();
            if dims.is_empty() {
                dims.push(rng.gen_range(0..dim));
            }
            let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
            episodes.push(DriftEpisode {
                start,
                end: start + phase,
                dims,
                scale: rng.gen_range(1.6..2.0),
                shift: sign * rng.gen_range(2.0..3.0),
            });
        }

        let offsets: Vec<usize> = (0..DRIFT_STREAMS).map(|_| rng.gen_range(0..n)).collect();
        let canary = rng.gen_range(0..DRIFT_STREAMS);
        let mut obs = Vec::with_capacity(ticks * DRIFT_STREAMS * dim);
        for t in 0..ticks {
            let episode = episodes.iter().find(|e| (e.start..e.end).contains(&t));
            for &off in &offsets {
                let row = data.test.observation(reflect(off + t, n));
                let start = obs.len();
                obs.extend_from_slice(row);
                if let Some(e) = episode {
                    for &d in &e.dims {
                        let v = &mut obs[start + d];
                        let m = mean[d] as f32;
                        *v = m + e.scale * (*v - m) + e.shift * std[d] as f32;
                    }
                }
            }
        }

        // Faults: NaN bursts and frozen (flat-lined) sensors on every
        // stream but the canary, never overlapping and never inside the
        // warm-up fill, about FAULT_SHARE of all observations.
        let mut faulty = vec![false; ticks * DRIFT_STREAMS];
        let mut busy = vec![false; ticks * DRIFT_STREAMS];
        let budget = (FAULT_SHARE * (measured_ticks * DRIFT_STREAMS) as f64) as usize;
        let mut injected = 0usize;
        let mut attempts = 0;
        while injected < budget && attempts < 10_000 {
            attempts += 1;
            let stream = rng.gen_range(0..DRIFT_STREAMS);
            if stream == canary {
                continue;
            }
            let nan = rng.gen_bool(0.7);
            // A flat-line repeats the previous reading `flatline_after − 1`
            // times undetected, then `extra` more times as faults.
            let (span, faults) = if nan {
                let n = rng.gen_range(3..=8);
                (n, n)
            } else {
                let extra = rng.gen_range(2..=6);
                (flatline_after - 1 + extra, extra)
            };
            // One clean tick before (the frozen value) and after.
            let lo = WINDOW + 1;
            let hi = ticks.saturating_sub(span + 2);
            if hi <= lo {
                break;
            }
            let t0 = rng.gen_range(lo..hi);
            if (t0 - 1..t0 + span + 1).any(|t| busy[t * DRIFT_STREAMS + stream]) {
                continue;
            }
            for t in t0 - 1..t0 + span + 1 {
                busy[t * DRIFT_STREAMS + stream] = true;
            }
            let at = |t: usize| (t * DRIFT_STREAMS + stream) * dim;
            if nan {
                for t in t0..t0 + span {
                    let base = at(t);
                    for d in 0..dim {
                        if d == 0 || rng.gen_bool(0.3) {
                            obs[base + d] = f32::NAN;
                        }
                    }
                    faulty[t * DRIFT_STREAMS + stream] = true;
                }
            } else {
                let frozen: Vec<f32> = obs[at(t0 - 1)..at(t0 - 1) + dim].to_vec();
                for (j, t) in (t0..t0 + span).enumerate() {
                    obs[at(t)..at(t) + dim].copy_from_slice(&frozen);
                    faulty[t * DRIFT_STREAMS + stream] = j + 1 >= flatline_after;
                }
            }
            injected += faults;
        }

        DriftInputs {
            data,
            ticks,
            dim,
            obs,
            faulty,
            episodes,
            canary,
        }
    }

    pub fn observation(&self, stream: usize, t: usize) -> &[f32] {
        let at = (t * DRIFT_STREAMS + stream) * self.dim;
        &self.obs[at..at + self.dim]
    }

    pub fn is_faulty(&self, stream: usize, t: usize) -> bool {
        self.faulty[t * DRIFT_STREAMS + stream]
    }

    pub fn faulty_total(&self) -> usize {
        self.faulty.iter().filter(|&&f| f).count()
    }

    /// The episode whose drift is on at tick `t`, if any.
    #[cfg(test)]
    pub fn episode_at(&self, t: usize) -> Option<usize> {
        self.episodes
            .iter()
            .position(|e| (e.start..e.end).contains(&t))
    }

    pub fn fingerprint(&self) -> u64 {
        let mut f = Fingerprint::default();
        dataset_fingerprint(&mut f, &self.data);
        f.floats(&self.obs);
        for &x in &self.faulty {
            f.word(u64::from(x));
        }
        for e in &self.episodes {
            f.word(e.start as u64);
            f.word(e.end as u64);
            f.word(u64::from(e.scale.to_bits()));
            f.word(u64::from(e.shift.to_bits()));
            for &d in &e.dims {
                f.word(d as u64);
            }
        }
        f.word(self.canary as u64);
        f.finish()
    }
}

/// `offline`: the dataset plus the seeded probe and re-fit slices.
#[derive(Debug)]
pub struct OfflineInputs {
    pub data: Dataset,
    /// Start of every latency probe in the test split.
    pub probe_starts: Vec<usize>,
    /// Start of the re-fit slice in the test split.
    pub refit_start: usize,
}

impl OfflineInputs {
    pub fn generate(seed: u64) -> Self {
        let data = smd(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x004f_4646_4c49_4e45);
        let n = data.test.len();
        let probe_starts = (0..OFFLINE_PROBES)
            .map(|_| rng.gen_range(0..=n - OFFLINE_PROBE_LEN))
            .collect();
        let refit_start = rng.gen_range(0..=n - REFIT_OBS);
        OfflineInputs {
            data,
            probe_starts,
            refit_start,
        }
    }

    pub fn fingerprint(&self) -> u64 {
        let mut f = Fingerprint::default();
        dataset_fingerprint(&mut f, &self.data);
        for &s in &self.probe_starts {
            f.word(s as u64);
        }
        f.word(self.refit_start as u64);
        f.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reflect_walks_back_and_forth() {
        let seq: Vec<usize> = (0..9).map(|t| reflect(t, 4)).collect();
        assert_eq!(seq, vec![0, 1, 2, 3, 2, 1, 0, 1, 2]);
        assert_eq!(reflect(5, 1), 0);
    }

    #[test]
    fn steady_inputs_repeat_per_seed_and_differ_across_seeds() {
        let a = SteadyInputs::generate(11);
        let b = SteadyInputs::generate(11);
        let c = SteadyInputs::generate(12);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert_eq!(a.offsets.len(), STEADY_STREAMS);
        assert_eq!(a.parity_streams.len(), PARITY_STREAMS);
        assert_eq!(a.observation(3, 100), b.observation(3, 100));
    }

    #[test]
    fn drift_inputs_repeat_per_seed_and_differ_across_seeds() {
        let a = DriftInputs::generate(5, 600, 32);
        let b = DriftInputs::generate(5, 600, 32);
        let c = DriftInputs::generate(6, 600, 32);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn drift_faults_are_about_one_percent_and_match_their_kind() {
        let inputs = DriftInputs::generate(9, 1200, 32);
        let measured = 1200 * DRIFT_STREAMS;
        let faulty = inputs.faulty_total();
        assert!(
            faulty >= measured / 100 && faulty <= measured / 100 + 8,
            "{faulty} faulty of {measured}"
        );
        for t in 0..inputs.ticks {
            for k in 0..DRIFT_STREAMS {
                let obs = inputs.observation(k, t);
                let nan = obs.iter().any(|v| !v.is_finite());
                if nan {
                    assert!(inputs.is_faulty(k, t), "NaN not marked at ({k}, {t})");
                }
                if t < WINDOW || k == inputs.canary {
                    assert!(!inputs.is_faulty(k, t), "fault in fill or canary");
                }
                if inputs.is_faulty(k, t) && !nan {
                    // A flagged flat-line reading repeats the one before.
                    assert_eq!(obs, inputs.observation(k, t - 1));
                }
            }
        }
    }

    #[test]
    fn drift_episodes_alternate_inside_the_run() {
        let inputs = DriftInputs::generate(3, 1250, 32);
        assert_eq!(inputs.episodes.len(), DRIFT_EPISODES);
        let mut prev_end = WINDOW;
        for e in &inputs.episodes {
            assert!(
                e.start > prev_end,
                "episodes must be separated by a clean phase"
            );
            assert!(e.end <= inputs.ticks && e.end > e.start);
            prev_end = e.end;
        }
        assert_eq!(inputs.episode_at(inputs.episodes[0].start), Some(0));
        assert_eq!(inputs.episode_at(WINDOW), None);
    }

    #[test]
    fn offline_inputs_repeat_per_seed_and_differ_across_seeds() {
        let a = OfflineInputs::generate(21);
        let b = OfflineInputs::generate(21);
        let c = OfflineInputs::generate(22);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert!(a
            .probe_starts
            .iter()
            .all(|&s| s + OFFLINE_PROBE_LEN <= a.data.test.len()));
    }
}
