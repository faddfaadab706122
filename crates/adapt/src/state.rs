//! Durable adaptation-tier state: export/restore for the controller.
//!
//! The fleet snapshot (`cae-serve::FleetSnapshot`) carries the
//! adaptation tier's state as an opaque section; this module defines
//! that section. [`AdaptationState`] captures everything the controller
//! needs to resume where it left off — the drift monitor's EWMA and
//! band, the full observation reservoir, the operational counters, the
//! cooldown clock — in the same wire discipline as every other durable
//! artifact (magic `b"CAEA"`, version, FNV-1a checksum, typed errors).
//!
//! Deliberately **not** captured:
//!
//! * an in-flight background re-fit — a crash loses it, and the next
//!   drifted observation after recovery simply relaunches one (the
//!   reservoir it would have trained on is in the state);
//! * the last-good ensemble — model parameters live in the ensemble
//!   checkpoint, which is the first thing recovery loads anyway;
//! * the last checkpoint error — diagnostic of a process that no longer
//!   exists.

use crate::{AdaptationConfig, AdaptationController, AdaptationStats};
use cae_core::persist::wire::{Reader, Writer};
use cae_core::{CaeEnsemble, PersistError};
use cae_data::{DriftMonitor, DriftMonitorState, ObservationReservoir, ReservoirState};
use std::sync::Arc;

/// First bytes of an encoded adaptation state.
pub const ADAPT_STATE_MAGIC: [u8; 4] = *b"CAEA";

/// The adaptation-state format version this build writes (and the
/// newest it reads).
pub const ADAPT_STATE_VERSION: u32 = 1;

/// Sanity bound on structural dimensions read from an encoded state.
const MAX_REASONABLE: usize = 1 << 20;

/// A point-in-time capture of an [`AdaptationController`]'s durable
/// state. Produced by [`AdaptationController::export_state`], consumed
/// by [`AdaptationController::restore`]; typically travels inside a
/// fleet snapshot via `FleetSnapshot::with_adaptation_state`.
#[derive(Clone, Debug, PartialEq)]
pub struct AdaptationState {
    /// Drift monitor: baseline band, smoothing factor, current EWMA.
    pub monitor: DriftMonitorState,
    /// Re-fit reservoir: the full ring of recent raw observations.
    pub reservoir: ReservoirState,
    /// Operational counters.
    pub stats: AdaptationStats,
    /// Observations seen over the controller's lifetime.
    pub observed: u64,
    /// `observed` at the moment the last re-fit started (cooldown base).
    pub last_refit_at: Option<u64>,
    /// Whether the drift statistic was outside the band at capture time
    /// (so a trip in progress is not double-counted after recovery).
    pub was_drifted: bool,
}

impl AdaptationState {
    /// Serializes the state (magic `b"CAEA"`, version 1, trailing
    /// FNV-1a checksum).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::framed(ADAPT_STATE_MAGIC, ADAPT_STATE_VERSION);
        w.f32(self.monitor.baseline_mean);
        w.f32(self.monitor.baseline_std);
        w.f32(self.monitor.alpha);
        w.f32(self.monitor.sigma_threshold);
        match self.monitor.ewma {
            Some(e) => {
                w.bool(true);
                w.f32(e);
            }
            None => w.bool(false),
        }
        w.u64(self.monitor.observed);
        w.usize(self.reservoir.dim);
        w.usize(self.reservoir.capacity);
        w.usize(self.reservoir.head);
        w.usize(self.reservoir.filled);
        w.f32_slice(&self.reservoir.ring);
        for count in self.stats.values() {
            w.u64(count);
        }
        w.u64(self.observed);
        match self.last_refit_at {
            Some(at) => {
                w.bool(true);
                w.u64(at);
            }
            None => w.bool(false),
        }
        w.bool(self.was_drifted);
        w.finish()
    }

    /// Parses encoded bytes back into a state. Every malformed input —
    /// truncation, flipped bytes, wrong magic, a future version, an
    /// inconsistent reservoir — surfaces as a typed [`PersistError`].
    pub fn decode(bytes: &[u8]) -> Result<Self, PersistError> {
        let (_version, mut c) = Reader::framed(bytes, ADAPT_STATE_MAGIC, ADAPT_STATE_VERSION)?;
        let monitor = DriftMonitorState {
            baseline_mean: c.f32("baseline mean")?,
            baseline_std: c.f32("baseline std")?,
            alpha: c.f32("ewma alpha")?,
            sigma_threshold: c.f32("sigma threshold")?,
            ewma: if c.bool("ewma present")? {
                Some(c.f32("ewma value")?)
            } else {
                None
            },
            observed: c.u64("monitor observed")?,
        };
        let dim = c.usize("reservoir dim")?;
        let capacity = c.usize("reservoir capacity")?;
        for (v, what) in [(dim, "reservoir dim"), (capacity, "reservoir capacity")] {
            if v == 0 || v > MAX_REASONABLE {
                return Err(PersistError::Corrupt(format!(
                    "{what} value {v} outside the plausible range [1, {MAX_REASONABLE}]"
                )));
            }
        }
        let head = c.usize("reservoir head")?;
        let filled = c.usize("reservoir filled")?;
        let ring = c.f32_vec(capacity * dim, "reservoir ring")?;
        let reservoir = ReservoirState {
            dim,
            capacity,
            ring,
            head,
            filled,
        };
        let stats = AdaptationStats {
            drift_trips: c.u64("drift trips")?,
            refits_started: c.u64("refits started")?,
            refits_completed: c.u64("refits completed")?,
            refits_failed: c.u64("refits failed")?,
            refit_retries: c.u64("refit retries")?,
            spawn_failures: c.u64("spawn failures")?,
            checkpoints_written: c.u64("checkpoints written")?,
            checkpoint_retries: c.u64("checkpoint retries")?,
            checkpoint_fallbacks: c.u64("checkpoint fallbacks")?,
            backoff_ms: c.u64("backoff ms")?,
        };
        let observed = c.u64("controller observed")?;
        let last_refit_at = if c.bool("last-refit present")? {
            Some(c.u64("last refit at")?)
        } else {
            None
        };
        let was_drifted = c.bool("was drifted")?;
        if c.remaining() != 0 {
            return Err(PersistError::Corrupt(format!(
                "{} trailing bytes after the adaptation state",
                c.remaining()
            )));
        }
        Ok(AdaptationState {
            monitor,
            reservoir,
            stats,
            observed,
            last_refit_at,
            was_drifted,
        })
    }
}

impl AdaptationController {
    /// Captures the controller's durable state for a snapshot.
    ///
    /// An in-flight background re-fit is *not* captured (see the
    /// [module docs](self)); call this from the same quiet moment as
    /// `FleetDetector::snapshot`, or accept that a re-fit racing the
    /// snapshot is simply relaunched after recovery.
    pub fn export_state(&self) -> AdaptationState {
        AdaptationState {
            monitor: self.monitor.state(),
            reservoir: self.reservoir.state(),
            stats: self.stats,
            observed: self.observed,
            last_refit_at: self.last_refit_at,
            was_drifted: self.was_drifted,
        }
    }

    /// Rebuilds a controller from exported state over a (typically
    /// freshly loaded) live ensemble. The restored controller resumes
    /// the original's drift statistic, reservoir contents, counters and
    /// cooldown clock bit-for-bit; `live` becomes its last-good
    /// ensemble.
    ///
    /// State inconsistencies — a reservoir whose dimensionality or
    /// capacity disagrees with `live` and `cfg`, an out-of-range ring
    /// index, a non-finite EWMA — are typed [`PersistError`]s, never
    /// panics: the state came from a file. Misconfiguration of `cfg`
    /// itself panics exactly like [`AdaptationController::new`].
    pub fn restore(
        live: &Arc<CaeEnsemble>,
        cfg: AdaptationConfig,
        state: &AdaptationState,
    ) -> Result<Self, PersistError> {
        crate::check_config(live, &cfg);
        let dim = live.model_config().dim;
        if state.reservoir.dim != dim {
            return Err(PersistError::Corrupt(format!(
                "snapshotted reservoir dim {} != ensemble dim {dim}",
                state.reservoir.dim
            )));
        }
        if state.reservoir.capacity != cfg.reservoir_capacity {
            return Err(PersistError::Corrupt(format!(
                "snapshotted reservoir capacity {} != configured capacity {}",
                state.reservoir.capacity, cfg.reservoir_capacity
            )));
        }
        let reservoir = ObservationReservoir::from_state(state.reservoir.clone())
            .map_err(PersistError::Corrupt)?;
        let monitor = DriftMonitor::from_state(state.monitor).map_err(PersistError::Corrupt)?;
        Ok(AdaptationController {
            cfg,
            reservoir,
            monitor,
            worker: None,
            stats: state.stats,
            observed: state.observed,
            last_refit_at: state.last_refit_at,
            was_drifted: state.was_drifted,
            last_checkpoint_error: None,
            last_good: Arc::clone(live),
            obs: crate::AdaptObs::new(&cae_obs::MetricsRegistry::disabled(), &state.stats),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cae_core::{CaeConfig, EnsembleConfig};
    use cae_data::{Detector, TimeSeries};

    fn fitted_ensemble() -> Arc<CaeEnsemble> {
        let series = TimeSeries::univariate((0..200).map(|t| (t as f32 * 0.3).sin()).collect());
        let mc = CaeConfig::new(1).embed_dim(8).window(8).layers(1);
        let ec = EnsembleConfig::new()
            .num_models(2)
            .epochs_per_model(2)
            .batch_size(16)
            .train_stride(2)
            .seed(23);
        let mut ens = CaeEnsemble::new(mc, ec);
        ens.fit(&series);
        Arc::new(ens)
    }

    fn cfg() -> AdaptationConfig {
        AdaptationConfig::new()
            .reservoir_capacity(64)
            .min_observations(16)
            .cooldown(10)
    }

    fn fed_controller(ens: &Arc<CaeEnsemble>) -> AdaptationController {
        let baseline: Vec<f32> = (0..40)
            .map(|t| 0.1 + (t as f32 * 0.05).sin() * 0.01)
            .collect();
        let mut ctl = AdaptationController::new(ens, &baseline, cfg());
        for t in 0..30 {
            let v = (t as f32 * 0.3).sin();
            ctl.observe(ens, &[v], 0.1 + v.abs() * 0.01);
        }
        ctl
    }

    #[test]
    fn state_roundtrip_is_bit_exact() {
        let ens = fitted_ensemble();
        let ctl = fed_controller(&ens);
        let state = ctl.export_state();
        let bytes = state.encode();
        let back = AdaptationState::decode(&bytes).unwrap();
        assert_eq!(back, state);
        assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn restored_controller_resumes_in_lockstep() {
        let ens = fitted_ensemble();
        let mut live = fed_controller(&ens);
        let state = live.export_state();
        let mut restored = AdaptationController::restore(&ens, cfg(), &state).unwrap();
        assert_eq!(restored.stats(), live.stats());
        assert_eq!(restored.monitor().state(), live.monitor().state());
        for t in 30..80 {
            let v = (t as f32 * 0.3).sin();
            let started_live = live.observe(&ens, &[v], 0.1 + v.abs() * 0.01);
            let started_restored = restored.observe(&ens, &[v], 0.1 + v.abs() * 0.01);
            assert_eq!(started_live, started_restored, "diverged at t={t}");
        }
        assert_eq!(restored.monitor().state(), live.monitor().state());
        assert_eq!(restored.reservoir().state(), live.reservoir().state(),);
    }

    #[test]
    fn decode_rejects_malformed_inputs_with_typed_errors() {
        let ens = fitted_ensemble();
        let bytes = fed_controller(&ens).export_state().encode();

        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert!(matches!(
            AdaptationState::decode(&wrong_magic),
            Err(PersistError::BadMagic)
        ));

        let mut future = bytes.clone();
        future[4] = 9;
        assert!(matches!(
            AdaptationState::decode(&future),
            Err(PersistError::UnsupportedVersion(9))
        ));

        for len in 0..bytes.len() {
            assert!(
                AdaptationState::decode(&bytes[..len]).is_err(),
                "prefix of {len} bytes decoded successfully"
            );
        }
    }

    #[test]
    fn restore_rejects_inconsistent_state() {
        let ens = fitted_ensemble();
        let mut state = fed_controller(&ens).export_state();
        state.reservoir.dim = 3;
        assert!(matches!(
            AdaptationController::restore(&ens, cfg(), &state),
            Err(PersistError::Corrupt(_))
        ));

        let mut state = fed_controller(&ens).export_state();
        state.reservoir.capacity = 128;
        assert!(matches!(
            AdaptationController::restore(&ens, cfg(), &state),
            Err(PersistError::Corrupt(_))
        ));

        let mut state = fed_controller(&ens).export_state();
        state.monitor.ewma = Some(f32::NAN);
        assert!(matches!(
            AdaptationController::restore(&ens, cfg(), &state),
            Err(PersistError::Corrupt(_))
        ));
    }
}
