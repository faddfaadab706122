//! Online adaptation: drift-aware warm-start re-fit with hot ensemble
//! swap.
//!
//! The paper splits the detector's life into an offline training phase
//! and an online scoring phase; a deployed ensemble therefore decays
//! silently once the stream's regime drifts. This crate closes the loop
//! for long-lived fleets:
//!
//! 1. **Watch** — every scored observation feeds an
//!    [`ObservationReservoir`] (bounded ring of recent raw data) and a
//!    [`DriftMonitor`] (EWMA of live scores vs. a band calibrated on the
//!    trained model).
//! 2. **Re-fit** — when the EWMA leaves the band, the controller
//!    snapshots the live ensemble (`Arc` clone, no parameter copies) and
//!    launches [`CaeEnsemble::refit_warm`] on a **dedicated background
//!    thread**: serving ticks keep running while the re-fit trains. The
//!    re-fit warm-starts from the live parameters (the paper's transfer
//!    trick across time) with the diversity term anchored to the live
//!    ensemble's output, so it converges in a fraction of the epochs a
//!    cold re-train needs.
//! 3. **Publish** — the finished ensemble is checkpointed atomically
//!    (format v1, temp-file + rename) and handed back through
//!    [`AdaptationController::poll`]; the caller installs it with
//!    [`FleetDetector::swap_ensemble`](../cae_serve/struct.FleetDetector.html#method.swap_ensemble)
//!    (crate `cae-serve`) — an O(1), generation-tagged pointer swap that
//!    never costs the fleet a tick.
//!
//! The background thread is a plain `std::thread`, deliberately **not** a
//! task on the `cae_tensor::par` worker pool: pool jobs are serialized,
//! so training inside one would stall every serving kernel for the whole
//! re-fit. As a separate thread the re-fit submits its kernels to the
//! same pool and interleaves with serving at kernel granularity instead.
//!
//! ```no_run
//! use cae_adapt::{AdaptationConfig, AdaptationController};
//! use cae_core::CaeEnsemble;
//! use cae_data::Detector;
//! use cae_serve::FleetDetector;
//!
//! # fn observation_of(_: cae_serve::StreamId) -> &'static [f32] { &[0.0] }
//! let ensemble = CaeEnsemble::load("ensemble.caee").expect("checkpoint");
//! # let training_tail = cae_data::TimeSeries::univariate(vec![0.0; 32]);
//! let baseline = ensemble.score(&training_tail);
//! let mut fleet = FleetDetector::new(ensemble);
//! // One *canary* stream feeds the controller: the reservoir needs
//! // contiguous single-stream history — interleaving every stream's
//! // observations would make re-fit windows straddle unrelated signals
//! // (see `ObservationReservoir`). Use one controller per regime.
//! let canary = fleet.add_stream();
//! let mut adapt = AdaptationController::new(
//!     fleet.ensemble(),
//!     &baseline,
//!     AdaptationConfig::new().checkpoint_path("ensemble.caee"),
//! );
//!
//! let mut scores = Vec::new();
//! loop {
//!     // … push observations …
//!     fleet.tick(&mut scores);
//!     if let Some(&(_, score)) = scores.iter().find(|(id, _)| *id == canary) {
//!         adapt.observe(fleet.ensemble(), observation_of(canary), score);
//!     }
//!     if let Some(adapted) = adapt.poll() {
//!         fleet.swap_ensemble(adapted); // next tick scores with the new model
//!     }
//! }
//! ```

// The adaptation tier must not panic: clippy's restriction lints ban
// the panicking shortcuts here (test code is exempt through
// `clippy.toml`).
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::unwrap_in_result
)]

use cae_chaos as chaos;
use cae_core::{CaeEnsemble, PersistError, RefitOptions};
use cae_data::{Detector, DriftMonitor, ObservationReservoir, TimeSeries};
use cae_obs::{CounterCell, Gauge, HealthReport, Histogram, MetricsRegistry, ObsClock};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

pub mod state;
pub use state::AdaptationState;

/// Configuration of an [`AdaptationController`].
#[derive(Clone, Debug)]
pub struct AdaptationConfig {
    /// Observations retained in the re-fit reservoir (per fleet).
    pub reservoir_capacity: usize,
    /// Minimum buffered observations before a re-fit may start. Must
    /// exceed the model window by enough to form a useful training set;
    /// [`AdaptationController::new`] enforces `> window`.
    pub min_observations: usize,
    /// EWMA smoothing factor of the drift statistic (see
    /// [`DriftMonitor`]).
    pub ewma_alpha: f32,
    /// Drift band half-width in baseline standard deviations.
    pub band_sigma: f32,
    /// Observations that must pass after a re-fit starts before the next
    /// one may trigger — keeps a persistent band violation from queueing
    /// re-fit after re-fit while the first swap is still propagating.
    pub cooldown: u64,
    /// Re-fit options; `warm_start` defaults to on — that is the point.
    pub refit: RefitOptions,
    /// Where the adapted ensemble is checkpointed (format v1, atomic
    /// temp-file + rename) before being published. `None` publishes
    /// in-memory only.
    pub checkpoint_path: Option<PathBuf>,
    /// Additional attempts when a re-fit fails or its worker panics,
    /// before the re-fit is abandoned (the live ensemble keeps serving).
    pub refit_retries: u32,
    /// Additional attempts when a checkpoint write fails, before the
    /// publish falls back to in-memory only.
    pub checkpoint_retries: u32,
    /// First checkpoint-retry backoff; each further retry doubles it up
    /// to [`AdaptationConfig::backoff_cap_ms`].
    pub backoff_base_ms: u64,
    /// Upper bound on a single checkpoint-retry backoff.
    pub backoff_cap_ms: u64,
}

impl Default for AdaptationConfig {
    fn default() -> Self {
        Self::new()
    }
}

impl AdaptationConfig {
    /// Defaults: 512-observation reservoir, re-fit after ≥ 256 buffered,
    /// EWMA α 0.05 with a 4σ band, 512-observation cooldown, 4 warm
    /// epochs, no checkpoint; 2 re-fit retries and 3 checkpoint retries
    /// with 10 ms → 1 s capped exponential backoff.
    pub fn new() -> Self {
        AdaptationConfig {
            reservoir_capacity: 512,
            min_observations: 256,
            ewma_alpha: 0.05,
            band_sigma: 4.0,
            cooldown: 512,
            refit: RefitOptions::warm(4, 0x5eed),
            checkpoint_path: None,
            refit_retries: 2,
            checkpoint_retries: 3,
            backoff_base_ms: 10,
            backoff_cap_ms: 1000,
        }
    }

    /// Sets the reservoir capacity (observations).
    pub fn reservoir_capacity(mut self, n: usize) -> Self {
        assert!(n >= 1, "reservoir capacity must be at least 1");
        self.reservoir_capacity = n;
        self
    }

    /// Sets the minimum buffered observations before a re-fit may start.
    pub fn min_observations(mut self, n: usize) -> Self {
        self.min_observations = n;
        self
    }

    /// Sets the EWMA smoothing factor.
    pub fn ewma_alpha(mut self, alpha: f32) -> Self {
        self.ewma_alpha = alpha;
        self
    }

    /// Sets the drift band half-width (baseline standard deviations).
    pub fn band_sigma(mut self, sigma: f32) -> Self {
        self.band_sigma = sigma;
        self
    }

    /// Sets the post-trigger cooldown (observations).
    pub fn cooldown(mut self, observations: u64) -> Self {
        self.cooldown = observations;
        self
    }

    /// Sets the re-fit options.
    pub fn refit(mut self, refit: RefitOptions) -> Self {
        self.refit = refit;
        self
    }

    /// Sets the checkpoint destination for adapted ensembles.
    pub fn checkpoint_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint_path = Some(path.into());
        self
    }

    /// Sets the re-fit retry budget.
    pub fn refit_retries(mut self, n: u32) -> Self {
        self.refit_retries = n;
        self
    }

    /// Sets the checkpoint-write retry budget.
    pub fn checkpoint_retries(mut self, n: u32) -> Self {
        self.checkpoint_retries = n;
        self
    }

    /// Sets the checkpoint-retry backoff range (first delay, cap).
    pub fn backoff_ms(mut self, base: u64, cap: u64) -> Self {
        self.backoff_base_ms = base;
        self.backoff_cap_ms = cap;
        self
    }
}

/// Why (and after how much effort) the last checkpoint write gave up.
///
/// Retained whole — typed [`PersistError`] plus the retry/backoff
/// spent — so operators can distinguish a full disk from a corrupt
/// directory entry without parsing strings.
#[derive(Debug)]
pub struct CheckpointFailure {
    /// The final attempt's error.
    pub error: PersistError,
    /// Write attempts retried before giving up.
    pub retries: u32,
    /// Total scheduled backoff across those retries, in milliseconds.
    pub backoff_ms: u64,
}

impl std::fmt::Display for CheckpointFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "checkpoint write failed after {} retries ({} ms backoff): {}",
            self.retries, self.backoff_ms, self.error
        )
    }
}

impl std::error::Error for CheckpointFailure {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// Operational counters of one [`AdaptationController`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdaptationStats {
    /// Band violations: transitions of the drift statistic from inside to
    /// outside the baseline band (not one per drifted observation).
    pub drift_trips: u64,
    /// Background re-fits launched.
    pub refits_started: u64,
    /// Re-fits that finished and were published.
    pub refits_completed: u64,
    /// Re-fits abandoned: every attempt failed or panicked, or the
    /// adapted model diverged outright.
    pub refits_failed: u64,
    /// Re-fit attempts retried after a failure or panic (a re-fit that
    /// succeeds on its second attempt counts one retry and no failure).
    pub refit_retries: u64,
    /// Re-fit launches lost to worker-thread spawn failure.
    pub spawn_failures: u64,
    /// Checkpoints written for published ensembles.
    pub checkpoints_written: u64,
    /// Checkpoint writes retried after an I/O failure.
    pub checkpoint_retries: u64,
    /// Publishes that proceeded in-memory-only after every checkpoint
    /// write attempt failed.
    pub checkpoint_fallbacks: u64,
    /// Total scheduled checkpoint-retry backoff, in milliseconds.
    pub backoff_ms: u64,
}

impl AdaptationStats {
    /// Registry names, in [`AdaptationStats::values`] order.
    const NAMES: [&'static str; 10] = [
        "adapt_drift_trips_total",
        "adapt_refits_started_total",
        "adapt_refits_completed_total",
        "adapt_refits_failed_total",
        "adapt_refit_retries_total",
        "adapt_spawn_failures_total",
        "adapt_checkpoints_written_total",
        "adapt_checkpoint_retries_total",
        "adapt_checkpoint_fallbacks_total",
        "adapt_backoff_ms_total",
    ];

    fn values(&self) -> [u64; 10] {
        [
            self.drift_trips,
            self.refits_started,
            self.refits_completed,
            self.refits_failed,
            self.refit_retries,
            self.spawn_failures,
            self.checkpoints_written,
            self.checkpoint_retries,
            self.checkpoint_fallbacks,
            self.backoff_ms,
        ]
    }
}

/// What the background worker hands back.
struct RefitReport {
    /// The adapted ensemble and its finite scores on the reservoir series
    /// (for re-baselining the monitor) — or why the re-fit failed: every
    /// attempt failed, or the adapted model diverged.
    outcome: Result<(CaeEnsemble, Vec<f32>), String>,
    /// Attempts retried before the outcome was settled.
    refit_retries: u64,
    /// What [`write_checkpoint`] returned (`None` when no path is
    /// configured or the re-fit failed).
    checkpoint: Option<(Result<(), CheckpointFailure>, u64, u64)>,
}

/// One supervised re-fit attempt: the re-fit and its scoring of the
/// reservoir series. Panics (the worker's own, a NaN score reaching the
/// median, or one injected through the `adapt.refit` failpoint) are
/// caught and converted into a retryable error.
fn attempt_refit(
    snapshot: &Arc<CaeEnsemble>,
    recent: &TimeSeries,
    opts: &RefitOptions,
) -> Result<(CaeEnsemble, Vec<f32>), String> {
    let caught = catch_unwind(AssertUnwindSafe(|| {
        if chaos::sites::ADAPT_REFIT.fire().is_some() {
            return Err("chaos: injected re-fit failure".to_string());
        }
        let adapted = snapshot.refit(recent, opts);
        let scores = adapted.score(recent);
        Ok((adapted, scores))
    }));
    match caught {
        Ok(outcome) => outcome,
        Err(_) => Err("re-fit worker panicked".to_string()),
    }
}

/// Keeps the finite scores of a re-fit's reservoir scoring. An adapted
/// model with *no* finite score on its own training reservoir has
/// diverged outright — publishing it would replace a working model with
/// one that emits NaN or ∞ for every stream, and since the monitor
/// ignores non-finite scores it could never accumulate evidence against
/// it. That is a failed re-fit, and it is not retried: the re-fit is
/// deterministic.
fn finite_baseline(scores: Vec<f32>) -> Result<Vec<f32>, String> {
    let finite: Vec<f32> = scores.into_iter().filter(|s| s.is_finite()).collect();
    if finite.is_empty() {
        return Err("re-fit diverged: no finite score".to_string());
    }
    Ok(finite)
}

/// Retrying checkpoint write with capped exponential backoff. Returns
/// the result plus (retries, scheduled backoff ms).
fn write_checkpoint(
    adapted: &CaeEnsemble,
    path: &std::path::Path,
    cfg: &AdaptationConfig,
) -> (Result<(), CheckpointFailure>, u64, u64) {
    let (mut retries, mut backoff_total) = (0u32, 0u64);
    let mut delay = cfg.backoff_base_ms;
    loop {
        let error = match adapted.save(path) {
            Ok(()) => return (Ok(()), retries.into(), backoff_total),
            Err(error) => error,
        };
        if retries == cfg.checkpoint_retries {
            let failure = CheckpointFailure {
                error,
                retries,
                backoff_ms: backoff_total,
            };
            return (Err(failure), retries.into(), backoff_total);
        }
        retries += 1;
        backoff_total += delay;
        std::thread::sleep(Duration::from_millis(delay));
        delay = (delay * 2).min(cfg.backoff_cap_ms);
    }
}

/// Panics unless `live` is fitted and `cfg`'s reservoir can hold more
/// than one of its windows — the contract of [`AdaptationController::new`]
/// and [`AdaptationController::restore`].
fn check_config(live: &CaeEnsemble, cfg: &AdaptationConfig) {
    assert!(
        live.num_members() > 0,
        "AdaptationController requires a fitted ensemble"
    );
    let window = live.model_config().window;
    assert!(
        cfg.min_observations > window,
        "min_observations {} must exceed the model window {window}",
        cfg.min_observations
    );
    assert!(
        cfg.reservoir_capacity >= cfg.min_observations,
        "reservoir capacity {} below min_observations {}",
        cfg.reservoir_capacity,
        cfg.min_observations
    );
}

/// Telemetry handles of the adaptation tier. The histogram and gauge are
/// no-ops (one relaxed load) against a disabled registry; the counters
/// are cells the registry links, written from [`AdaptationStats`] by
/// [`AdaptationController::count`] only. See
/// [`AdaptationController::with_observability`].
#[derive(Clone, Debug)]
struct AdaptObs {
    clock: ObsClock,
    /// Wall-clock duration of one supervised re-fit launch: every
    /// attempt, reservoir re-scoring and the checkpoint write — recorded
    /// on the worker thread, never the serving thread.
    refit_duration_ns: Histogram,
    /// Current drift statistic in baseline standard deviations:
    /// `(ewma - baseline_mean) / baseline_std`.
    drift_z: Gauge,
    /// The `adapt_*_total` cells, in [`AdaptationStats::values`] order.
    counters: [CounterCell; 10],
}

impl AdaptObs {
    /// Opens the handles in `registry` and links counter cells holding
    /// `stats` there.
    fn new(registry: &MetricsRegistry, stats: &AdaptationStats) -> Self {
        let counters: [CounterCell; 10] = Default::default();
        for ((name, cell), v) in AdaptationStats::NAMES
            .into_iter()
            .zip(&counters)
            .zip(stats.values())
        {
            cell.set(v);
            registry.link_counter(name, cell.clone());
        }
        AdaptObs {
            clock: ObsClock::monotonic(),
            refit_duration_ns: registry.histogram("adapt_refit_duration_ns"),
            drift_z: registry.gauge("adapt_drift_z"),
            counters,
        }
    }
}

/// Watches a served ensemble's outlier scores for drift and maintains a
/// warm-start re-fit pipeline: reservoir → drift trip → background
/// re-fit → atomic checkpoint → published replacement.
///
/// The controller never touches the fleet; the caller owns the swap (see
/// the crate example). All methods are non-blocking except
/// [`AdaptationController::wait`], which joins a running re-fit.
pub struct AdaptationController {
    cfg: AdaptationConfig,
    reservoir: ObservationReservoir,
    monitor: DriftMonitor,
    worker: Option<JoinHandle<RefitReport>>,
    stats: AdaptationStats,
    /// Observations seen over the controller's lifetime.
    observed: u64,
    /// `observed` at the moment the last re-fit started (cooldown base).
    last_refit_at: Option<u64>,
    /// Previous drift state, for counting trips on the rising edge.
    was_drifted: bool,
    /// Why the last checkpoint write failed, if it did (the publish still
    /// proceeds in-memory — a failed disk write must not block a swap).
    last_checkpoint_error: Option<CheckpointFailure>,
    /// The most recent known-good ensemble: the construction-time live
    /// model until a re-fit publishes, then the latest published one.
    last_good: Arc<CaeEnsemble>,
    /// Telemetry handles; no-ops unless a registry was attached.
    obs: AdaptObs,
}

impl std::fmt::Debug for AdaptationController {
    /// Operational state only — the reservoir holds raw observations.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdaptationController")
            .field("cfg", &self.cfg)
            .field("observed", &self.observed)
            .field("refit_running", &self.worker.is_some())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl AdaptationController {
    /// A controller for a fleet served by `live`, with the drift band
    /// calibrated from `baseline_scores` — the live ensemble's scores on
    /// in-distribution data (typically the tail of its training series,
    /// or the first scored stretch of healthy streaming).
    pub fn new(live: &Arc<CaeEnsemble>, baseline_scores: &[f32], cfg: AdaptationConfig) -> Self {
        Self::with_observability(live, baseline_scores, cfg, &MetricsRegistry::disabled())
    }

    /// [`AdaptationController::new`] with telemetry: drift gauge, re-fit
    /// duration histogram and retry/fallback counters are published into
    /// `registry` under `adapt_*` names. Against a disabled registry
    /// every instrumentation site costs one relaxed load.
    pub fn with_observability(
        live: &Arc<CaeEnsemble>,
        baseline_scores: &[f32],
        cfg: AdaptationConfig,
        registry: &MetricsRegistry,
    ) -> Self {
        check_config(live, &cfg);
        let monitor =
            DriftMonitor::from_baseline_scores(baseline_scores, cfg.ewma_alpha, cfg.band_sigma);
        let reservoir = ObservationReservoir::new(live.model_config().dim, cfg.reservoir_capacity);
        AdaptationController {
            cfg,
            reservoir,
            monitor,
            worker: None,
            stats: AdaptationStats::default(),
            observed: 0,
            last_refit_at: None,
            was_drifted: false,
            last_checkpoint_error: None,
            last_good: Arc::clone(live),
            obs: AdaptObs::new(registry, &AdaptationStats::default()),
        }
    }

    /// The drift monitor (band, EWMA, counters).
    pub fn monitor(&self) -> &DriftMonitor {
        &self.monitor
    }

    /// The re-fit reservoir.
    pub fn reservoir(&self) -> &ObservationReservoir {
        &self.reservoir
    }

    /// Operational counters.
    pub fn stats(&self) -> &AdaptationStats {
        &self.stats
    }

    /// Applies `event` to the [`AdaptationStats`] record and publishes the
    /// record into the linked `adapt_*_total` cells: the one path that
    /// writes either, so the registry always equals [`Self::stats`].
    fn count(&mut self, event: impl FnOnce(&mut AdaptationStats)) {
        event(&mut self.stats);
        for (cell, v) in self.obs.counters.iter().zip(self.stats.values()) {
            cell.set(v);
        }
    }

    /// Whether a background re-fit is currently running.
    pub fn refit_in_progress(&self) -> bool {
        self.worker.is_some()
    }

    /// Why the most recent checkpoint write failed, if it did — the full
    /// [`CheckpointFailure`] chain: typed [`PersistError`] kind, retry
    /// count and backoff spent. Cleared by the next successful write.
    pub fn last_checkpoint_error(&self) -> Option<&CheckpointFailure> {
        self.last_checkpoint_error.as_ref()
    }

    /// The most recent known-good ensemble: the construction-time live
    /// model until a re-fit publishes, then the latest published one.
    /// When a re-fit is abandoned (all retries failed, or the adapted
    /// model diverged) this is the model to keep serving — or to
    /// re-install after a bad swap.
    pub fn last_good_ensemble(&self) -> &Arc<CaeEnsemble> {
        &self.last_good
    }

    /// Degradation summary of the adaptation tier: retry, spawn-failure,
    /// fallback and backoff counters. The serving-tier fields stay zero;
    /// merge with `FleetDetector::health_report` (crate `cae-serve`) for
    /// the full picture.
    pub fn health_report(&self) -> HealthReport {
        HealthReport {
            refit_retries: self.stats.refit_retries,
            refits_failed: self.stats.refits_failed,
            spawn_failures: self.stats.spawn_failures,
            checkpoint_retries: self.stats.checkpoint_retries,
            checkpoint_fallbacks: self.stats.checkpoint_fallbacks,
            backoff_ms: self.stats.backoff_ms,
            ..HealthReport::default()
        }
    }

    /// Feeds one scored observation: the raw observation goes into the
    /// reservoir, the score into the drift monitor. When the monitor
    /// trips (and the reservoir is deep enough, no re-fit is running, and
    /// the cooldown has passed) a background warm re-fit of `live` is
    /// launched. Returns `true` when this call started a re-fit.
    ///
    /// `live` is the fleet's serving ensemble
    /// ([`FleetDetector::ensemble`](../cae_serve/struct.FleetDetector.html#method.ensemble));
    /// the snapshot is an `Arc` clone, so launching costs no parameter
    /// copies and the re-fit reads the exact generation that produced the
    /// observed scores.
    pub fn observe(&mut self, live: &Arc<CaeEnsemble>, observation: &[f32], score: f32) -> bool {
        self.reservoir.push(observation);
        self.observed += 1;
        let drifted = self.monitor.observe(score);
        let (mean, std) = self.monitor.baseline();
        if let Some(ewma) = self.monitor.ewma() {
            let z = if std > 0.0 { (ewma - mean) / std } else { 0.0 };
            self.obs.drift_z.set(f64::from(z));
        }
        if drifted && !self.was_drifted {
            self.count(|s| s.drift_trips += 1);
        }
        self.was_drifted = drifted;

        let cooled = match self.last_refit_at {
            None => true,
            Some(at) => self.observed.saturating_sub(at) >= self.cfg.cooldown,
        };
        if !(drifted
            && cooled
            && self.worker.is_none()
            && self.reservoir.len() >= self.cfg.min_observations)
        {
            return false;
        }

        // Thread exhaustion (real, or injected through `adapt.spawn`)
        // must not take down the serving loop: the live ensemble keeps
        // scoring, and a later drifted observation retries the launch.
        if chaos::sites::ADAPT_SPAWN.fire().is_some() {
            self.count(|s| s.spawn_failures += 1);
            return false;
        }
        let snapshot = Arc::clone(live);
        let recent = self.reservoir.series();
        let cfg = self.cfg.clone();
        // Moved clones: the duration is recorded on the worker thread when
        // the guard drops, covering every retry, the reservoir re-score
        // and the checkpoint write.
        let refit_timer = (self.obs.refit_duration_ns.clone(), self.obs.clock.clone());
        #[allow(
            clippy::disallowed_methods,
            reason = "the off-thread re-fit is the adaptation tier's sanctioned spawn"
        )]
        let spawned = std::thread::Builder::new()
            .name("cae-adapt-refit".to_string())
            .spawn(move || {
                let _timer = refit_timer.0.start(&refit_timer.1);
                // Supervised re-fit: failures and panics are caught and
                // retried up to the configured budget.
                let mut refit_retries = 0u64;
                let mut outcome = attempt_refit(&snapshot, &recent, &cfg.refit);
                while outcome.is_err() && refit_retries < u64::from(cfg.refit_retries) {
                    refit_retries += 1;
                    outcome = attempt_refit(&snapshot, &recent, &cfg.refit);
                }
                // Check for divergence and write the checkpoint while
                // still off the serving thread: poll() then publishes
                // without paying disk I/O between ticks, and a diverged
                // model never reaches the disk. `save` stages into a temp
                // file and renames, so a crash mid-write can never destroy
                // the previous checkpoint.
                let outcome = outcome.and_then(|(adapted, scores)| {
                    finite_baseline(scores).map(|finite| (adapted, finite))
                });
                let checkpoint = match (&outcome, &cfg.checkpoint_path) {
                    (Ok((adapted, _)), Some(path)) => Some(write_checkpoint(adapted, path, &cfg)),
                    _ => None,
                };
                RefitReport {
                    outcome,
                    refit_retries,
                    checkpoint,
                }
            });
        let handle = match spawned {
            Ok(h) => h,
            Err(_) => {
                self.count(|s| s.spawn_failures += 1);
                return false;
            }
        };
        self.worker = Some(handle);
        self.count(|s| s.refits_started += 1);
        self.last_refit_at = Some(self.observed);
        true
    }

    /// Non-blocking publish check: returns the adapted ensemble once the
    /// background re-fit has finished — checkpointed (if configured) and
    /// ready for [`FleetDetector::swap_ensemble`](../cae_serve/struct.FleetDetector.html#method.swap_ensemble)
    /// — or `None` while it is still training (or none is running). The
    /// drift band is re-calibrated to the adapted model on publish.
    pub fn poll(&mut self) -> Option<Arc<CaeEnsemble>> {
        if self.worker.as_ref().is_none_or(|w| !w.is_finished()) {
            return None;
        }
        self.finish()
    }

    /// Blocking variant of [`AdaptationController::poll`]: joins the
    /// running re-fit, if any. Intended for tests and drain-on-shutdown;
    /// a serving loop should poll.
    pub fn wait(&mut self) -> Option<Arc<CaeEnsemble>> {
        self.worker.as_ref()?;
        self.finish()
    }

    fn finish(&mut self) -> Option<Arc<CaeEnsemble>> {
        #[allow(
            clippy::expect_used,
            clippy::unwrap_in_result,
            reason = "both callers (`poll`, `wait`) return early unless `self.worker` is `Some`"
        )]
        let handle = self.worker.take().expect("caller checked a worker exists");
        let report = match handle.join() {
            Ok(report) => report,
            // The worker itself is supervised (`attempt_refit` catches
            // unwinds), so a join error means a panic outside the
            // supervised section — count it and fall back to the
            // last-good ensemble, which is still serving.
            Err(_) => {
                self.count(|s| s.refits_failed += 1);
                return None;
            }
        };
        self.count(|s| {
            s.refit_retries += report.refit_retries;
            if let Some((_, retries, backoff_ms)) = &report.checkpoint {
                s.checkpoint_retries += retries;
                s.backoff_ms += backoff_ms;
            }
        });
        let (adapted, finite) = match report.outcome {
            Ok(pair) => pair,
            // Every attempt failed, or the adapted model diverged: keep
            // serving the last-good ensemble.
            Err(_) => {
                self.count(|s| s.refits_failed += 1);
                return None;
            }
        };
        // The worker already wrote the checkpoint (off the serving
        // thread); a failed write is recorded — kind, retries, backoff —
        // and the publish proceeds in-memory. A failed disk write must
        // not block a swap.
        match report.checkpoint.map(|(result, _, _)| result) {
            Some(Ok(())) => {
                self.count(|s| s.checkpoints_written += 1);
                self.last_checkpoint_error = None;
            }
            Some(Err(failure)) => {
                self.count(|s| s.checkpoint_fallbacks += 1);
                self.last_checkpoint_error = Some(failure);
            }
            None => {}
        }
        self.count(|s| s.refits_completed += 1);
        // Re-calibrate the drift band to the adapted model's finite
        // scores.
        self.monitor.rebaseline(&finite);
        self.was_drifted = false;
        let adapted = Arc::new(adapted);
        self.last_good = Arc::clone(&adapted);
        Some(adapted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cae_core::{CaeConfig, EnsembleConfig};
    use cae_data::{Detector, TimeSeries};
    use cae_serve::FleetDetector;

    /// The drift-experiment signal family (see `cae-core`'s refit tests):
    /// two superimposed sinusoids, scaled and shifted.
    fn drift_wave(t: usize, f1: f32, scale: f32, level: f32) -> f32 {
        scale * ((t as f32 * f1).sin() + 0.5 * (t as f32 * 0.07).sin() + level)
    }

    fn trained_on_regime_a() -> Arc<CaeEnsemble> {
        let train =
            TimeSeries::univariate((0..400).map(|t| drift_wave(t, 0.25, 1.0, 0.0)).collect());
        let mc = CaeConfig::new(1).embed_dim(8).window(8).layers(1);
        let ec = EnsembleConfig::new()
            .num_models(2)
            .epochs_per_model(3)
            .batch_size(16)
            .train_stride(2)
            .seed(41);
        let mut ens = CaeEnsemble::new(mc, ec);
        ens.fit(&train);
        Arc::new(ens)
    }

    fn small_cfg() -> AdaptationConfig {
        AdaptationConfig::new()
            .reservoir_capacity(160)
            .min_observations(120)
            .ewma_alpha(0.1)
            .band_sigma(4.0)
            .cooldown(200)
            .refit(RefitOptions::warm(3, 7))
    }

    #[test]
    fn healthy_scores_never_start_a_refit() {
        let live = trained_on_regime_a();
        let healthy =
            TimeSeries::univariate((0..200).map(|t| drift_wave(t, 0.25, 1.0, 0.0)).collect());
        let baseline = live.score(&healthy);
        let mut ctl = AdaptationController::new(&live, &baseline, small_cfg());

        let mut stream = cae_core::StreamingDetector::new(&live);
        for t in 0..200 {
            let obs = [drift_wave(t, 0.25, 1.0, 0.0)];
            if let Some(score) = stream.push(&obs) {
                assert!(!ctl.observe(&live, &obs, score), "refit started at t={t}");
            }
        }
        assert!(!ctl.refit_in_progress());
        assert_eq!(ctl.stats().refits_started, 0);
        assert_eq!(ctl.stats().drift_trips, 0);
        assert!(ctl.poll().is_none());
        assert!(ctl.wait().is_none());
    }

    /// Drives the full loop — serve, drift, background re-fit, hot swap —
    /// and returns the controller, fleet and published ensemble.
    fn run_drift_loop(
        cfg: AdaptationConfig,
    ) -> (AdaptationController, FleetDetector, Arc<CaeEnsemble>) {
        let live = trained_on_regime_a();
        let healthy =
            TimeSeries::univariate((0..200).map(|t| drift_wave(t, 0.25, 1.0, 0.0)).collect());
        let baseline = live.score(&healthy);
        let mut fleet = FleetDetector::new(live.clone());
        let id = fleet.add_stream();
        let mut ctl = AdaptationController::new(fleet.ensemble(), &baseline, cfg);

        let mut out = Vec::new();
        let mut started = false;
        for t in 0..400 {
            // Drifted regime from the start of the loop.
            let obs = [drift_wave(t, 0.29, 1.2, 0.3)];
            fleet.push(id, &obs).expect("live stream");
            fleet.tick(&mut out);
            // Serving never misses a tick while the re-fit runs in the
            // background.
            if t >= fleet.window() - 1 {
                assert_eq!(out.len(), 1, "missed tick at t={t}");
            }
            for &(_, score) in &out {
                started |= ctl.observe(fleet.ensemble(), &obs, score);
            }
            if started {
                break;
            }
        }
        assert!(started, "drift never tripped a re-fit");
        assert!(ctl.refit_in_progress());

        // Keep serving while the re-fit trains, then drain it.
        let mut t = 400;
        let adapted = loop {
            let obs = [drift_wave(t, 0.29, 1.2, 0.3)];
            fleet.push(id, &obs).expect("live stream");
            fleet.tick(&mut out);
            assert_eq!(out.len(), 1, "missed tick at t={t}");
            t += 1;
            if t >= 420 {
                // A failed re-fit publishes nothing: fail, don't spin.
                break ctl.wait().expect("the re-fit publishes an ensemble");
            }
            if let Some(adapted) = ctl.poll() {
                break adapted;
            }
        };
        fleet.swap_ensemble(adapted.clone());
        (ctl, fleet, adapted)
    }

    #[test]
    fn drift_starts_a_background_refit_and_publishes_a_swap() {
        // Re-fits run on their own thread and consult the process-global
        // failpoints, so this test must not overlap the chaos tests below.
        let _guard = cae_chaos::exclusive();
        let (ctl, fleet, adapted) = run_drift_loop(small_cfg());
        assert_eq!(ctl.stats().refits_started, 1);
        assert_eq!(ctl.stats().refits_completed, 1);
        assert_eq!(ctl.stats().refits_failed, 0);
        assert!(ctl.stats().drift_trips >= 1);
        assert!(!ctl.refit_in_progress());
        assert_eq!(fleet.swap_count(), 1);
        assert_eq!(fleet.model_generation(), 1);
        assert!(Arc::ptr_eq(fleet.ensemble(), &adapted));

        // The published model reconstructs the drifted regime better than
        // the one it replaced.
        let drifted =
            TimeSeries::univariate((0..160).map(|t| drift_wave(t, 0.29, 1.2, 0.3)).collect());
        let mean = |s: &[f32]| s.iter().sum::<f32>() / s.len() as f32;
        let stale = mean(&fleet.retired_ensemble().expect("one swap").score(&drifted));
        let fresh = mean(&adapted.score(&drifted));
        assert!(
            fresh < stale,
            "adapted mean score {fresh} not below stale {stale}"
        );

        // The drift band was re-calibrated to the adapted model: its own
        // scores on the drifted regime sit inside the new band.
        let mut ctl = ctl;
        let mut tripped = false;
        for &s in &adapted.score(&drifted) {
            tripped |= ctl.observe(fleet.ensemble(), &[0.0], s);
        }
        assert!(!tripped, "re-baselined monitor tripped on healthy scores");
    }

    /// The `adapt_*` registry counters are an exact mirror of
    /// [`AdaptationStats`] across a full drift → re-fit → publish cycle.
    #[test]
    fn registry_counters_mirror_adaptation_stats() {
        // Re-fits run on their own thread and consult the process-global
        // failpoints, so this test must not overlap the chaos tests below.
        let _guard = cae_chaos::exclusive();
        let live = trained_on_regime_a();
        let healthy =
            TimeSeries::univariate((0..200).map(|t| drift_wave(t, 0.25, 1.0, 0.0)).collect());
        let baseline = live.score(&healthy);
        let registry = MetricsRegistry::new();
        let mut ctl =
            AdaptationController::with_observability(&live, &baseline, small_cfg(), &registry);

        let mut stream = cae_core::StreamingDetector::new(&live);
        let mut started = false;
        for t in 0..1000 {
            let obs = [drift_wave(t, 0.29, 1.2, 0.3)];
            if let Some(score) = stream.push(&obs) {
                started = ctl.observe(&live, &obs, score);
                if started {
                    break;
                }
            }
        }
        assert!(started, "drift never tripped a re-fit");
        assert!(ctl.wait().is_some(), "clean re-fit publishes");

        let stats = ctl.stats();
        assert_eq!(stats.refits_started, 1);
        assert_eq!(stats.refits_completed, 1);
        let snapshot = registry.snapshot();
        let counter = |name: &str| {
            snapshot
                .counters
                .iter()
                .find(|(n, _)| *n == name)
                .map_or_else(|| panic!("counter {name} not registered"), |&(_, v)| v)
        };
        assert_eq!(counter("adapt_drift_trips_total"), stats.drift_trips);
        assert_eq!(counter("adapt_refits_started_total"), stats.refits_started);
        assert_eq!(
            counter("adapt_refits_completed_total"),
            stats.refits_completed
        );
        assert_eq!(counter("adapt_refits_failed_total"), stats.refits_failed);
        assert_eq!(counter("adapt_refit_retries_total"), stats.refit_retries);
        assert_eq!(counter("adapt_spawn_failures_total"), stats.spawn_failures);
        assert_eq!(
            counter("adapt_checkpoints_written_total"),
            stats.checkpoints_written
        );
        assert_eq!(
            counter("adapt_checkpoint_retries_total"),
            stats.checkpoint_retries
        );
        assert_eq!(
            counter("adapt_checkpoint_fallbacks_total"),
            stats.checkpoint_fallbacks
        );
        assert_eq!(counter("adapt_backoff_ms_total"), stats.backoff_ms);

        // The duration histogram saw exactly the one supervised launch.
        let (_, refit_hist) = snapshot
            .histograms
            .iter()
            .find(|(n, _)| *n == "adapt_refit_duration_ns")
            .expect("duration histogram registered");
        assert_eq!(refit_hist.count, 1);
    }

    /// Observations near 1.5e19, under a frozen serving scaler, make the
    /// re-fit's reconstruction errors overflow to +∞ while its parameters
    /// stay finite: the adapted model has no finite score on its own
    /// reservoir, so `finish` abandons the publish as a failed re-fit —
    /// and the registry still equals the stats record.
    #[test]
    fn diverged_refit_counts_as_failed_in_stats_and_registry_alike() {
        let _guard = cae_chaos::exclusive();
        let path = std::env::temp_dir().join(format!(
            "cae_adapt_diverged_ckpt_{}.caee",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let (mut ctl, live, registry, frozen) = launched_on_huge(1.5e19, &path);
        // The worker's (deterministic) re-fit, replayed: it scores +∞
        // everywhere but never NaN, so scoring did not panic the attempt
        // and the worker reached the divergence check.
        let recent = ctl.reservoir().series();
        let replayed = live.refit(&recent, &frozen).score(&recent);
        assert!(replayed.iter().all(|&s| s == f32::INFINITY));
        assert!(ctl.wait().is_none(), "a diverged re-fit must not publish");
        assert!(Arc::ptr_eq(ctl.last_good_ensemble(), &live));
        // The divergence check runs before the checkpoint write, so the
        // diverged model never reaches the disk, and it is not retried.
        assert!(!path.exists(), "a diverged model must not be checkpointed");
        let stats = *ctl.stats();
        assert_eq!((stats.refits_completed, stats.refits_failed), (0, 1));
        assert_eq!((stats.checkpoints_written, stats.refit_retries), (0, 0));
        assert_registry_matches_stats(&registry, &stats);
    }

    /// Larger observations than the diverged case make the re-fit's
    /// reconstruction errors NaN, and the median of NaN scores panics.
    /// The scoring runs inside the supervised attempt, so the panic is a
    /// failed attempt: retried up to `refit_retries`, then counted as one
    /// failed re-fit through the worker's outcome — not as a join error,
    /// which would count the failure without the retries.
    #[test]
    fn nan_scoring_refit_is_retried_then_counted_as_failed() {
        let _guard = cae_chaos::exclusive();
        let path =
            std::env::temp_dir().join(format!("cae_adapt_nan_ckpt_{}.caee", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let (mut ctl, live, registry, frozen) = launched_on_huge(HUGE_NAN, &path);
        // The worker's re-fit, replayed: its member scores hold NaN.
        let recent = ctl.reservoir().series();
        let replayed = live.refit(&recent, &frozen).member_scores(&recent);
        assert!(replayed.iter().flatten().any(|s| s.is_nan()));
        assert!(
            ctl.wait().is_none(),
            "a NaN-scoring re-fit must not publish"
        );
        assert!(Arc::ptr_eq(ctl.last_good_ensemble(), &live));
        assert!(!path.exists(), "a failed re-fit must not be checkpointed");
        let stats = *ctl.stats();
        assert_eq!(stats.refit_retries, 2, "both retries consumed");
        assert_eq!((stats.refits_completed, stats.refits_failed), (0, 1));
        assert_eq!(stats.checkpoints_written, 0);
        assert_registry_matches_stats(&registry, &stats);
    }

    const HUGE_NAN: f32 = 1e30;

    /// A controller whose reservoir holds observations near `scale` under
    /// a frozen serving scaler, with a re-fit (2 retries, checkpointing to
    /// `path`) launched on them. Returns it with the live ensemble, its
    /// registry and the re-fit options.
    fn launched_on_huge(
        scale: f32,
        path: &std::path::Path,
    ) -> (
        AdaptationController,
        Arc<CaeEnsemble>,
        MetricsRegistry,
        RefitOptions,
    ) {
        let live = trained_on_regime_a();
        let registry = MetricsRegistry::new();
        let frozen = RefitOptions {
            update_scaler: false,
            ..RefitOptions::warm(1, 7)
        };
        let cfg = small_cfg()
            .refit(frozen.clone())
            .refit_retries(2)
            .checkpoint_path(path);
        let mut ctl = AdaptationController::with_observability(&live, &[0.01; 64], cfg, &registry);
        let mut started = false;
        for t in 0..120 {
            let huge = scale * (1.0 + 0.5 * (t as f32 * 0.3).sin());
            started |= ctl.observe(&live, &[huge], 10.0);
        }
        assert!(started, "the drifted reservoir must launch a re-fit");
        (ctl, live, registry, frozen)
    }

    /// Every `adapt_*_total` counter in `registry` equals its
    /// [`AdaptationStats`] field.
    fn assert_registry_matches_stats(registry: &MetricsRegistry, stats: &AdaptationStats) {
        let snapshot = registry.snapshot();
        for (name, value) in AdaptationStats::NAMES.into_iter().zip(stats.values()) {
            assert!(
                snapshot.counters.contains(&(name, value)),
                "{name} != stats value {value}"
            );
        }
    }

    #[test]
    fn published_checkpoint_loads_bit_identically() {
        // Re-fits run on their own thread and consult the process-global
        // failpoints, so this test must not overlap the chaos tests below.
        let _guard = cae_chaos::exclusive();
        let path =
            std::env::temp_dir().join(format!("cae_adapt_checkpoint_{}.caee", std::process::id()));
        let (ctl, _fleet, adapted) = run_drift_loop(small_cfg().checkpoint_path(&path));
        assert_eq!(ctl.stats().checkpoints_written, 1);
        assert!(ctl.last_checkpoint_error().is_none());
        let loaded = CaeEnsemble::load(&path).expect("published checkpoint loads");
        let _ = std::fs::remove_file(&path);
        let probe =
            TimeSeries::univariate((0..120).map(|t| drift_wave(t, 0.29, 1.2, 0.3)).collect());
        assert_eq!(
            loaded.score(&probe),
            adapted.score(&probe),
            "checkpoint must round-trip the published ensemble bit-exactly"
        );
    }

    #[test]
    fn cooldown_blocks_back_to_back_refits() {
        // Re-fits run on their own thread and consult the process-global
        // failpoints, so this test must not overlap the chaos tests below.
        let _guard = cae_chaos::exclusive();
        let live = trained_on_regime_a();
        let baseline = vec![0.01; 64]; // tiny band: everything drifts
        let mut ctl = AdaptationController::new(
            &live,
            &baseline,
            small_cfg().cooldown(10_000).refit(RefitOptions::warm(1, 7)),
        );
        // Saturate the reservoir with drifted data and trip a refit.
        let mut started = 0;
        for t in 0..160 {
            let obs = [drift_wave(t, 0.29, 1.2, 0.3)];
            if ctl.observe(&live, &obs, 10.0) {
                started += 1;
            }
        }
        assert_eq!(started, 1, "exactly one refit within the cooldown");
        ctl.wait();
        // Still cooling down: persistent drift must not restart.
        for t in 0..160 {
            let obs = [drift_wave(t, 0.29, 1.2, 0.3)];
            assert!(!ctl.observe(&live, &obs, 10.0), "restarted during cooldown");
        }
        assert_eq!(ctl.stats().refits_started, 1);
    }

    #[test]
    fn min_observations_gate_refits() {
        // Re-fits run on their own thread and consult the process-global
        // failpoints, so this test must not overlap the chaos tests below.
        let _guard = cae_chaos::exclusive();
        let live = trained_on_regime_a();
        let baseline = vec![0.01; 64];
        let mut ctl = AdaptationController::new(&live, &baseline, small_cfg());
        for t in 0..119 {
            // One below min_observations (120): never starts.
            let obs = [drift_wave(t, 0.29, 1.2, 0.3)];
            assert!(!ctl.observe(&live, &obs, 10.0), "started at t={t}");
        }
        assert!(ctl.observe(&live, &[0.0], 10.0), "must start at the gate");
        ctl.wait();
    }

    #[test]
    #[should_panic(expected = "must exceed the model window")]
    fn rejects_min_observations_below_window() {
        let live = trained_on_regime_a();
        AdaptationController::new(&live, &[0.1], AdaptationConfig::new().min_observations(4));
    }

    #[test]
    #[should_panic(expected = "requires a fitted ensemble")]
    fn rejects_unfitted_ensemble() {
        let live = Arc::new(CaeEnsemble::new(CaeConfig::new(1), EnsembleConfig::new()));
        AdaptationController::new(&live, &[0.1], AdaptationConfig::new());
    }

    // ------------------------------------------------------------------
    // Fault injection & graceful degradation
    // ------------------------------------------------------------------

    /// A controller primed to trip immediately: tiny band, saturated
    /// reservoir. Returns it with the live ensemble.
    fn primed(cfg: AdaptationConfig) -> (AdaptationController, Arc<CaeEnsemble>) {
        let live = trained_on_regime_a();
        let mut ctl = AdaptationController::new(&live, &[0.01; 64], cfg);
        for t in 0..119 {
            let obs = [drift_wave(t, 0.29, 1.2, 0.3)];
            assert!(!ctl.observe(&live, &obs, 10.0));
        }
        (ctl, live)
    }

    #[test]
    fn spawn_failure_is_absorbed_and_the_next_drift_retries() {
        let _guard = cae_chaos::exclusive();
        let (mut ctl, live) = primed(small_cfg().refit(RefitOptions::warm(1, 7)));
        cae_chaos::sites::ADAPT_SPAWN.arm(cae_chaos::Schedule::nth(0));
        assert!(
            !ctl.observe(&live, &[0.0], 10.0),
            "spawn failure must not report a started re-fit"
        );
        assert_eq!(ctl.stats().spawn_failures, 1);
        assert_eq!(ctl.stats().refits_started, 0);
        assert!(!ctl.refit_in_progress());
        assert_eq!(ctl.health_report().spawn_failures, 1);
        // The failpoint fired once; the next drifted observation launches.
        assert!(ctl.observe(&live, &[0.0], 10.0), "launch must retry");
        assert!(ctl.wait().is_some());
    }

    #[test]
    fn failed_refit_attempts_are_retried_within_budget() {
        let _guard = cae_chaos::exclusive();
        let (mut ctl, live) = primed(small_cfg().refit(RefitOptions::warm(1, 7)).refit_retries(2));
        // First two attempts fail; the third (last budgeted) succeeds.
        cae_chaos::sites::ADAPT_REFIT.arm(cae_chaos::Schedule::always().times(2));
        assert!(ctl.observe(&live, &[0.0], 10.0));
        let published = ctl.wait();
        assert!(published.is_some(), "re-fit must succeed within budget");
        assert_eq!(ctl.stats().refit_retries, 2);
        assert_eq!(ctl.stats().refits_failed, 0);
        assert_eq!(ctl.stats().refits_completed, 1);
    }

    #[test]
    fn panicking_refit_is_supervised_and_exhaustion_falls_back_to_last_good() {
        let _guard = cae_chaos::exclusive();
        let (mut ctl, live) = primed(small_cfg().refit(RefitOptions::warm(1, 7)).refit_retries(1));
        // Every attempt panics: 1 try + 1 retry, then abandoned.
        cae_chaos::sites::ADAPT_REFIT.arm(cae_chaos::Schedule::always().panicking());
        assert!(ctl.observe(&live, &[0.0], 10.0));
        assert!(ctl.wait().is_none(), "exhausted re-fit must not publish");
        assert_eq!(ctl.stats().refit_retries, 1);
        assert_eq!(ctl.stats().refits_failed, 1);
        assert_eq!(ctl.stats().refits_completed, 0);
        // The fallback is the model that was serving all along.
        assert!(Arc::ptr_eq(ctl.last_good_ensemble(), &live));
        assert!(ctl.health_report().degraded());
    }

    #[test]
    fn checkpoint_write_failures_retry_with_backoff_then_fall_back_to_in_memory() {
        let _guard = cae_chaos::exclusive();
        let path =
            std::env::temp_dir().join(format!("cae_adapt_chaos_ckpt_{}.caee", std::process::id()));
        let (mut ctl, live) = primed(
            small_cfg()
                .refit(RefitOptions::warm(1, 7))
                .checkpoint_path(&path)
                .checkpoint_retries(2)
                .backoff_ms(1, 4),
        );
        // Every write attempt fails: 1 try + 2 retries, then the publish
        // proceeds without a checkpoint.
        cae_chaos::sites::PERSIST_WRITE.arm(cae_chaos::Schedule::always());
        assert!(ctl.observe(&live, &[0.0], 10.0));
        let published = ctl.wait();
        cae_chaos::disarm_all();
        assert!(published.is_some(), "publish must survive checkpoint loss");
        assert!(!path.exists(), "no checkpoint may have landed");
        let failure = ctl.last_checkpoint_error().expect("failure retained");
        assert!(matches!(failure.error, PersistError::Io(_)));
        assert_eq!(failure.retries, 2);
        assert_eq!(failure.backoff_ms, 1 + 2, "1 ms then doubled to 2 ms");
        let stats = ctl.stats();
        assert_eq!(stats.checkpoint_fallbacks, 1);
        assert_eq!(stats.checkpoint_retries, 2);
        assert_eq!(stats.checkpoints_written, 0);
        assert_eq!(stats.backoff_ms, 3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn transient_checkpoint_failure_recovers_within_the_retry_budget() {
        let _guard = cae_chaos::exclusive();
        let path = std::env::temp_dir().join(format!(
            "cae_adapt_chaos_ckpt_transient_{}.caee",
            std::process::id()
        ));
        let (mut ctl, live) = primed(
            small_cfg()
                .refit(RefitOptions::warm(1, 7))
                .checkpoint_path(&path)
                .checkpoint_retries(3)
                .backoff_ms(1, 4),
        );
        // The first write attempt tears, the retry succeeds.
        cae_chaos::sites::PERSIST_WRITE.arm(cae_chaos::Schedule::nth(0).payload(10));
        assert!(ctl.observe(&live, &[0.0], 10.0));
        let published = ctl.wait();
        cae_chaos::disarm_all();
        assert!(published.is_some());
        assert!(ctl.last_checkpoint_error().is_none(), "success clears it");
        assert_eq!(ctl.stats().checkpoint_retries, 1);
        assert_eq!(ctl.stats().checkpoints_written, 1);
        let loaded = CaeEnsemble::load(&path).expect("retried checkpoint loads");
        assert_eq!(loaded.num_members(), live.num_members());
        let _ = std::fs::remove_file(&path);
    }
}
