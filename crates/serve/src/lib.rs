//! Serving layer: many concurrent streams against one trained ensemble.
//!
//! The paper's online setting (Section 4.2.7 / Table 8) trains offline and
//! scores online, one observation per stream per tick. A deployment serves
//! *fleets* of such streams — thousands of sensors or hosts — from a single
//! checkpointed model. Scoring each stream separately runs `M` batch-size-1
//! forwards per observation, which starves the packed GEMM kernels; the
//! [`FleetDetector`] instead gathers all ready streams' windows into pooled
//! `(B, w, D)` batches per tick, so member inference runs at full batch
//! width through the same SIMD path as offline scoring.
//!
//! The fleet holds its ensemble behind an [`Arc`], so a drift-aware
//! re-fit (see the `cae-adapt` crate) can hand it a replacement model at
//! runtime: [`FleetDetector::swap_ensemble`] is a generation-tagged,
//! double-buffered pointer swap that takes effect at the next tick and
//! never disturbs per-stream warm-up rings.
//!
//! Real fleets misbehave: sensors emit NaN storms, freeze at their last
//! reading, or deliver garbled rows. Each stream therefore carries a
//! [`StreamHealth`] state machine (Healthy → Suspect → Quarantined →
//! Recovering) that rejects faulty observations before they reach the
//! scoring path, quarantines persistently faulty streams so they stop
//! consuming tick budget, and probes them back to health once clean
//! readings resume — with a pinned recovery latency, so operators can
//! bound the blind window. [`FleetDetector::push`] reports malformed
//! input as a typed [`PushError`] instead of panicking, and
//! [`FleetDetector::tick`] enforces an optional per-tick window budget,
//! shedding (and round-robin rotating) excess load rather than blowing
//! its deadline. Everything degraded is counted in
//! [`FleetDetector::health_report`].
//!
//! ```no_run
//! use cae_core::CaeEnsemble;
//! use cae_serve::FleetDetector;
//!
//! // Offline: train once, checkpoint. Online: load and serve.
//! let ensemble = CaeEnsemble::load("ensemble.caee").expect("checkpoint");
//! let mut fleet = FleetDetector::new(ensemble);
//! let sensors: Vec<_> = (0..1000).map(|_| fleet.add_stream()).collect();
//!
//! let mut scores = Vec::new();
//! loop {
//!     for &id in &sensors {
//!         fleet.push(id, &[0.0 /* latest observation */]).expect("live stream");
//!     }
//!     fleet.tick(&mut scores);
//!     for (id, score) in &scores { /* alerting… */ }
//! #   break;
//! }
//! ```

// The serving tier must not panic: clippy's restriction lints ban the
// panicking shortcuts here (test code is exempt through `clippy.toml`).
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::unwrap_in_result
)]

use cae_autograd::Tape;
use cae_chaos as chaos;
use cae_core::CaeEnsemble;
use cae_obs::{CounterCell, Gauge, HealthReport, Histogram, MetricsRegistry, ObsClock};
use cae_tensor::{scratch, Tensor};
use std::sync::Arc;

pub mod snapshot;

pub use snapshot::{FleetSnapshot, ReplayError, ReplaySummary, RestoreError};

/// Windows scored per member forward pass. Matches the batch scorer's
/// inference chunk (`INFERENCE_BATCH` in `cae-core`): identical batch
/// shapes dispatch through identical kernels, so a fleet whose full
/// chunks align with the batch scorer's produces bit-identical scores.
pub const FLEET_BATCH: usize = 64;

/// Handle to one stream session inside a [`FleetDetector`].
///
/// Ids are generation-tagged: after [`FleetDetector::remove_stream`] the
/// slot is recycled for future sessions, but the stale id can never
/// silently read another stream — [`FleetDetector::push`] returns
/// [`PushError::UnknownStream`], and the inspection APIs
/// ([`buffered`](FleetDetector::buffered), …) panic.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct StreamId {
    slot: usize,
    generation: u64,
}

impl StreamId {
    /// The id's `(slot, generation)` pair — the durable wire form a
    /// journal record carries.
    pub fn raw_parts(self) -> (u64, u64) {
        (self.slot as u64, self.generation)
    }

    /// Rebuilds an id from its journaled `(slot, generation)` pair.
    ///
    /// This does not mint a session: an id that does not name a live
    /// stream behaves exactly like a stale one ([`FleetDetector::push`]
    /// returns [`PushError::UnknownStream`]). Intended for journal replay
    /// and for glue that persists ids across restarts.
    pub fn from_raw_parts(slot: u64, generation: u64) -> StreamId {
        StreamId {
            slot: slot as usize,
            generation,
        }
    }
}

/// Why [`FleetDetector::push`] rejected an observation outright.
///
/// These are *caller* errors (wrong id, wrong shape) — input pathologies
/// on a valid stream (non-finite values, flat-lines) are absorbed by the
/// health state machine instead and reported as
/// [`PushOutcome::Discarded`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PushError {
    /// The id does not name a live stream: it was forged, or the stream
    /// was removed and the slot possibly recycled.
    UnknownStream,
    /// The observation's dimensionality disagrees with the model's. The
    /// stream itself is charged with a fault (garbled rows from a
    /// misconfigured upstream count toward quarantine).
    DimMismatch {
        /// Length of the rejected observation.
        got: usize,
        /// Observation dimensionality `D` the model expects.
        expected: usize,
    },
}

impl std::fmt::Display for PushError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PushError::UnknownStream => write!(f, "unknown or removed stream id"),
            PushError::DimMismatch { got, expected } => {
                write!(f, "observation dim {got} != model dim {expected}")
            }
        }
    }
}

impl std::error::Error for PushError {}

/// What [`FleetDetector::push`] did with a well-addressed observation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PushOutcome {
    /// The observation entered the stream's warm-up ring.
    Stored,
    /// The observation was absorbed without entering the ring: it was
    /// faulty (non-finite, flat-lined past the threshold) or the stream
    /// is quarantined and still probing for recovery.
    Discarded,
}

/// Per-stream health state (see [`HealthConfig`] for the thresholds that
/// drive the transitions).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamHealth {
    /// Scoring normally.
    Healthy,
    /// Recent consecutive faults; still scoring, one step from
    /// quarantine.
    Suspect,
    /// Persistently faulty: the ring is cleared, no scores are emitted,
    /// and the stream consumes no tick budget. Clean observations are
    /// counted as recovery probes but not stored.
    Quarantined,
    /// Probation after quarantine: clean observations refill the ring;
    /// the stream returns to [`StreamHealth::Healthy`] (and to scoring)
    /// once the ring is full. Any fault sends it straight back to
    /// quarantine.
    Recovering,
}

/// Thresholds for the per-stream health state machine.
///
/// With window size `w`, a quarantined stream whose input turns clean
/// returns to scoring after exactly
/// [`probe_after`](HealthConfig::probe_after)` − 1 + w` clean pushes
/// ([`HealthConfig::recovery_pushes`]) — a pinned recovery latency.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HealthConfig {
    /// Consecutive faults before a healthy stream turns `Suspect`.
    pub suspect_after: u32,
    /// Consecutive faults before a suspect stream is quarantined.
    pub quarantine_after: u32,
    /// Consecutive bitwise-identical observations before the stream
    /// counts as flat-lined (a frozen sensor).
    pub flatline_after: u32,
    /// Consecutive clean observations a quarantined stream must show
    /// before its ring starts refilling.
    pub probe_after: u32,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            suspect_after: 2,
            quarantine_after: 6,
            flatline_after: 32,
            probe_after: 3,
        }
    }
}

impl HealthConfig {
    /// Sets [`HealthConfig::suspect_after`].
    pub fn suspect_after(mut self, n: u32) -> Self {
        self.suspect_after = n;
        self
    }

    /// Sets [`HealthConfig::quarantine_after`].
    pub fn quarantine_after(mut self, n: u32) -> Self {
        self.quarantine_after = n;
        self
    }

    /// Sets [`HealthConfig::flatline_after`].
    pub fn flatline_after(mut self, n: u32) -> Self {
        self.flatline_after = n;
        self
    }

    /// Sets [`HealthConfig::probe_after`].
    pub fn probe_after(mut self, n: u32) -> Self {
        self.probe_after = n;
        self
    }

    /// Clean pushes a quarantined stream needs to score again under
    /// window size `window`: `probe_after − 1` discarded probes plus
    /// `window` ring-refilling observations.
    pub fn recovery_pushes(&self, window: usize) -> usize {
        self.probe_after as usize - 1 + window
    }
}

#[derive(Clone)]
struct StreamSlot {
    generation: u64,
    active: bool,
    /// Circular window storage: `window × dim` values, oldest observation
    /// at `head` once the ring is full.
    ring: Vec<f32>,
    /// Next observation slot to write, in `[0, window)`.
    head: usize,
    /// Observations buffered so far (saturates at `window`).
    filled: usize,
    /// Whether a new observation arrived since the last tick.
    fresh: bool,
    state: StreamHealth,
    /// Consecutive faulty observations (resets on any clean one).
    consecutive_faults: u32,
    /// Consecutive observations bitwise-identical to their predecessor.
    flat_run: u32,
    /// Consecutive clean observations seen while quarantined.
    probe_goods: u32,
    /// Previous well-formed observation, for flat-line detection.
    prev: Vec<f32>,
    has_prev: bool,
}

impl StreamSlot {
    fn reset(&mut self) {
        self.head = 0;
        self.filled = 0;
        self.fresh = false;
    }

    fn reset_health(&mut self) {
        self.state = StreamHealth::Healthy;
        self.consecutive_faults = 0;
        self.flat_run = 0;
        self.probe_goods = 0;
        self.has_prev = false;
    }
}

/// Advances `s` through one faulty observation. Returns `true` when the
/// stream was newly quarantined by this fault (the caller owns the
/// fleet-level event counter).
fn escalate_fault(s: &mut StreamSlot, cfg: &HealthConfig) -> bool {
    s.consecutive_faults += 1;
    match s.state {
        StreamHealth::Healthy | StreamHealth::Suspect => {
            if s.consecutive_faults >= cfg.suspect_after {
                s.state = StreamHealth::Suspect;
            }
            // A single threshold can skip the Suspect stop-over entirely.
            if s.consecutive_faults >= cfg.quarantine_after {
                quarantine(s);
                return true;
            }
            false
        }
        // Any fault during probation voids it: the ring may only ever
        // hold a contiguous run of clean observations.
        StreamHealth::Recovering => {
            quarantine(s);
            true
        }
        StreamHealth::Quarantined => {
            s.probe_goods = 0;
            false
        }
    }
}

fn quarantine(s: &mut StreamSlot) {
    s.state = StreamHealth::Quarantined;
    s.probe_goods = 0;
    // Drop the buffered window: it mixes pre-fault readings with the
    // gap the rejected observations left.
    s.reset();
}

/// Registry names of the fleet's lifetime event counts, indexed by the
/// constants below. The counts live in `FleetDetector::counters`, the one
/// record that [`FleetDetector::health_report`],
/// [`FleetDetector::snapshot`] and every attached registry read: a
/// registry links those cells by name instead of counting the same events
/// again.
const COUNTER_NAMES: [&str; 6] = [
    "serve_quarantine_events_total",
    "serve_recoveries_total",
    "serve_faulty_observations_total",
    "serve_shed_windows_total",
    "serve_suppressed_scores_total",
    "serve_ensemble_swaps_total",
];
const QUARANTINE_EVENTS: usize = 0;
const RECOVERIES: usize = 1;
const FAULTY_OBSERVATIONS: usize = 2;
const SHED_WINDOWS: usize = 3;
const SUPPRESSED_SCORES: usize = 4;
/// Hot swaps, which is also the serving model's generation.
const ENSEMBLE_SWAPS: usize = 5;

/// Retained telemetry handles for one fleet (see the README's metric
/// catalog). Every site costs one Relaxed load while the registry is
/// disabled, so the default-disabled fleet pays no measurable tax. The
/// fleet's counters are not handles here: the registry links the fleet's
/// own cells (see [`COUNTER_NAMES`]).
#[derive(Debug)]
struct ServeObs {
    clock: ObsClock,
    push_latency_ns: Histogram,
    tick_latency_ns: Histogram,
    batch_occupancy: Histogram,
    buffered_windows: Gauge,
    streams_live: Gauge,
    streams_healthy: Gauge,
    streams_suspect: Gauge,
    streams_quarantined: Gauge,
    streams_recovering: Gauge,
}

impl ServeObs {
    /// Opens the fleet's handles in `registry` and links `counters` there.
    fn new(registry: &MetricsRegistry, counters: &[CounterCell; 6]) -> ServeObs {
        for (name, cell) in COUNTER_NAMES.into_iter().zip(counters) {
            registry.link_counter(name, cell.clone());
        }
        ServeObs {
            clock: ObsClock::monotonic(),
            push_latency_ns: registry.histogram("serve_push_latency_ns"),
            tick_latency_ns: registry.histogram("serve_tick_latency_ns"),
            batch_occupancy: registry.histogram("serve_batch_occupancy"),
            buffered_windows: registry.gauge("serve_buffered_windows"),
            streams_live: registry.gauge("serve_streams_live"),
            streams_healthy: registry.gauge("serve_streams_healthy"),
            streams_suspect: registry.gauge("serve_streams_suspect"),
            streams_quarantined: registry.gauge("serve_streams_quarantined"),
            streams_recovering: registry.gauge("serve_streams_recovering"),
        }
    }
}

/// Scores many concurrent observation streams against one **fitted**
/// (typically [loaded](CaeEnsemble::load)) ensemble.
///
/// Each stream owns a warm-up ring of its last `w` observations, exactly
/// like [`StreamingDetector`](cae_core::StreamingDetector). The difference
/// is the scoring schedule: observations are buffered by [`push`] and
/// scored by [`tick`], which batches every ready stream's window into
/// pooled `(B, w, D)` tensors (`B ≤` [`FLEET_BATCH`]) and runs all
/// ensemble members at full batch width. Ticks are allocation-free at
/// steady state: ring storage is retained per stream, batch buffers come
/// from the thread-local scratch pool, as do the tape-free forward's
/// activations. `crates/serve/tests/steady_state_allocs.rs` counts every
/// allocation of 100 warm ticks, at pools 1 and 2, and requires zero.
///
/// The serving model is [swappable](FleetDetector::swap_ensemble): the
/// fleet owns an [`Arc<CaeEnsemble>`] pair — the live model and the most
/// recently retired one. Swapping bumps a model-generation counter and
/// takes effect at the next [`tick`]; sessions, warm-up rings and score
/// history are untouched, and the retired `Arc` keeps any reader that
/// still holds the old generation (a sharded front-end mid-tick, the
/// adaptation controller's baseline scorer) valid until the next swap.
///
/// [`push`]: FleetDetector::push
/// [`tick`]: FleetDetector::tick
pub struct FleetDetector {
    ensemble: Arc<CaeEnsemble>,
    /// Double buffer: the previous model generation, kept alive across
    /// one swap so in-flight readers of the old generation stay valid.
    retired: Option<Arc<CaeEnsemble>>,
    window: usize,
    dim: usize,
    slots: Vec<StreamSlot>,
    free: Vec<usize>,
    next_generation: u64,
    active: usize,
    /// Ready slot indices gathered per tick (retained).
    ready: Vec<usize>,
    /// Per-chunk score output (retained).
    scores: Vec<f32>,
    health_cfg: HealthConfig,
    /// Max windows scored per tick; excess ready streams are shed.
    tick_budget: usize,
    /// Slot index the ready scan starts from. Only advances when a tick
    /// sheds load, so an unloaded fleet keeps strict slot order (and its
    /// bit-exact chunking).
    scan_from: usize,
    /// Lifetime event counts, indexed as [`COUNTER_NAMES`].
    counters: [CounterCell; 6],
    obs: ServeObs,
}

impl std::fmt::Debug for FleetDetector {
    /// Fleet shape and generation only — the ensemble and per-stream
    /// buffers are summarized by their counts.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetDetector")
            .field("model_generation", &self.model_generation())
            .field("window", &self.window)
            .field("dim", &self.dim)
            .field("active_streams", &self.active)
            .field("retired_generation_held", &self.retired.is_some())
            .finish_non_exhaustive()
    }
}

impl FleetDetector {
    /// A fleet scorer over a **fitted** ensemble.
    ///
    /// Accepts either an owned [`CaeEnsemble`] or an existing
    /// [`Arc<CaeEnsemble>`] (share the `Arc` when something else — e.g.
    /// an adaptation controller — needs concurrent read access to the
    /// live model).
    pub fn new(ensemble: impl Into<Arc<CaeEnsemble>>) -> Self {
        Self::with_health(ensemble, HealthConfig::default())
    }

    /// A fleet scorer with explicit health-machine thresholds (see
    /// [`FleetDetector::new`] for the ensemble contract).
    pub fn with_health(ensemble: impl Into<Arc<CaeEnsemble>>, health: HealthConfig) -> Self {
        // Telemetry defaults to a disabled registry: one Relaxed load
        // per instrumented site until `with_observability` /
        // `attach_observability` opts in.
        Self::with_observability(ensemble, health, &MetricsRegistry::disabled())
    }

    /// A fleet scorer publishing runtime telemetry into `registry` (see
    /// the README's "Observability" section for the `serve_*` catalog).
    /// Handles are registered eagerly; whether they record follows the
    /// registry's enable state.
    pub fn with_observability(
        ensemble: impl Into<Arc<CaeEnsemble>>,
        health: HealthConfig,
        registry: &MetricsRegistry,
    ) -> Self {
        let ensemble = ensemble.into();
        assert!(
            ensemble.num_members() > 0,
            "FleetDetector requires a fitted ensemble"
        );
        assert!(
            health.suspect_after >= 1 && health.probe_after >= 1,
            "health thresholds must be at least 1"
        );
        assert!(
            health.quarantine_after >= health.suspect_after,
            "quarantine_after {} < suspect_after {}",
            health.quarantine_after,
            health.suspect_after
        );
        let window = ensemble.model_config().window;
        let dim = ensemble.model_config().dim;
        let counters: [CounterCell; 6] = Default::default();
        FleetDetector {
            ensemble,
            retired: None,
            window,
            dim,
            slots: Vec::new(),
            free: Vec::new(),
            next_generation: 0,
            active: 0,
            ready: Vec::new(),
            scores: Vec::new(),
            health_cfg: health,
            tick_budget: usize::MAX,
            scan_from: 0,
            obs: ServeObs::new(registry, &counters),
            counters,
        }
    }

    /// Re-homes this fleet's telemetry into `registry`: its histograms
    /// and gauges record there from now on, and `registry` links the
    /// fleet's counter cells, so its `serve_*_total` counters equal
    /// [`FleetDetector::health_report`] (and the swap count) at once,
    /// lifetime counts included. A registry attached earlier keeps
    /// reading the same cells.
    pub fn attach_observability(&mut self, registry: &MetricsRegistry) {
        self.obs = ServeObs::new(registry, &self.counters);
    }

    /// The ensemble currently serving this fleet.
    pub fn ensemble(&self) -> &Arc<CaeEnsemble> {
        &self.ensemble
    }

    /// Generation counter of the serving model: 0 at construction,
    /// incremented by every [`FleetDetector::swap_ensemble`]. Scores can
    /// be attributed to the model generation that produced them by
    /// reading this between ticks.
    pub fn model_generation(&self) -> u64 {
        self.counters[ENSEMBLE_SWAPS].get()
    }

    /// Number of hot swaps performed over this fleet's lifetime (equals
    /// [`FleetDetector::model_generation`]; exposed separately as the
    /// operational counter).
    pub fn swap_count(&self) -> u64 {
        self.model_generation()
    }

    /// The previous model generation, if a swap has happened — the second
    /// half of the double buffer. Kept alive until the next swap so
    /// readers that pinned the old generation stay valid; useful for
    /// attributing in-flight results or diffing old vs. new scores.
    pub fn retired_ensemble(&self) -> Option<&Arc<CaeEnsemble>> {
        self.retired.as_ref()
    }

    /// Replaces the serving ensemble with `next`, returning the new model
    /// generation.
    ///
    /// The swap is an `Arc` pointer exchange — O(1), no parameter copies,
    /// no tensor work — so it can sit between two ticks of a heavily
    /// loaded fleet without missing a beat: the tick before the swap
    /// scores entirely under the old model, the tick after scores
    /// entirely under the new one, and no tick ever observes a mix.
    /// Per-stream sessions and warm-up rings are preserved; streams that
    /// were mid-warm-up keep their progress.
    ///
    /// The replacement must be a fitted ensemble with the same window
    /// size and observation dimensionality (anything else would
    /// invalidate the buffered rings); a warm re-fit of the serving model
    /// satisfies this by construction. The previous model is retired into
    /// the double buffer, keeping outstanding references to it valid
    /// until the next swap.
    pub fn swap_ensemble(&mut self, next: impl Into<Arc<CaeEnsemble>>) -> u64 {
        let next = next.into();
        assert!(
            next.num_members() > 0,
            "swap_ensemble requires a fitted ensemble"
        );
        assert_eq!(
            next.model_config().window,
            self.window,
            "swap_ensemble window {} != serving window {}",
            next.model_config().window,
            self.window
        );
        assert_eq!(
            next.model_config().dim,
            self.dim,
            "swap_ensemble dim {} != serving dim {}",
            next.model_config().dim,
            self.dim
        );
        self.retired = Some(std::mem::replace(&mut self.ensemble, next));
        self.counters[ENSEMBLE_SWAPS].inc();
        self.model_generation()
    }

    /// Window size `w` of the underlying model.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Observation dimensionality `D` of the underlying model.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of active stream sessions.
    pub fn num_streams(&self) -> usize {
        self.active
    }

    /// Opens a new stream session. Slot storage from removed streams is
    /// reused, so long-lived fleets with session churn do not grow.
    pub fn add_stream(&mut self) -> StreamId {
        self.next_generation += 1;
        let generation = self.next_generation;
        let slot = match self.free.pop() {
            Some(i) => {
                let s = &mut self.slots[i];
                s.generation = generation;
                s.active = true;
                s.reset();
                s.reset_health();
                i
            }
            None => {
                self.slots.push(StreamSlot {
                    generation,
                    active: true,
                    ring: vec![0.0; self.window * self.dim],
                    head: 0,
                    filled: 0,
                    fresh: false,
                    state: StreamHealth::Healthy,
                    consecutive_faults: 0,
                    flat_run: 0,
                    probe_goods: 0,
                    prev: vec![0.0; self.dim],
                    has_prev: false,
                });
                self.slots.len() - 1
            }
        };
        self.active += 1;
        StreamId { slot, generation }
    }

    /// Closes a stream session. Its slot (and ring storage) is recycled
    /// for a future [`FleetDetector::add_stream`]; the id becomes stale
    /// and must not be used again.
    pub fn remove_stream(&mut self, id: StreamId) {
        let slot = self.slot_mut(id);
        slot.active = false;
        self.free.push(id.slot);
        self.active -= 1;
    }

    /// Clears a stream's warm-up buffer and health tracking (e.g. after
    /// a gap in its feed or an operator-confirmed sensor repair); the
    /// session stays open, starts back at [`StreamHealth::Healthy`], and
    /// scores again after `w` fresh observations.
    pub fn reset_stream(&mut self, id: StreamId) {
        let s = self.slot_mut(id);
        s.reset();
        s.reset_health();
    }

    /// Observations currently buffered for a stream (saturates at `w`).
    pub fn buffered(&self, id: StreamId) -> usize {
        self.slot(id).filled
    }

    /// Feeds one observation into a stream's ring. Scores are produced by
    /// the next [`FleetDetector::tick`]; a tick scores the window ending
    /// at each stream's **most recent** observation, so push once per
    /// stream between ticks for per-observation scores (pushing more
    /// often skips the intermediate windows).
    ///
    /// Misaddressed or misshapen input is a typed [`PushError`], never a
    /// panic. Faulty-but-well-addressed observations (non-finite values,
    /// a flat-lined sensor) return [`PushOutcome::Discarded`] and drive
    /// the stream's [`StreamHealth`] machine instead of entering the
    /// ring — the scoring path only ever sees finite, live data.
    pub fn push(&mut self, id: StreamId, observation: &[f32]) -> Result<PushOutcome, PushError> {
        let _timer = self.obs.push_latency_ns.start(&self.obs.clock);
        let dim = self.dim;
        let window = self.window;
        let cfg = self.health_cfg;
        let Some(s) = self.slots.get_mut(id.slot) else {
            return Err(PushError::UnknownStream);
        };
        if !s.active || s.generation != id.generation {
            return Err(PushError::UnknownStream);
        }
        if observation.len() != dim {
            self.counters[FAULTY_OBSERVATIONS].inc();
            if escalate_fault(s, &cfg) {
                self.counters[QUARANTINE_EVENTS].inc();
            }
            return Err(PushError::DimMismatch {
                got: observation.len(),
                expected: dim,
            });
        }

        // Flat-line tracking: bitwise comparison, so frozen NaN payloads
        // count too and float equality pitfalls don't apply.
        let repeats = s.has_prev
            && observation
                .iter()
                .zip(s.prev.iter())
                .all(|(a, b)| a.to_bits() == b.to_bits());
        s.flat_run = if repeats { s.flat_run + 1 } else { 0 };
        s.prev.copy_from_slice(observation);
        s.has_prev = true;

        let non_finite = observation.iter().any(|v| !v.is_finite());
        if non_finite || s.flat_run >= cfg.flatline_after {
            self.counters[FAULTY_OBSERVATIONS].inc();
            if escalate_fault(s, &cfg) {
                self.counters[QUARANTINE_EVENTS].inc();
            }
            return Ok(PushOutcome::Discarded);
        }

        // Clean observation: recover state first, then (maybe) store.
        s.consecutive_faults = 0;
        match s.state {
            StreamHealth::Suspect => s.state = StreamHealth::Healthy,
            StreamHealth::Quarantined => {
                s.probe_goods += 1;
                if s.probe_goods < cfg.probe_after {
                    return Ok(PushOutcome::Discarded);
                }
                // Probation granted: this observation starts the refill.
                s.state = StreamHealth::Recovering;
            }
            StreamHealth::Healthy | StreamHealth::Recovering => {}
        }
        s.ring[s.head * dim..(s.head + 1) * dim].copy_from_slice(observation);
        s.head = (s.head + 1) % window;
        s.filled = (s.filled + 1).min(window);
        s.fresh = true;
        if s.state == StreamHealth::Recovering && s.filled == window {
            s.state = StreamHealth::Healthy;
            self.counters[RECOVERIES].inc();
        }
        Ok(PushOutcome::Stored)
    }

    /// Scores every stream that received an observation since the last
    /// tick and has a full warm-up ring. Clears `out`, then appends one
    /// `(id, score)` pair per scored stream in session-slot order.
    ///
    /// Each score is the ensemble-median reconstruction error of the last
    /// window position — identical to what
    /// [`StreamingDetector::push`](cae_core::StreamingDetector::push)
    /// returns for the same observations, but computed for up to
    /// [`FLEET_BATCH`] streams per member forward pass.
    ///
    /// When more streams are ready than the [tick
    /// budget](FleetDetector::set_tick_budget) allows, the excess is shed
    /// (counted in [`FleetDetector::health_report`]) and the next tick's
    /// scan starts at the first shed stream, so persistent overload
    /// round-robins instead of starving high-numbered slots. Non-finite
    /// scores are suppressed — never emitted — and charged to the
    /// producing stream as a fault.
    pub fn tick(&mut self, out: &mut Vec<(StreamId, f32)>) {
        let _timer = self.obs.tick_latency_ns.start(&self.obs.clock);
        out.clear();
        let (window, dim) = (self.window, self.dim);
        let cfg = self.health_cfg;
        let budget = match chaos::sites::SERVE_TICK_DEADLINE.fire() {
            // A tripped deadline clamps this tick's budget: the payload is
            // the number of windows that still fit, `None` sheds the tick.
            Some(payload) => payload.map_or(0, |k| k as usize).min(self.tick_budget),
            None => self.tick_budget,
        };
        let mut ready = std::mem::take(&mut self.ready);
        ready.clear();
        let n = self.slots.len();
        let start = if self.scan_from < n {
            self.scan_from
        } else {
            0
        };
        let mut buffered = 0usize;
        for off in 0..n {
            let i = (start + off) % n;
            let s = &self.slots[i];
            if s.active {
                buffered += s.filled;
            }
            if s.active && s.fresh && s.filled == window {
                ready.push(i);
            }
        }
        self.obs.buffered_windows.set(buffered as f64);
        if ready.len() > budget {
            self.counters[SHED_WINDOWS].add((ready.len() - budget) as u64);
            // Unscored streams keep `fresh`; resume the scan at the first
            // one so repeated overload rotates fairly.
            self.scan_from = ready[budget];
            ready.truncate(budget);
        }

        let mut scores = std::mem::take(&mut self.scores);
        for chunk in ready.chunks(FLEET_BATCH) {
            self.obs.batch_occupancy.record(chunk.len() as u64);
            let mut data = scratch::take(chunk.len() * window * dim);
            for &i in chunk {
                // Unroll the ring in time order: the oldest observation
                // sits at `head` once the ring is full.
                let s = &self.slots[i];
                data.extend_from_slice(&s.ring[s.head * dim..]);
                data.extend_from_slice(&s.ring[..s.head * dim]);
            }
            if let Some(scaler) = self.ensemble.scaler() {
                scaler.apply_in_place(&mut data);
            }
            let batch = Tensor::from_vec(data, &[chunk.len(), window, dim]);
            scores.clear();
            self.ensemble
                .score_scaled_windows_into(&mut Tape::new(), &batch, &mut scores);
            batch.recycle();
            for (k, &i) in chunk.iter().enumerate() {
                let score = scores[k];
                let s = &mut self.slots[i];
                s.fresh = false;
                if score.is_finite() {
                    out.push((
                        StreamId {
                            slot: i,
                            generation: s.generation,
                        },
                        score,
                    ));
                } else {
                    // The window was finite but the model overflowed on
                    // it: suppress the score and charge the stream.
                    self.counters[SUPPRESSED_SCORES].inc();
                    if escalate_fault(s, &cfg) {
                        self.counters[QUARANTINE_EVENTS].inc();
                    }
                }
            }
        }
        self.scores = scores;
        self.ready = ready;
    }

    /// Caps the number of windows scored per [`FleetDetector::tick`];
    /// excess ready streams are shed to the next tick. Defaults to
    /// unlimited (`usize::MAX`).
    pub fn set_tick_budget(&mut self, windows: usize) {
        self.tick_budget = windows;
    }

    /// The current per-tick window budget.
    pub fn tick_budget(&self) -> usize {
        self.tick_budget
    }

    /// The health thresholds this fleet runs under.
    pub fn health_config(&self) -> HealthConfig {
        self.health_cfg
    }

    /// The health state of one live stream.
    pub fn stream_health(&self, id: StreamId) -> StreamHealth {
        self.slot(id).state
    }

    /// Degradation summary: a point-in-time census of stream health plus
    /// the fleet's lifetime fault/shed/suppression counters. The
    /// adaptation-tier fields stay zero; merge with
    /// `AdaptationController::health_report` (crate `cae-adapt`) for the
    /// full picture.
    pub fn health_report(&self) -> HealthReport {
        let count = |i: usize| self.counters[i].get();
        let mut report = HealthReport {
            quarantine_events: count(QUARANTINE_EVENTS),
            recoveries: count(RECOVERIES),
            faulty_observations: count(FAULTY_OBSERVATIONS),
            shed_windows: count(SHED_WINDOWS),
            suppressed_scores: count(SUPPRESSED_SCORES),
            ..HealthReport::default()
        };
        for s in self.slots.iter().filter(|s| s.active) {
            match s.state {
                StreamHealth::Healthy => report.streams_healthy += 1,
                StreamHealth::Suspect => report.streams_suspect += 1,
                StreamHealth::Quarantined => report.streams_quarantined += 1,
                StreamHealth::Recovering => report.streams_recovering += 1,
            }
        }
        self.obs.streams_live.set(self.active as f64);
        self.obs.streams_healthy.set(report.streams_healthy as f64);
        self.obs.streams_suspect.set(report.streams_suspect as f64);
        self.obs
            .streams_quarantined
            .set(report.streams_quarantined as f64);
        self.obs
            .streams_recovering
            .set(report.streams_recovering as f64);
        report
    }

    fn slot(&self, id: StreamId) -> &StreamSlot {
        #[allow(
            clippy::expect_used,
            reason = "panicking on a forged or stale StreamId is the documented contract of the \
                      id-based API: ids are only minted by `add_stream` and checked against the \
                      generation tag"
        )]
        let s = self.slots.get(id.slot).expect("invalid StreamId");
        assert!(
            s.active && s.generation == id.generation,
            "stale StreamId: the stream was removed"
        );
        s
    }

    fn slot_mut(&mut self, id: StreamId) -> &mut StreamSlot {
        #[allow(
            clippy::expect_used,
            reason = "the same documented panicking contract as `slot` above"
        )]
        let s = self.slots.get_mut(id.slot).expect("invalid StreamId");
        assert!(
            s.active && s.generation == id.generation,
            "stale StreamId: the stream was removed"
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cae_core::{CaeConfig, EnsembleConfig, StreamingDetector};
    use cae_data::{Detector, TimeSeries};

    pub(crate) fn wave(t: usize, phase: f32) -> f32 {
        (t as f32 * 0.3 + phase).sin()
    }

    pub(crate) fn fitted_ensemble() -> Arc<CaeEnsemble> {
        fitted_on(0.0, 23)
    }

    /// A small ensemble fitted on `wave` at `phase`, seeded with `seed`.
    fn fitted_on(phase: f32, seed: u64) -> Arc<CaeEnsemble> {
        let series = TimeSeries::univariate((0..200).map(|t| wave(t, phase)).collect());
        let mc = CaeConfig::new(1).embed_dim(8).window(8).layers(1);
        let ec = EnsembleConfig::new()
            .num_models(2)
            .epochs_per_model(2)
            .batch_size(16)
            .train_stride(2)
            .seed(seed);
        let mut ens = CaeEnsemble::new(mc, ec);
        ens.fit(&series);
        Arc::new(ens)
    }

    #[test]
    fn warm_up_emits_nothing_then_scores() {
        let ens = fitted_ensemble();
        let w = ens.model_config().window;
        let mut fleet = FleetDetector::new(ens.clone());
        let id = fleet.add_stream();
        let mut out = Vec::new();
        for t in 0..w - 1 {
            fleet.push(id, &[wave(t, 0.0)]).unwrap();
            fleet.tick(&mut out);
            assert!(out.is_empty(), "scored during warm-up at t={t}");
        }
        fleet.push(id, &[wave(w - 1, 0.0)]).unwrap();
        fleet.tick(&mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, id);
        assert!(out[0].1 >= 0.0 && out[0].1.is_finite());
    }

    #[test]
    fn fleet_matches_streaming_detector_bit_exactly() {
        // A single-stream fleet assembles the identical (1, w, D) batch a
        // StreamingDetector scores, so the scores must be bit-equal.
        let ens = fitted_ensemble();
        let mut stream = StreamingDetector::new(&ens);
        let mut fleet = FleetDetector::new(ens.clone());
        let id = fleet.add_stream();
        let mut out = Vec::new();
        for t in 0..40 {
            let obs = [wave(t, 0.4)];
            let expected = stream.push(&obs);
            fleet.push(id, &obs).unwrap();
            fleet.tick(&mut out);
            match expected {
                Some(score) => assert_eq!(out, [(id, score)], "t={t}"),
                None => assert!(out.is_empty(), "t={t}"),
            }
        }
    }

    #[test]
    fn sixty_four_streams_match_the_batch_scorer_bit_exactly() {
        // 64 streams ticked together form exactly one FLEET_BATCH chunk —
        // the same (64, w, D) shape the batch scorer's inference chunks
        // use — so every kernel dispatches identically and the scores are
        // bit-equal, not merely close.
        let ens = fitted_ensemble();
        let w = ens.model_config().window;
        let len = (w - 1) + 64; // 64 windows ⇒ one full inference chunk
        let phases: Vec<f32> = (0..64).map(|k| k as f32 * 0.09).collect();
        let series: Vec<TimeSeries> = phases
            .iter()
            .map(|&p| TimeSeries::univariate((0..len).map(|t| wave(t, p)).collect()))
            .collect();

        let mut fleet = FleetDetector::new(ens.clone());
        let ids: Vec<StreamId> = (0..64).map(|_| fleet.add_stream()).collect();
        let mut out = Vec::new();
        let mut per_stream: Vec<Vec<f32>> = vec![Vec::new(); 64];
        for t in 0..len {
            for (k, &id) in ids.iter().enumerate() {
                fleet.push(id, series[k].observation(t)).unwrap();
            }
            fleet.tick(&mut out);
            for &(id, score) in &out {
                let k = ids.iter().position(|&i| i == id).expect("known id");
                per_stream[k].push(score);
            }
        }

        for (k, s) in series.iter().enumerate() {
            let batch_scores = ens.score(s);
            assert_eq!(per_stream[k].len(), 64, "stream {k}");
            // Streaming emits from t = w−1; batch scores before that come
            // from the first window's interior.
            assert_eq!(per_stream[k], batch_scores[w - 1..], "stream {k}");
        }
    }

    #[test]
    fn tick_without_fresh_observations_is_empty() {
        let ens = fitted_ensemble();
        let w = ens.model_config().window;
        let mut fleet = FleetDetector::new(ens.clone());
        let id = fleet.add_stream();
        let mut out = Vec::new();
        for t in 0..w {
            fleet.push(id, &[wave(t, 0.0)]).unwrap();
        }
        fleet.tick(&mut out);
        assert_eq!(out.len(), 1);
        fleet.tick(&mut out); // nothing new pushed
        assert!(out.is_empty());
    }

    #[test]
    fn remove_and_reset_sessions() {
        let ens = fitted_ensemble();
        let w = ens.model_config().window;
        let mut fleet = FleetDetector::new(ens.clone());
        let a = fleet.add_stream();
        let b = fleet.add_stream();
        assert_eq!(fleet.num_streams(), 2);

        let mut out = Vec::new();
        for t in 0..w {
            fleet.push(a, &[wave(t, 0.0)]).unwrap();
            fleet.push(b, &[wave(t, 1.0)]).unwrap();
        }
        fleet.remove_stream(b);
        assert_eq!(fleet.num_streams(), 1);
        fleet.tick(&mut out);
        assert_eq!(out.len(), 1, "removed stream must not be scored");
        assert_eq!(out[0].0, a);

        // The freed slot is recycled with a fresh generation and a clean
        // warm-up ring.
        let c = fleet.add_stream();
        assert_ne!(b, c);
        assert_eq!(fleet.buffered(c), 0);

        fleet.reset_stream(a);
        assert_eq!(fleet.buffered(a), 0);
        fleet.push(a, &[0.0]).unwrap();
        fleet.tick(&mut out);
        assert!(out.is_empty(), "reset stream must warm up again");
    }

    #[test]
    fn stale_and_forged_ids_are_typed_push_errors() {
        let ens = fitted_ensemble();
        let mut fleet = FleetDetector::new(ens.clone());
        let id = fleet.add_stream();
        fleet.remove_stream(id);
        assert_eq!(fleet.push(id, &[0.0]), Err(PushError::UnknownStream));
        // A recycled slot rejects the old generation but accepts the new.
        let next = fleet.add_stream();
        assert_eq!(fleet.push(id, &[0.0]), Err(PushError::UnknownStream));
        assert_eq!(fleet.push(next, &[0.0]), Ok(PushOutcome::Stored));
    }

    #[test]
    fn dim_mismatch_is_a_typed_push_error_and_counts_as_a_fault() {
        let ens = fitted_ensemble();
        let mut fleet = FleetDetector::new(ens.clone());
        let id = fleet.add_stream();
        assert_eq!(
            fleet.push(id, &[0.0, 1.0]),
            Err(PushError::DimMismatch {
                got: 2,
                expected: 1
            })
        );
        assert_eq!(fleet.health_report().faulty_observations, 1);
        // Garbled rows escalate like any other fault family.
        for _ in 0..fleet.health_config().quarantine_after {
            let _ = fleet.push(id, &[]);
        }
        assert_eq!(fleet.stream_health(id), StreamHealth::Quarantined);
    }

    #[test]
    #[should_panic(expected = "requires a fitted ensemble")]
    fn rejects_unfitted_ensemble() {
        let ens = CaeEnsemble::new(CaeConfig::new(1), EnsembleConfig::new());
        FleetDetector::new(ens.clone());
    }

    // ------------------------------------------------------------------
    // Hot ensemble swap
    // ------------------------------------------------------------------

    /// A second fitted ensemble with the same architecture but different
    /// parameters (different seed ⇒ different members).
    fn fitted_ensemble_seed(seed: u64) -> Arc<CaeEnsemble> {
        fitted_on(0.2, seed)
    }

    #[test]
    fn swap_takes_effect_at_the_next_tick_and_never_skips_one() {
        let a = fitted_ensemble();
        let b = fitted_ensemble_seed(91);
        let w = a.model_config().window;

        // Reference fleets that never swap.
        let mut on_a = FleetDetector::new(a.clone());
        let mut on_b = FleetDetector::new(b.clone());
        let mut swapping = FleetDetector::new(a.clone());
        let ia = on_a.add_stream();
        let ib = on_b.add_stream();
        let is = swapping.add_stream();
        assert_eq!(swapping.model_generation(), 0);
        assert_eq!(swapping.swap_count(), 0);

        let (mut oa, mut ob, mut os) = (Vec::new(), Vec::new(), Vec::new());
        let swap_at = w + 3;
        for t in 0..w + 8 {
            let obs = [wave(t, 0.5)];
            on_a.push(ia, &obs).unwrap();
            on_b.push(ib, &obs).unwrap();
            swapping.push(is, &obs).unwrap();
            if t == swap_at {
                let generation = swapping.swap_ensemble(b.clone());
                assert_eq!(generation, 1);
                assert!(Arc::ptr_eq(swapping.ensemble(), &b));
                assert_eq!(
                    swapping.buffered(is),
                    w,
                    "swap must preserve the warm-up ring"
                );
            }
            on_a.tick(&mut oa);
            on_b.tick(&mut ob);
            swapping.tick(&mut os);
            // The swap never costs a tick: every tick with a fresh, warm
            // stream emits a score…
            if t >= w - 1 {
                assert_eq!(os.len(), 1, "missing score at t={t}");
                // …bit-equal to the never-swapped fleet of whichever
                // model is serving: the old model up to and including the
                // swap tick's predecessor — the swap lands *between*
                // ticks — and the new model from the swap tick on.
                let reference = if t < swap_at { oa[0].1 } else { ob[0].1 };
                assert_eq!(os[0].1, reference, "t={t}");
            }
        }
        assert_eq!(swapping.swap_count(), 1);
    }

    #[test]
    fn post_swap_scores_are_bit_identical_to_a_fresh_load_of_the_checkpoint() {
        let a = fitted_ensemble();
        let b = fitted_ensemble_seed(77);
        let w = a.model_config().window;

        // Checkpoint the replacement and load it back — the swap target
        // and the fresh load must be indistinguishable in every bit.
        let path = std::env::temp_dir().join(format!(
            "cae_serve_swap_roundtrip_{}.caee",
            std::process::id()
        ));
        b.save(&path).expect("checkpoint write");
        let loaded = Arc::new(CaeEnsemble::load(&path).expect("checkpoint read"));
        let _ = std::fs::remove_file(&path);

        let mut veteran = FleetDetector::new(a.clone());
        let vid = veteran.add_stream();
        let mut out = Vec::new();
        // Serve under the old model past warm-up, then hot-swap.
        for t in 0..w + 5 {
            veteran.push(vid, &[wave(t, 0.9)]).unwrap();
            veteran.tick(&mut out);
        }
        veteran.swap_ensemble(b.clone());

        // A cold fleet started from the freshly loaded checkpoint, fed
        // exactly the observations sitting in the veteran's ring.
        let mut fresh = FleetDetector::new(loaded);
        let fid = fresh.add_stream();
        let mut fresh_out = Vec::new();
        for t in w + 5..2 * w + 5 {
            let obs = [wave(t, 0.9)];
            veteran.push(vid, &obs).unwrap();
            veteran.tick(&mut out);
            fresh.push(fid, &obs).unwrap();
            fresh.tick(&mut fresh_out);
            if t >= w + 5 + w - 1 {
                // Both rings now hold the same w observations.
                assert_eq!(out[0].1, fresh_out[0].1, "t={t}");
            } else {
                assert_eq!(out.len(), 1, "veteran ring stays warm across swap");
            }
        }
    }

    #[test]
    fn sessions_and_generation_tags_survive_the_swap() {
        let a = fitted_ensemble();
        let b = fitted_ensemble_seed(55);
        let mut fleet = FleetDetector::new(a.clone());
        let keep = fleet.add_stream();
        let drop = fleet.add_stream();
        fleet.push(keep, &[0.4]).unwrap();
        fleet.push(drop, &[0.4]).unwrap();
        fleet.remove_stream(drop);
        fleet.swap_ensemble(b.clone());
        // Live session: buffered progress intact, slot still addressable.
        assert_eq!(fleet.buffered(keep), 1);
        assert_eq!(fleet.num_streams(), 1);
        // Stale session: still rejected after the swap.
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fleet.buffered(drop);
        }));
        assert!(
            panicked.is_err(),
            "stale id must stay rejected across swaps"
        );
    }

    #[test]
    fn repeated_swaps_keep_counting() {
        let a = fitted_ensemble();
        let b = fitted_ensemble_seed(31);
        let mut fleet = FleetDetector::new(a.clone());
        for i in 1..=4u64 {
            let next = if i % 2 == 0 { a.clone() } else { b.clone() };
            assert_eq!(fleet.swap_ensemble(next), i);
        }
        assert_eq!(fleet.swap_count(), 4);
        assert_eq!(fleet.model_generation(), 4);
        assert!(Arc::ptr_eq(fleet.ensemble(), &a));
    }

    #[test]
    #[should_panic(expected = "swap_ensemble window")]
    fn swap_rejects_mismatched_window() {
        let a = fitted_ensemble();
        let series = TimeSeries::univariate((0..200).map(|t| wave(t, 0.0)).collect());
        let mut other = CaeEnsemble::new(
            CaeConfig::new(1).embed_dim(8).window(16).layers(1),
            EnsembleConfig::new()
                .num_models(1)
                .epochs_per_model(1)
                .batch_size(16)
                .train_stride(2)
                .seed(9),
        );
        other.fit(&series);
        FleetDetector::new(a.clone()).swap_ensemble(other);
    }

    #[test]
    #[should_panic(expected = "requires a fitted ensemble")]
    fn swap_rejects_unfitted_ensemble() {
        let a = fitted_ensemble();
        let unfitted = CaeEnsemble::new(
            CaeConfig::new(1).embed_dim(8).window(8).layers(1),
            EnsembleConfig::new(),
        );
        FleetDetector::new(a.clone()).swap_ensemble(unfitted);
    }

    // ------------------------------------------------------------------
    // Stream health & graceful degradation
    // ------------------------------------------------------------------

    #[test]
    fn non_finite_observations_never_reach_the_ring_or_the_scores() {
        let ens = fitted_ensemble();
        let w = ens.model_config().window;
        let mut fleet = FleetDetector::new(ens.clone());
        let id = fleet.add_stream();
        let mut out = Vec::new();
        for t in 0..w {
            fleet.push(id, &[wave(t, 0.0)]).unwrap();
        }
        fleet.tick(&mut out); // drain the clean warm-up window
        assert_eq!(out.len(), 1);
        assert_eq!(fleet.push(id, &[f32::NAN]), Ok(PushOutcome::Discarded));
        assert_eq!(fleet.buffered(id), w, "NaN must not enter the ring");
        fleet.tick(&mut out);
        // The NaN did not set `fresh`; the stale window is not re-scored.
        assert!(out.is_empty(), "a discarded observation must not score");
        assert_eq!(fleet.push(id, &[f32::INFINITY]), Ok(PushOutcome::Discarded));
        assert_eq!(fleet.stream_health(id), StreamHealth::Suspect);
        let report = fleet.health_report();
        assert_eq!(report.faulty_observations, 2);
        assert_eq!(report.streams_suspect, 1);
        assert!(report.degraded());
    }

    #[test]
    fn one_clean_observation_clears_suspicion() {
        let ens = fitted_ensemble();
        let mut fleet = FleetDetector::new(ens.clone());
        let id = fleet.add_stream();
        fleet.push(id, &[f32::NAN]).unwrap();
        fleet.push(id, &[f32::NAN]).unwrap();
        assert_eq!(fleet.stream_health(id), StreamHealth::Suspect);
        fleet.push(id, &[0.5]).unwrap();
        assert_eq!(fleet.stream_health(id), StreamHealth::Healthy);
    }

    #[test]
    fn sustained_faults_quarantine_and_clean_input_recovers_on_schedule() {
        let ens = fitted_ensemble();
        let w = ens.model_config().window;
        let mut fleet = FleetDetector::new(ens.clone());
        let cfg = fleet.health_config();
        let id = fleet.add_stream();
        let mut out = Vec::new();

        // Warm up clean, then storm until quarantined.
        for t in 0..w {
            fleet.push(id, &[wave(t, 0.0)]).unwrap();
        }
        for _ in 0..cfg.quarantine_after {
            fleet.push(id, &[f32::NAN]).unwrap();
        }
        assert_eq!(fleet.stream_health(id), StreamHealth::Quarantined);
        assert_eq!(fleet.buffered(id), 0, "quarantine clears the ring");
        let report = fleet.health_report();
        assert_eq!(report.quarantine_events, 1);
        assert_eq!(report.streams_quarantined, 1);

        // Clean input returns the stream to scoring after exactly
        // `recovery_pushes(w)` observations — the pinned latency.
        let budget = cfg.recovery_pushes(w);
        for k in 0..budget {
            assert!(fleet.buffered(id) < w, "early score at push {k}");
            fleet.push(id, &[wave(k, 0.3)]).unwrap();
        }
        assert_eq!(fleet.stream_health(id), StreamHealth::Healthy);
        fleet.tick(&mut out);
        assert_eq!(out.len(), 1, "recovered stream scores again");
        assert!(out[0].1.is_finite());
        assert_eq!(fleet.health_report().recoveries, 1);
    }

    #[test]
    fn recovered_stream_scores_bit_exactly_like_an_always_clean_one() {
        // After recovery the ring holds only post-fault observations, so
        // the recovered stream must score bit-identically to a clean
        // stream fed the same suffix.
        let ens = fitted_ensemble();
        let w = ens.model_config().window;
        let mut faulty = FleetDetector::new(ens.clone());
        let mut clean = FleetDetector::new(ens.clone());
        let fid = faulty.add_stream();
        let cid = clean.add_stream();
        let cfg = faulty.health_config();
        let (mut fo, mut co) = (Vec::new(), Vec::new());

        let mut t = 0usize;
        for _ in 0..w {
            faulty.push(fid, &[wave(t, 0.7)]).unwrap();
            clean.push(cid, &[wave(t, 0.7)]).unwrap();
            t += 1;
        }
        // Fault window hits only the faulty fleet; the clean fleet sees
        // the true signal throughout.
        for _ in 0..cfg.quarantine_after + 2 {
            faulty.push(fid, &[f32::NAN]).unwrap();
            clean.push(cid, &[wave(t, 0.7)]).unwrap();
            t += 1;
        }
        // Shared clean tail long enough for both rings to hold the same
        // w observations.
        for k in 0..cfg.recovery_pushes(w) + 3 {
            faulty.push(fid, &[wave(t, 0.7)]).unwrap();
            clean.push(cid, &[wave(t, 0.7)]).unwrap();
            t += 1;
            faulty.tick(&mut fo);
            clean.tick(&mut co);
            if k >= cfg.recovery_pushes(w) - 1 {
                assert_eq!(fo.len(), 1, "k={k}");
                assert_eq!(fo[0].1, co[0].1, "k={k}: scores must be bit-equal");
            }
        }
    }

    #[test]
    fn flat_lined_sensor_is_quarantined_and_live_signal_recovers_it() {
        let ens = fitted_ensemble();
        let w = ens.model_config().window;
        // Tight thresholds keep the test short.
        let cfg = HealthConfig::default()
            .flatline_after(4)
            .suspect_after(1)
            .quarantine_after(3)
            .probe_after(2);
        let mut fleet = FleetDetector::with_health(ens.clone(), cfg);
        let id = fleet.add_stream();
        // A frozen sensor: the same bit pattern forever.
        for _ in 0..cfg.flatline_after + cfg.quarantine_after {
            fleet.push(id, &[0.625]).unwrap();
        }
        assert_eq!(fleet.stream_health(id), StreamHealth::Quarantined);
        // The signal comes back alive.
        for k in 0..cfg.recovery_pushes(w) {
            fleet.push(id, &[wave(k, 0.2)]).unwrap();
        }
        assert_eq!(fleet.stream_health(id), StreamHealth::Healthy);
    }

    #[test]
    fn tick_budget_sheds_excess_load_and_rotates_fairly() {
        let ens = fitted_ensemble();
        let w = ens.model_config().window;
        let mut fleet = FleetDetector::new(ens.clone());
        let ids: Vec<StreamId> = (0..6).map(|_| fleet.add_stream()).collect();
        fleet.set_tick_budget(4);
        assert_eq!(fleet.tick_budget(), 4);
        let mut out = Vec::new();
        for t in 0..w {
            for (k, &id) in ids.iter().enumerate() {
                fleet.push(id, &[wave(t, k as f32)]).unwrap();
            }
        }
        fleet.tick(&mut out);
        // Only 4 of 6 ready streams fit the budget; the first tick serves
        // slots 0..4 and sheds 4, 5.
        let scored: Vec<StreamId> = out.iter().map(|&(id, _)| id).collect();
        assert_eq!(scored, ids[..4], "first tick serves the slot prefix");
        assert_eq!(fleet.health_report().shed_windows, 2);
        // The shed streams stayed fresh: the next tick starts at the
        // first shed slot and serves them without a new push.
        fleet.tick(&mut out);
        let scored: Vec<StreamId> = out.iter().map(|&(id, _)| id).collect();
        assert_eq!(scored, ids[4..], "second tick resumes at the shed point");
        fleet.tick(&mut out);
        assert!(out.is_empty(), "no stream left fresh");
    }

    #[test]
    fn deadline_failpoint_sheds_the_tick_deterministically() {
        let _guard = chaos::exclusive();
        let ens = fitted_ensemble();
        let w = ens.model_config().window;
        let mut fleet = FleetDetector::new(ens.clone());
        let ids: Vec<StreamId> = (0..3).map(|_| fleet.add_stream()).collect();
        let mut out = Vec::new();
        for t in 0..w {
            for (k, &id) in ids.iter().enumerate() {
                fleet.push(id, &[wave(t, k as f32)]).unwrap();
            }
        }
        // First tick blows its deadline with budget for one window.
        chaos::sites::SERVE_TICK_DEADLINE.arm(chaos::Schedule::nth(0).payload(1));
        fleet.tick(&mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(fleet.health_report().shed_windows, 2);
        // The deadline recovers; the deferred streams drain next tick.
        fleet.tick(&mut out);
        assert_eq!(out.len(), 2);
    }
}
