//! Durable fleet state: snapshot format v1 and journal replay.
//!
//! PR 7 made the fleet survive *in-process* faults; a process crash still
//! erased every session's warm-up ring and health machine, so a restarted
//! fleet mis-scored for `w` pushes per stream. This module closes the
//! gap with the classic snapshot + write-ahead-log pair:
//!
//! * [`FleetSnapshot`] — **format v1**, built on the same wire machinery
//!   as the ensemble checkpoint ([`cae_core::persist::wire`]): magic
//!   `b"CAEF"`, version, little-endian fields, trailing FNV-1a 64
//!   checksum, atomic temp+rename writes, typed errors. It captures the
//!   fleet's *entire* mutable serving state — every slot's generation,
//!   ring, freshness and health machine, the free list, the shed cursor,
//!   the lifetime counters — plus two optional sections: the journal
//!   position at snapshot time and an opaque adaptation-state blob
//!   (`cae-adapt`'s drift monitor + reservoir, encoded by that crate).
//! * [`FleetDetector::restore`] — rebuilds a fleet from a snapshot over a
//!   loaded ensemble, validating shape compatibility with typed errors.
//! * [`FleetDetector::replay_journal`] — re-applies [`JournalRecord`]s
//!   through the *normal* push/tick path, so the recovered fleet's state
//!   machine advances exactly as the original did.
//!
//! ## Snapshot format v1
//!
//! ```text
//! magic     4 bytes  b"CAEF"
//! version   u32      format version (currently 1)
//! shape     window u64, dim u64
//! fleet     model_generation, next_generation, tick_budget, scan_from,
//!           quarantine_events, recoveries, faulty_observations,
//!           shed_windows, suppressed_scores — all u64
//! health    suspect_after, quarantine_after, flatline_after,
//!           probe_after — all u32
//! free      u64 count; slot indices u64×count
//! slots     u64 count; per slot: generation u64, active u8, head u64,
//!           filled u64, fresh u8, health-state tag u8,
//!           consecutive_faults u32, flat_run u32, probe_goods u32,
//!           has_prev u8, prev f32×dim, ring f32×(window·dim)
//! journal   u8 present flag; if 1: segment u64, offset u64
//! adapt     u8 present flag; if 1: u64 length, opaque bytes
//! checksum  u64      FNV-1a 64 over every preceding byte
//! ```
//!
//! ## The recovery-parity guarantee
//!
//! Serving is deterministic: identical batch shapes dispatch identical
//! kernels, so identical (snapshot, journal suffix) pairs reconverge on
//! identical state. Concretely, for a fleet journaling every event:
//!
//! ```text
//! restore(snapshot) + replay(journal after snapshot.journal_position)
//!     ≡ the never-killed fleet, bit for bit
//! ```
//!
//! — every future score, every health transition, every counter. The
//! workspace `restart_recovery` test sweeps this over 100+ seeded kill
//! points; `snapshot_crash` proves a crash at any byte offset of a
//! snapshot write leaves the previous snapshot loadable.
//!
//! Fault-injection: [`FleetSnapshot::save`] goes through the same
//! dual-evaluation atomic write as the checkpoint, on the
//! `snapshot.write` failpoint.

use crate::{FleetDetector, HealthConfig, StreamHealth, StreamId, StreamSlot, ENSEMBLE_SWAPS};
use cae_chaos as chaos;
use cae_core::persist::wire::{self, Reader, Writer};
use cae_core::{CaeEnsemble, PersistError};
use cae_data::journal::{JournalPosition, JournalRecord};
use cae_obs::CounterCell;
use std::fmt;
use std::path::Path;
use std::sync::Arc;

/// First bytes of every fleet snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"CAEF";

/// The snapshot format version this build writes (and the newest it
/// reads).
pub const SNAPSHOT_VERSION: u32 = 1;

/// Sanity bound on structural dimensions read from a snapshot — a
/// corrupt-but-checksum-valid count must not drive restore into an
/// absurd allocation (same policy as the checkpoint reader).
const MAX_REASONABLE: usize = 1 << 20;

/// A point-in-time capture of a [`FleetDetector`]'s full mutable serving
/// state (model parameters excluded — those live in the ensemble
/// checkpoint). See the [module docs](self) for the format.
#[derive(Clone)]
pub struct FleetSnapshot {
    window: usize,
    dim: usize,
    /// The fleet's lifetime counts, indexed as [`crate::COUNTER_NAMES`].
    counters: [u64; 6],
    next_generation: u64,
    tick_budget: usize,
    scan_from: usize,
    health: HealthConfig,
    free: Vec<usize>,
    slots: Vec<StreamSlot>,
    journal_position: Option<JournalPosition>,
    adaptation_state: Option<Vec<u8>>,
}

impl fmt::Debug for FleetSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FleetSnapshot")
            .field("window", &self.window)
            .field("dim", &self.dim)
            .field("model_generation", &self.model_generation())
            .field("slots", &self.slots.len())
            .field("journal_position", &self.journal_position)
            .field(
                "adaptation_state_bytes",
                &self.adaptation_state.as_ref().map(Vec::len),
            )
            .finish_non_exhaustive()
    }
}

/// Why a snapshot could not be applied to an ensemble.
#[derive(Debug)]
pub enum RestoreError {
    /// The snapshot file itself could not be read or decoded.
    Persist(PersistError),
    /// The ensemble's window size disagrees with the snapshotted rings.
    WindowMismatch {
        /// Window size recorded in the snapshot.
        snapshot: usize,
        /// Window size of the ensemble being restored onto.
        ensemble: usize,
    },
    /// The ensemble's observation dimensionality disagrees with the
    /// snapshotted rings.
    DimMismatch {
        /// Dimensionality recorded in the snapshot.
        snapshot: usize,
        /// Dimensionality of the ensemble being restored onto.
        ensemble: usize,
    },
    /// The ensemble has no fitted members.
    UnfittedEnsemble,
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::Persist(e) => write!(f, "snapshot unreadable: {e}"),
            RestoreError::WindowMismatch { snapshot, ensemble } => write!(
                f,
                "snapshot window {snapshot} != ensemble window {ensemble}"
            ),
            RestoreError::DimMismatch { snapshot, ensemble } => {
                write!(f, "snapshot dim {snapshot} != ensemble dim {ensemble}")
            }
            RestoreError::UnfittedEnsemble => {
                write!(f, "restore requires a fitted ensemble")
            }
        }
    }
}

impl std::error::Error for RestoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RestoreError::Persist(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PersistError> for RestoreError {
    fn from(e: PersistError) -> Self {
        RestoreError::Persist(e)
    }
}

/// Why journal replay had to stop: the journal and the snapshot do not
/// describe the same history. (Push-level faults — dim mismatches,
/// unknown ids the original fleet also rejected — are *replayed*, not
/// errors: they reproduce the original fault accounting.)
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplayError {
    /// A `StreamOpened` record replayed, but the fleet minted a different
    /// id than the journal recorded — the snapshot predates a different
    /// session history than this journal continues.
    OpenDiverged {
        /// `(slot, generation)` the journal recorded.
        expected: (u64, u64),
        /// `(slot, generation)` the restored fleet minted.
        minted: (u64, u64),
    },
    /// A `StreamClosed` record names a stream that is not live in the
    /// restored fleet.
    CloseUnknown {
        /// Slot index the record named.
        slot: u64,
        /// Generation tag the record named.
        generation: u64,
    },
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::OpenDiverged { expected, minted } => write!(
                f,
                "journal/snapshot divergence: StreamOpened expected {expected:?}, fleet minted {minted:?}"
            ),
            ReplayError::CloseUnknown { slot, generation } => write!(
                f,
                "journal/snapshot divergence: StreamClosed names dead stream ({slot}, {generation})"
            ),
        }
    }
}

impl std::error::Error for ReplayError {}

/// What a journal replay applied, for recovery diagnostics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplaySummary {
    /// Total records applied.
    pub records: u64,
    /// Observations re-pushed.
    pub observations: u64,
    /// Streams re-opened.
    pub opened: u64,
    /// Streams re-closed.
    pub closed: u64,
    /// Ticks re-run.
    pub ticks: u64,
    /// Observations the fleet rejected or discarded during replay —
    /// faithful reproductions of the original faults, not replay errors.
    pub push_faults: u64,
}

fn health_tag(state: StreamHealth) -> u8 {
    match state {
        StreamHealth::Healthy => 0,
        StreamHealth::Suspect => 1,
        StreamHealth::Quarantined => 2,
        StreamHealth::Recovering => 3,
    }
}

fn health_from_tag(tag: u8) -> Result<StreamHealth, PersistError> {
    match tag {
        0 => Ok(StreamHealth::Healthy),
        1 => Ok(StreamHealth::Suspect),
        2 => Ok(StreamHealth::Quarantined),
        3 => Ok(StreamHealth::Recovering),
        _ => Err(PersistError::Corrupt(format!(
            "invalid stream-health tag {tag}"
        ))),
    }
}

impl FleetSnapshot {
    /// Records the journal position taken at snapshot time, so recovery
    /// replays exactly the records that post-date this snapshot.
    pub fn with_journal_position(mut self, position: JournalPosition) -> Self {
        self.journal_position = Some(position);
        self
    }

    /// Attaches the adaptation tier's exported state
    /// (`AdaptationState::encode` in `cae-adapt`) as an opaque section —
    /// the serving tier never interprets it.
    pub fn with_adaptation_state(mut self, bytes: Vec<u8>) -> Self {
        self.adaptation_state = Some(bytes);
        self
    }

    /// The journal position recorded at snapshot time, if any.
    pub fn journal_position(&self) -> Option<JournalPosition> {
        self.journal_position
    }

    /// The opaque adaptation-state section, if one was attached.
    pub fn adaptation_state(&self) -> Option<&[u8]> {
        self.adaptation_state.as_deref()
    }

    /// Window size `w` the snapshotted rings were built for.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Observation dimensionality `D` the snapshotted rings were built
    /// for.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Model generation the fleet was serving when snapshotted.
    pub fn model_generation(&self) -> u64 {
        self.counters[ENSEMBLE_SWAPS]
    }

    /// Live stream sessions captured in this snapshot.
    pub fn num_streams(&self) -> usize {
        self.slots.iter().filter(|s| s.active).count()
    }

    /// Serializes the snapshot into format-v1 bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::framed(SNAPSHOT_MAGIC, SNAPSHOT_VERSION);
        w.usize(self.window);
        w.usize(self.dim);
        w.u64(self.counters[ENSEMBLE_SWAPS]);
        w.u64(self.next_generation);
        w.usize(self.tick_budget);
        w.usize(self.scan_from);
        for &count in &self.counters[..ENSEMBLE_SWAPS] {
            w.u64(count);
        }
        w.u32(self.health.suspect_after);
        w.u32(self.health.quarantine_after);
        w.u32(self.health.flatline_after);
        w.u32(self.health.probe_after);
        w.usize(self.free.len());
        for &i in &self.free {
            w.usize(i);
        }
        w.usize(self.slots.len());
        for s in &self.slots {
            w.u64(s.generation);
            w.bool(s.active);
            w.usize(s.head);
            w.usize(s.filled);
            w.bool(s.fresh);
            w.u8(health_tag(s.state));
            w.u32(s.consecutive_faults);
            w.u32(s.flat_run);
            w.u32(s.probe_goods);
            w.bool(s.has_prev);
            w.f32_slice(&s.prev);
            w.f32_slice(&s.ring);
        }
        match self.journal_position {
            Some(pos) => {
                w.bool(true);
                w.u64(pos.segment);
                w.u64(pos.offset);
            }
            None => w.bool(false),
        }
        match &self.adaptation_state {
            Some(bytes) => {
                w.bool(true);
                w.usize(bytes.len());
                w.raw(bytes);
            }
            None => w.bool(false),
        }
        w.finish()
    }

    /// Parses format-v1 bytes back into a snapshot. Every malformed
    /// input — truncation, flipped bytes, wrong magic, a future version,
    /// inconsistent structure — surfaces as a typed [`PersistError`].
    pub fn decode(bytes: &[u8]) -> Result<Self, PersistError> {
        let (_version, mut c) = Reader::framed(bytes, SNAPSHOT_MAGIC, SNAPSHOT_VERSION)?;
        let window = c.usize("window")?;
        let dim = c.usize("dim")?;
        for (v, what) in [(window, "window"), (dim, "dim")] {
            if v == 0 || v > MAX_REASONABLE {
                return Err(PersistError::Corrupt(format!(
                    "{what} value {v} outside the plausible range [1, {MAX_REASONABLE}]"
                )));
            }
        }
        let swaps = c.u64("model generation")?;
        let next_generation = c.u64("next generation")?;
        let tick_budget = c.usize("tick budget")?;
        let scan_from = c.usize("scan cursor")?;
        let counters = [
            c.u64("quarantine events")?,
            c.u64("recoveries")?,
            c.u64("faulty observations")?,
            c.u64("shed windows")?,
            c.u64("suppressed scores")?,
            swaps,
        ];
        let health = HealthConfig {
            suspect_after: c.u32("suspect threshold")?,
            quarantine_after: c.u32("quarantine threshold")?,
            flatline_after: c.u32("flatline threshold")?,
            probe_after: c.u32("probe threshold")?,
        };
        if health.suspect_after < 1 || health.probe_after < 1 {
            return Err(PersistError::Corrupt(
                "health thresholds must be at least 1".to_string(),
            ));
        }
        if health.quarantine_after < health.suspect_after {
            return Err(PersistError::Corrupt(format!(
                "quarantine_after {} < suspect_after {}",
                health.quarantine_after, health.suspect_after
            )));
        }
        let free_len = c.usize("free-list length")?;
        if free_len > MAX_REASONABLE {
            return Err(PersistError::Corrupt(format!(
                "free-list length {free_len} outside the plausible range"
            )));
        }
        let mut free = Vec::with_capacity(free_len.min(c.remaining() / 8));
        for _ in 0..free_len {
            free.push(c.usize("free slot index")?);
        }
        let num_slots = c.usize("slot count")?;
        if num_slots > MAX_REASONABLE {
            return Err(PersistError::Corrupt(format!(
                "slot count {num_slots} outside the plausible range"
            )));
        }
        let mut slots = Vec::with_capacity(num_slots.min(c.remaining() / 8));
        for i in 0..num_slots {
            let generation = c.u64("slot generation")?;
            let active = c.bool("slot active")?;
            let head = c.usize("slot head")?;
            let filled = c.usize("slot filled")?;
            let fresh = c.bool("slot fresh")?;
            let state = health_from_tag(c.u8("slot health tag")?)?;
            let consecutive_faults = c.u32("slot fault run")?;
            let flat_run = c.u32("slot flat run")?;
            let probe_goods = c.u32("slot probe count")?;
            let has_prev = c.bool("slot has-prev")?;
            let prev = c.f32_vec(dim, "slot prev observation")?;
            let ring = c.f32_vec(window * dim, "slot ring")?;
            if head >= window {
                return Err(PersistError::Corrupt(format!(
                    "slot {i}: head {head} outside window {window}"
                )));
            }
            if filled > window {
                return Err(PersistError::Corrupt(format!(
                    "slot {i}: filled {filled} exceeds window {window}"
                )));
            }
            slots.push(StreamSlot {
                generation,
                active,
                ring,
                head,
                filled,
                fresh,
                state,
                consecutive_faults,
                flat_run,
                probe_goods,
                prev,
                has_prev,
            });
        }
        let mut seen = vec![false; slots.len()];
        for &i in &free {
            if i >= slots.len() {
                return Err(PersistError::Corrupt(format!(
                    "free list names slot {i} of {}",
                    slots.len()
                )));
            }
            if slots[i].active {
                return Err(PersistError::Corrupt(format!(
                    "free list names active slot {i}"
                )));
            }
            if std::mem::replace(&mut seen[i], true) {
                return Err(PersistError::Corrupt(format!(
                    "free list names slot {i} twice"
                )));
            }
        }
        let journal_position = if c.bool("journal-position present")? {
            Some(JournalPosition {
                segment: c.u64("journal segment")?,
                offset: c.u64("journal offset")?,
            })
        } else {
            None
        };
        let adaptation_state = if c.bool("adaptation-state present")? {
            let len = c.usize("adaptation-state length")?;
            Some(c.bytes(len, "adaptation-state bytes")?.to_vec())
        } else {
            None
        };
        if c.remaining() != 0 {
            return Err(PersistError::Corrupt(format!(
                "{} trailing bytes after the adaptation section",
                c.remaining()
            )));
        }
        Ok(FleetSnapshot {
            window,
            dim,
            counters,
            next_generation,
            tick_budget,
            scan_from,
            health,
            free,
            slots,
            journal_position,
            adaptation_state,
        })
    }

    /// Writes the snapshot to `path` (format v1) through the atomic
    /// temp+rename discipline.
    ///
    /// Fault-injection: the `snapshot.write` failpoint is evaluated
    /// twice per save, exactly like the checkpoint's `persist.write` —
    /// tear or abort the temp write, or crash pre-rename. In every
    /// injected outcome the snapshot previously at `path` is untouched.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), PersistError> {
        wire::write_atomic(path.as_ref(), &self.encode(), &chaos::sites::SNAPSHOT_WRITE)
    }

    /// Reads a snapshot from `path`.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, PersistError> {
        Self::decode(&std::fs::read(path.as_ref())?)
    }
}

impl FleetDetector {
    /// Captures the fleet's full mutable serving state. Pair with the
    /// journal position taken in the same quiet moment
    /// ([`FleetSnapshot::with_journal_position`]) so recovery knows where
    /// replay starts.
    pub fn snapshot(&self) -> FleetSnapshot {
        FleetSnapshot {
            window: self.window,
            dim: self.dim,
            counters: self.counters.each_ref().map(CounterCell::get),
            next_generation: self.next_generation,
            tick_budget: self.tick_budget,
            scan_from: self.scan_from,
            health: self.health_cfg,
            free: self.free.clone(),
            slots: self.slots.clone(),
            journal_position: None,
            adaptation_state: None,
        }
    }

    /// Rebuilds a fleet from a snapshot over a (typically freshly
    /// [loaded](CaeEnsemble::load)) ensemble.
    ///
    /// The restored fleet is bit-identical to the snapshotted one in
    /// every way that affects future behavior: stream ids, warm-up
    /// rings, health machines, the shed cursor, counters. Restoring onto
    /// an ensemble whose window/dimensionality disagree with the
    /// snapshotted rings is a typed [`RestoreError`], never a panic —
    /// the snapshot came from a file.
    pub fn restore(
        ensemble: impl Into<Arc<CaeEnsemble>>,
        snapshot: &FleetSnapshot,
    ) -> Result<FleetDetector, RestoreError> {
        let ensemble = ensemble.into();
        if ensemble.num_members() == 0 {
            return Err(RestoreError::UnfittedEnsemble);
        }
        let window = ensemble.model_config().window;
        let dim = ensemble.model_config().dim;
        if snapshot.window != window {
            return Err(RestoreError::WindowMismatch {
                snapshot: snapshot.window,
                ensemble: window,
            });
        }
        if snapshot.dim != dim {
            return Err(RestoreError::DimMismatch {
                snapshot: snapshot.dim,
                ensemble: dim,
            });
        }
        // Decode validated the health thresholds, so this cannot panic.
        let mut fleet = FleetDetector::with_health(ensemble, snapshot.health);
        fleet.slots = snapshot.slots.clone();
        fleet.free = snapshot.free.clone();
        fleet.next_generation = snapshot.next_generation;
        fleet.active = snapshot.slots.iter().filter(|s| s.active).count();
        fleet.tick_budget = snapshot.tick_budget;
        fleet.scan_from = snapshot.scan_from;
        for (cell, &count) in fleet.counters.iter().zip(&snapshot.counters) {
            cell.set(count);
        }
        Ok(fleet)
    }

    /// Re-applies journaled records through the normal push/tick path,
    /// discarding replayed scores. See
    /// [`FleetDetector::replay_journal_with`] to observe them (e.g. to
    /// re-feed an adaptation controller).
    pub fn replay_journal<'a>(
        &mut self,
        records: impl IntoIterator<Item = &'a JournalRecord>,
    ) -> Result<ReplaySummary, ReplayError> {
        self.replay_journal_with(records, |_, _| {})
    }

    /// Re-applies journaled records, invoking `on_score` for every
    /// `(id, score)` a replayed tick emits — exactly the scores the
    /// original fleet produced after the snapshot, so downstream
    /// consumers (drift monitors, alerting dedup) can be caught up too.
    ///
    /// Records replay through the *normal* serving path: faulty
    /// observations re-drive the health machine, rejected pushes
    /// reproduce the original typed errors (counted in
    /// [`ReplaySummary::push_faults`], not fatal). Only genuine
    /// snapshot/journal divergence — an id minted differently than
    /// recorded, a close of a dead stream — aborts with a typed
    /// [`ReplayError`].
    pub fn replay_journal_with<'a, F>(
        &mut self,
        records: impl IntoIterator<Item = &'a JournalRecord>,
        mut on_score: F,
    ) -> Result<ReplaySummary, ReplayError>
    where
        F: FnMut(StreamId, f32),
    {
        let mut summary = ReplaySummary::default();
        let mut scores: Vec<(StreamId, f32)> = Vec::new();
        for record in records {
            summary.records += 1;
            match record {
                JournalRecord::Observation {
                    slot,
                    generation,
                    values,
                } => {
                    summary.observations += 1;
                    let id = StreamId::from_raw_parts(*slot, *generation);
                    match self.push(id, values) {
                        Ok(crate::PushOutcome::Stored) => {}
                        Ok(crate::PushOutcome::Discarded) | Err(_) => {
                            summary.push_faults += 1;
                        }
                    }
                }
                JournalRecord::StreamOpened { slot, generation } => {
                    summary.opened += 1;
                    let minted = self.add_stream();
                    if minted.raw_parts() != (*slot, *generation) {
                        return Err(ReplayError::OpenDiverged {
                            expected: (*slot, *generation),
                            minted: minted.raw_parts(),
                        });
                    }
                }
                JournalRecord::StreamClosed { slot, generation } => {
                    summary.closed += 1;
                    let live = self
                        .slots
                        .get(*slot as usize)
                        .is_some_and(|s| s.active && s.generation == *generation);
                    if !live {
                        return Err(ReplayError::CloseUnknown {
                            slot: *slot,
                            generation: *generation,
                        });
                    }
                    self.remove_stream(StreamId::from_raw_parts(*slot, *generation));
                }
                JournalRecord::Tick => {
                    summary.ticks += 1;
                    self.tick(&mut scores);
                    for &(id, score) in &scores {
                        on_score(id, score);
                    }
                }
            }
        }
        Ok(summary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{fitted_ensemble, wave};
    use cae_core::{CaeConfig, EnsembleConfig};
    use cae_data::{Detector, TimeSeries};

    /// A fleet with non-trivial state: three opened streams, one closed
    /// (free-list entry + retired generation), partial warm-ups, one
    /// stream pushed NaNs so the health machine has left `Healthy`.
    fn busy_fleet(ens: &Arc<CaeEnsemble>) -> (FleetDetector, Vec<StreamId>) {
        let mut fleet = FleetDetector::new(ens.clone());
        let a = fleet.add_stream();
        let b = fleet.add_stream();
        let c = fleet.add_stream();
        let mut out = Vec::new();
        for t in 0..20 {
            fleet.push(a, &[wave(t, 0.0)]).unwrap();
            fleet.push(b, &[wave(t, 1.3)]).unwrap();
            if t < 9 {
                fleet.push(c, &[wave(t, 2.1)]).unwrap();
            } else {
                let _ = fleet.push(c, &[f32::NAN]);
            }
            fleet.tick(&mut out);
        }
        fleet.remove_stream(b);
        let d = fleet.add_stream();
        fleet.push(d, &[wave(0, 0.7)]).unwrap();
        fleet.tick(&mut out);
        (fleet, vec![a, c, d])
    }

    fn drive(fleet: &mut FleetDetector, ids: &[StreamId], steps: usize) -> Vec<(StreamId, f32)> {
        let mut all = Vec::new();
        let mut out = Vec::new();
        for t in 0..steps {
            for (k, &id) in ids.iter().enumerate() {
                let _ = fleet.push(id, &[wave(100 + t, k as f32 * 0.9)]);
            }
            fleet.tick(&mut out);
            all.extend(out.iter().copied());
        }
        all
    }

    #[test]
    fn snapshot_roundtrip_is_bit_exact() {
        let ens = fitted_ensemble();
        let (fleet, _) = busy_fleet(&ens);
        let snap = fleet
            .snapshot()
            .with_journal_position(JournalPosition {
                segment: 3,
                offset: 1234,
            })
            .with_adaptation_state(vec![7, 7, 7]);
        let bytes = snap.encode();
        let back = FleetSnapshot::decode(&bytes).unwrap();
        assert_eq!(back.encode(), bytes, "decode→encode must be bit-identical");
        assert_eq!(
            back.journal_position(),
            Some(JournalPosition {
                segment: 3,
                offset: 1234
            })
        );
        assert_eq!(back.adaptation_state(), Some(&[7u8, 7, 7][..]));
        assert_eq!(back.num_streams(), 3);
    }

    #[test]
    fn restored_fleet_matches_original_bit_for_bit() {
        let ens = fitted_ensemble();
        let (mut live, ids) = busy_fleet(&ens);
        let snap = live.snapshot();
        let mut restored = FleetDetector::restore(ens.clone(), &snap).unwrap();
        assert_eq!(restored.num_streams(), live.num_streams());
        let live_scores = drive(&mut live, &ids, 30);
        let restored_scores = drive(&mut restored, &ids, 30);
        assert_eq!(live_scores.len(), restored_scores.len());
        for (l, r) in live_scores.iter().zip(&restored_scores) {
            assert_eq!(l.0, r.0);
            assert_eq!(
                l.1.to_bits(),
                r.1.to_bits(),
                "scores diverged: {} vs {}",
                l.1,
                r.1
            );
        }
        assert_eq!(live.health_report(), restored.health_report());
    }

    /// The fleet's counters as `registry` exports them, indexed as
    /// [`crate::COUNTER_NAMES`]; a name it does not export reads `u64::MAX`,
    /// which no fleet count equals.
    fn exported(registry: &cae_obs::MetricsRegistry) -> [u64; 6] {
        let snapshot = registry.snapshot();
        crate::COUNTER_NAMES.map(|name| {
            snapshot
                .counters
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(u64::MAX, |&(_, v)| v)
        })
    }

    /// The same counts as the health report and swap count give them.
    fn reported(fleet: &FleetDetector) -> [u64; 6] {
        let r = fleet.health_report();
        [
            r.quarantine_events,
            r.recoveries,
            r.faulty_observations,
            r.shed_windows,
            r.suppressed_scores,
            fleet.swap_count(),
        ]
    }

    /// [`busy_fleet`] driven on through a recovery, load shedding and one
    /// hot swap, so every counter but `suppressed_scores` is non-zero.
    fn faulted_fleet(ens: &Arc<CaeEnsemble>) -> (FleetDetector, Vec<StreamId>) {
        let (mut fleet, ids) = busy_fleet(ens);
        fleet.set_tick_budget(1);
        drive(&mut fleet, &ids, 30);
        fleet.swap_ensemble(ens.clone());
        let [quarantines, recoveries, faulty, shed, _, swaps] = reported(&fleet);
        assert!(quarantines > 0 && recoveries > 0 && faulty > 0 && shed > 0 && swaps == 1);
        (fleet, ids)
    }

    #[test]
    fn registry_attached_after_faults_exports_the_health_report() {
        let ens = fitted_ensemble();
        let (mut fleet, ids) = faulted_fleet(&ens);
        let registry = cae_obs::MetricsRegistry::new();
        fleet.attach_observability(&registry);
        assert_eq!(exported(&registry), reported(&fleet));
        let _ = fleet.push(ids[0], &[f32::NAN]);
        drive(&mut fleet, &ids, 5);
        assert_eq!(exported(&registry), reported(&fleet), "after more faults");
    }

    #[test]
    fn restored_fleet_exports_the_snapshotted_counts() {
        let ens = fitted_ensemble();
        let (mut live, ids) = faulted_fleet(&ens);
        let mut restored = FleetDetector::restore(ens.clone(), &live.snapshot()).unwrap();
        let registry = cae_obs::MetricsRegistry::new();
        restored.attach_observability(&registry);
        assert_eq!(exported(&registry), reported(&live));
        drive(&mut live, &ids, 12);
        drive(&mut restored, &ids, 12);
        assert_eq!(exported(&registry), reported(&live));
        assert_eq!(reported(&restored), reported(&live));
    }

    #[test]
    fn fleets_sharing_a_registry_export_their_sum() {
        let ens = fitted_ensemble();
        let registry = cae_obs::MetricsRegistry::new();
        let mut first =
            FleetDetector::with_observability(ens.clone(), HealthConfig::default(), &registry);
        let id = first.add_stream();
        for _ in 0..8 {
            let _ = first.push(id, &[f32::NAN]);
        }
        let (mut second, _) = faulted_fleet(&ens);
        second.attach_observability(&registry);
        second.attach_observability(&registry);
        let (a, b) = (reported(&first), reported(&second));
        assert!(a[0] > 0 && a[2] > 0, "the first fleet counted faults too");
        let sum: Vec<u64> = a.iter().zip(b).map(|(x, y)| x + y).collect();
        assert_eq!(exported(&registry).to_vec(), sum);
    }

    #[test]
    fn save_load_roundtrip_on_disk() {
        let ens = fitted_ensemble();
        let (fleet, _) = busy_fleet(&ens);
        let path =
            std::env::temp_dir().join(format!("cae_fleet_snap_rt_{}.caef", std::process::id()));
        let snap = fleet.snapshot();
        snap.save(&path).unwrap();
        let back = FleetSnapshot::load(&path).unwrap();
        assert_eq!(back.encode(), snap.encode());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn decode_rejects_malformed_inputs_with_typed_errors() {
        let ens = fitted_ensemble();
        let (fleet, _) = busy_fleet(&ens);
        let bytes = fleet.snapshot().encode();

        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert!(matches!(
            FleetSnapshot::decode(&wrong_magic),
            Err(PersistError::BadMagic)
        ));

        let mut future = bytes.clone();
        future[4] = 99;
        assert!(matches!(
            FleetSnapshot::decode(&future),
            Err(PersistError::UnsupportedVersion(99))
        ));

        let mut flipped = bytes.clone();
        let mid = bytes.len() / 2;
        flipped[mid] ^= 0x40;
        assert!(matches!(
            FleetSnapshot::decode(&flipped),
            Err(PersistError::ChecksumMismatch)
        ));

        // Truncation at every prefix length: typed error, never a panic.
        for len in 0..bytes.len() {
            assert!(
                FleetSnapshot::decode(&bytes[..len]).is_err(),
                "prefix of {len} bytes decoded successfully"
            );
        }
    }

    #[test]
    fn restore_rejects_shape_mismatch() {
        let ens = fitted_ensemble();
        let (fleet, _) = busy_fleet(&ens);
        let snap = fleet.snapshot();

        let series = TimeSeries::univariate((0..200).map(|t| wave(t, 0.0)).collect());
        let mc = CaeConfig::new(1).embed_dim(8).window(12).layers(1);
        let ec = EnsembleConfig::new()
            .num_models(1)
            .epochs_per_model(1)
            .batch_size(16)
            .seed(5);
        let mut other = CaeEnsemble::new(mc, ec);
        other.fit(&series);
        assert!(matches!(
            FleetDetector::restore(other, &snap),
            Err(RestoreError::WindowMismatch {
                snapshot: 8,
                ensemble: 12
            })
        ));

        let unfitted = CaeEnsemble::new(
            CaeConfig::new(1).embed_dim(8).window(8).layers(1),
            EnsembleConfig::new().num_models(1),
        );
        assert!(matches!(
            FleetDetector::restore(unfitted, &snap),
            Err(RestoreError::UnfittedEnsemble)
        ));
    }

    #[test]
    fn replay_reconverges_with_live_fleet() {
        let ens = fitted_ensemble();

        // Live fleet: runs uninterrupted, journaling every event.
        let mut live = FleetDetector::new(ens.clone());
        let mut journal: Vec<JournalRecord> = Vec::new();
        let open = |fleet: &mut FleetDetector, journal: &mut Vec<JournalRecord>| {
            let id = fleet.add_stream();
            let (slot, generation) = id.raw_parts();
            journal.push(JournalRecord::StreamOpened { slot, generation });
            id
        };
        let a = open(&mut live, &mut journal);
        let b = open(&mut live, &mut journal);

        // Snapshot point: before any post-snapshot traffic.
        let snap = live.snapshot();
        let snap_mark = journal.len();

        let mut out = Vec::new();
        let mut live_scores = Vec::new();
        for t in 0..40 {
            for (k, &id) in [a, b].iter().enumerate() {
                let (slot, generation) = id.raw_parts();
                let v = if t == 25 && k == 1 {
                    f32::NAN
                } else {
                    wave(t, k as f32)
                };
                journal.push(JournalRecord::Observation {
                    slot,
                    generation,
                    values: vec![v],
                });
                let _ = live.push(id, &[v]);
            }
            if t == 30 {
                let (slot, generation) = b.raw_parts();
                journal.push(JournalRecord::StreamClosed { slot, generation });
                live.remove_stream(b);
            }
            journal.push(JournalRecord::Tick);
            live.tick(&mut out);
            live_scores.extend(out.iter().copied());
        }

        // Crash + recover: restore the snapshot, replay the suffix.
        let mut recovered = FleetDetector::restore(ens.clone(), &snap).unwrap();
        let mut replayed_scores = Vec::new();
        let summary = recovered
            .replay_journal_with(&journal[snap_mark..], |id, s| {
                replayed_scores.push((id, s));
            })
            .unwrap();
        assert_eq!(summary.ticks, 40);
        assert_eq!(summary.closed, 1);
        assert!(summary.push_faults > 0, "NaN push should replay as a fault");

        assert_eq!(live_scores.len(), replayed_scores.len());
        for (l, r) in live_scores.iter().zip(&replayed_scores) {
            assert_eq!(l.0, r.0);
            assert_eq!(l.1.to_bits(), r.1.to_bits());
        }
        assert_eq!(live.health_report(), recovered.health_report());

        // And the recovered fleet keeps matching the live one afterwards.
        let live_future = drive(&mut live, &[a], 10);
        let recovered_future = drive(&mut recovered, &[a], 10);
        assert_eq!(live_future, recovered_future);
    }

    #[test]
    fn replay_detects_divergent_history() {
        let ens = fitted_ensemble();
        let mut fleet = FleetDetector::new(ens.clone());
        let records = [JournalRecord::StreamOpened {
            slot: 5,
            generation: 9,
        }];
        assert!(matches!(
            fleet.replay_journal(&records),
            Err(ReplayError::OpenDiverged { .. })
        ));

        let mut fleet = FleetDetector::new(ens);
        let records = [JournalRecord::StreamClosed {
            slot: 0,
            generation: 1,
        }];
        assert!(matches!(
            fleet.replay_journal(&records),
            Err(ReplayError::CloseUnknown {
                slot: 0,
                generation: 1
            })
        ));
    }
}
