//! Segmented write-ahead journal of fleet observations.
//!
//! A fleet snapshot (`cae-serve`) is a point-in-time artifact; everything
//! that arrives after it would be lost to a crash. This module closes
//! that gap with a classic write-ahead log: every observation (and every
//! stream open/close/tick, so replay preserves the fleet's exact batch
//! boundaries) is appended to an on-disk journal **before** it is applied
//! to the in-memory fleet. Recovery is then
//! `restore(snapshot) + replay(journal after snapshot position)` — and
//! because the serving tier is deterministic, the recovered fleet's
//! scores are bit-exact with a process that never died.
//!
//! ## On-disk layout
//!
//! The journal is a directory of append-only **segments** named
//! `seg-00000000.caej`, `seg-00000001.caej`, … — rotation is size-based
//! ([`JournalConfig::segment_bytes`]). Each segment starts with a
//! 16-byte header:
//!
//! ```text
//! magic    4 bytes  b"CAEJ"
//! version  u32      format version (currently 1)
//! index    u64      the segment's own index (self-describing files)
//! ```
//!
//! followed by checksummed **frames**, one per record:
//!
//! ```text
//! len      u32      body length in bytes
//! body     len      kind u8, then the kind's fields (see below)
//! checksum u64      FNV-1a 64 over the body
//! ```
//!
//! Record bodies (all integers little-endian, floats as exact IEEE-754
//! little-endian bytes):
//!
//! | kind | record | fields |
//! |------|--------|--------|
//! | 1 | `Observation`  | slot u64, generation u64, dim u64, values f32×dim |
//! | 2 | `StreamOpened` | slot u64, generation u64 |
//! | 3 | `StreamClosed` | slot u64, generation u64 |
//! | 4 | `Tick`         | — |
//!
//! ## Crash discipline
//!
//! Appends go through `write_all` on an append-positioned handle; a crash
//! mid-append leaves a prefix of the frame — a **torn tail**. On
//! [`ObservationJournal::open`] the final segment is scanned and
//! physically truncated back to its last complete frame; every earlier
//! segment was sealed by a successful rotation, so any malformation there
//! is real corruption and surfaces as a typed [`JournalError`] instead of
//! being silently dropped. Durability is tunable:
//! [`JournalConfig::fsync_every`] syncs after every n-th append (0 leaves
//! flushing to the OS; rotation and [`ObservationJournal::sync`] always
//! sync).
//!
//! Fault-injection: the `journal.append` failpoint tears or aborts a
//! frame append, `journal.fsync` fails the durability barrier — both on
//! the same deterministic [`cae_chaos::Schedule`]s as every other site.

// Journal writes and replay must not panic: clippy's restriction lints
// ban the panicking shortcuts in this module (test code is exempt
// through `clippy.toml`).
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
use cae_obs::{Counter, CounterCell, Histogram, MetricsRegistry, ObsClock};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// First bytes of every journal segment.
pub const JOURNAL_MAGIC: [u8; 4] = *b"CAEJ";

/// The journal format version this build writes (and the newest it
/// reads).
pub const JOURNAL_VERSION: u32 = 1;

/// Segment header: magic, version, segment index.
const HEADER_LEN: u64 = 4 + 4 + 8;

/// Upper bound on one frame's body — a corrupt length prefix must not
/// drive the reader into a huge allocation.
const MAX_FRAME_BODY: u32 = 1 << 24;

/// FNV-1a 64 over `bytes` — the integrity checksum every framed
/// artifact trails with: each journal frame here, and the checkpoint,
/// fleet snapshot and adaptation state through its re-export as
/// `cae_core::persist::wire::fnv1a` (the data layer sits below
/// `cae-core`, so the one implementation lives here).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The injected I/O failure a tripped journal failpoint surfaces.
fn injected_io(site: &str, stage: &str) -> JournalError {
    JournalError::Io(io::Error::other(format!(
        "chaos: injected fault at `{site}` ({stage})"
    )))
}

/// Why the journal could not be written, opened or replayed.
#[derive(Debug)]
pub enum JournalError {
    /// The underlying filesystem operation failed.
    Io(io::Error),
    /// A segment does not start with [`JOURNAL_MAGIC`].
    BadMagic {
        /// Index of the offending segment.
        segment: u64,
    },
    /// A segment was written by a newer format than this build reads.
    UnsupportedVersion(u32),
    /// A sealed segment (or a replay position) is structurally invalid:
    /// short frame, checksum mismatch, invalid record tag, …
    Corrupt {
        /// Index of the offending segment.
        segment: u64,
        /// Byte offset of the offending frame within the segment.
        offset: u64,
        /// What was malformed.
        why: String,
    },
    /// The segment sequence has a hole — a sealed segment is missing.
    SegmentGap {
        /// The index the contiguous sequence required next.
        expected: u64,
        /// The index actually found.
        found: u64,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::BadMagic { segment } => {
                write!(
                    f,
                    "journal segment {segment} is not a journal file (bad magic)"
                )
            }
            JournalError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "journal format v{v} is newer than supported v{JOURNAL_VERSION}"
                )
            }
            JournalError::Corrupt {
                segment,
                offset,
                why,
            } => {
                write!(
                    f,
                    "corrupt journal segment {segment} at offset {offset}: {why}"
                )
            }
            JournalError::SegmentGap { expected, found } => {
                write!(
                    f,
                    "journal segment sequence has a gap: expected segment {expected}, found {found}"
                )
            }
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for JournalError {
    fn from(e: io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// One durable event in the fleet's input order.
///
/// `Observation` carries the raw sensor reading; the stream lifecycle and
/// tick records exist because bit-exact replay must reproduce not just
/// *what* the fleet saw but *when* the fleet's state machine advanced —
/// tick boundaries decide batch shapes and freshness, and slot
/// open/close order decides id assignment.
#[derive(Clone, Debug, PartialEq)]
pub enum JournalRecord {
    /// One raw observation pushed to the stream at `(slot, generation)`.
    Observation {
        /// Slot index of the receiving stream.
        slot: u64,
        /// Generation tag of the receiving stream.
        generation: u64,
        /// The raw observation values (length = stream dimensionality).
        values: Vec<f32>,
    },
    /// A stream was added; replay must mint the same `(slot, generation)`.
    StreamOpened {
        /// Slot index the fleet assigned.
        slot: u64,
        /// Generation tag the fleet assigned.
        generation: u64,
    },
    /// A stream was removed.
    StreamClosed {
        /// Slot index of the removed stream.
        slot: u64,
        /// Generation tag of the removed stream.
        generation: u64,
    },
    /// A fleet tick ran (scores drained, freshness cleared).
    Tick,
}

impl JournalRecord {
    /// Encodes the record as one complete frame (length prefix + body +
    /// checksum).
    fn encode(&self) -> Vec<u8> {
        let mut body = Vec::new();
        match self {
            JournalRecord::Observation {
                slot,
                generation,
                values,
            } => {
                body.push(1);
                body.extend_from_slice(&slot.to_le_bytes());
                body.extend_from_slice(&generation.to_le_bytes());
                body.extend_from_slice(&(values.len() as u64).to_le_bytes());
                for v in values {
                    body.extend_from_slice(&v.to_le_bytes());
                }
            }
            JournalRecord::StreamOpened { slot, generation } => {
                body.push(2);
                body.extend_from_slice(&slot.to_le_bytes());
                body.extend_from_slice(&generation.to_le_bytes());
            }
            JournalRecord::StreamClosed { slot, generation } => {
                body.push(3);
                body.extend_from_slice(&slot.to_le_bytes());
                body.extend_from_slice(&generation.to_le_bytes());
            }
            JournalRecord::Tick => body.push(4),
        }
        let mut frame = Vec::with_capacity(4 + body.len() + 8);
        frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
        frame.extend_from_slice(&body);
        frame.extend_from_slice(&fnv1a(&body).to_le_bytes());
        frame
    }

    /// Decodes one frame body. `context` feeds the typed error.
    fn decode_body(
        body: &[u8],
        context: impl Fn(String) -> JournalError,
    ) -> Result<Self, JournalError> {
        let take_u64 = |at: usize, what: &str| -> Result<u64, JournalError> {
            body.get(at..at + 8)
                .and_then(|b| <[u8; 8]>::try_from(b).ok())
                .map(u64::from_le_bytes)
                .ok_or_else(|| context(format!("truncated {what}")))
        };
        let exact_len = |need: usize| -> Result<(), JournalError> {
            if body.len() != need {
                return Err(context(format!(
                    "record body is {} bytes, expected {need}",
                    body.len()
                )));
            }
            Ok(())
        };
        match body.first() {
            Some(1) => {
                let slot = take_u64(1, "observation slot")?;
                let generation = take_u64(9, "observation generation")?;
                let dim = take_u64(17, "observation dim")?;
                let dim = usize::try_from(dim)
                    .ok()
                    .filter(|&d| d >= 1 && d <= (MAX_FRAME_BODY as usize) / 4)
                    .ok_or_else(|| context(format!("implausible observation dim {dim}")))?;
                exact_len(25 + dim * 4)?;
                let values = body[25..]
                    .chunks_exact(4)
                    .map(|c| {
                        <[u8; 4]>::try_from(c)
                            .map(f32::from_le_bytes)
                            .map_err(|_| context("short f32 chunk".to_string()))
                    })
                    .collect::<Result<Vec<f32>, JournalError>>()?;
                Ok(JournalRecord::Observation {
                    slot,
                    generation,
                    values,
                })
            }
            Some(2) => {
                exact_len(17)?;
                Ok(JournalRecord::StreamOpened {
                    slot: take_u64(1, "slot")?,
                    generation: take_u64(9, "generation")?,
                })
            }
            Some(3) => {
                exact_len(17)?;
                Ok(JournalRecord::StreamClosed {
                    slot: take_u64(1, "slot")?,
                    generation: take_u64(9, "generation")?,
                })
            }
            Some(4) => {
                exact_len(1)?;
                Ok(JournalRecord::Tick)
            }
            Some(tag) => Err(context(format!("invalid record tag {tag}"))),
            None => Err(context("empty record body".to_string())),
        }
    }
}

/// Durability and rotation policy of an [`ObservationJournal`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JournalConfig {
    /// Rotate to a new segment once the active one would exceed this many
    /// bytes (a single frame larger than the bound still lands whole —
    /// frames never split across segments).
    pub segment_bytes: u64,
    /// Sync to disk after every n-th append. `0` leaves flushing to the
    /// OS page cache — cheapest, loses the tail on power failure but not
    /// on process crash. Rotation and [`ObservationJournal::sync`] always
    /// sync regardless.
    pub fsync_every: u64,
}

impl Default for JournalConfig {
    fn default() -> Self {
        JournalConfig {
            segment_bytes: 1 << 20,
            fsync_every: 0,
        }
    }
}

impl JournalConfig {
    /// The default policy: 1 MiB segments, OS-buffered appends.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the segment rotation threshold in bytes.
    pub fn segment_bytes(mut self, bytes: u64) -> Self {
        assert!(bytes > HEADER_LEN, "segment bound must exceed the header");
        self.segment_bytes = bytes;
        self
    }

    /// Sets the fsync cadence (0 = OS-buffered).
    pub fn fsync_every(mut self, appends: u64) -> Self {
        self.fsync_every = appends;
        self
    }
}

/// A durable cursor into the journal: `(segment, byte offset)` of a frame
/// boundary. A fleet snapshot stores the position taken at snapshot time
/// so recovery replays exactly the records that post-date it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct JournalPosition {
    /// Segment index.
    pub segment: u64,
    /// Byte offset within the segment (frame boundary or segment end).
    pub offset: u64,
}

impl JournalPosition {
    /// The position before the very first record of a fresh journal.
    pub const fn origin() -> Self {
        JournalPosition {
            segment: 0,
            offset: HEADER_LEN,
        }
    }
}

/// One scanned segment: its records (with their starting offsets), the
/// byte length of the valid prefix, and — when the scan stopped early —
/// why.
struct SegmentScan {
    records: Vec<(u64, JournalRecord)>,
    valid_len: u64,
    /// `Some(description)` when bytes past `valid_len` do not form a
    /// complete valid frame (a torn tail, or corruption if the segment
    /// was sealed).
    tail: Option<String>,
}

fn segment_file_name(index: u64) -> String {
    format!("seg-{index:08}.caej")
}

fn corrupt(segment: u64, offset: u64, why: impl Into<String>) -> JournalError {
    JournalError::Corrupt {
        segment,
        offset,
        why: why.into(),
    }
}

/// Validates a segment's header and scans its frames. Never fails on a
/// malformed *tail* — that is reported through [`SegmentScan::tail`] so
/// the caller can decide between truncation (final segment) and a typed
/// error (sealed segment). Header-level malformations always fail typed.
/// Reads a little-endian u32 at `at`, `None` past the end: the
/// panic-free replacement for `try_into().expect(…)` — if the caller's
/// bounds reasoning ever rots, a torn read stays a typed decode outcome
/// instead of a panic on corrupt input.
fn read_u32_at(b: &[u8], at: usize) -> Option<u32> {
    let s = b.get(at..at.checked_add(4)?)?;
    let mut a = [0u8; 4];
    a.copy_from_slice(s);
    Some(u32::from_le_bytes(a))
}

/// Reads a little-endian u64 at `at`, `None` past the end.
fn read_u64_at(b: &[u8], at: usize) -> Option<u64> {
    let s = b.get(at..at.checked_add(8)?)?;
    let mut a = [0u8; 8];
    a.copy_from_slice(s);
    Some(u64::from_le_bytes(a))
}

fn scan_segment(bytes: &[u8], expect_index: u64) -> Result<SegmentScan, JournalError> {
    if bytes.len() < HEADER_LEN as usize {
        return Err(corrupt(
            expect_index,
            0,
            format!("segment shorter than its {HEADER_LEN}-byte header"),
        ));
    }
    if bytes[..4] != JOURNAL_MAGIC {
        return Err(JournalError::BadMagic {
            segment: expect_index,
        });
    }
    let version = read_u32_at(bytes, 4)
        .ok_or_else(|| corrupt(expect_index, 4, "short version field".to_string()))?;
    if version > JOURNAL_VERSION {
        return Err(JournalError::UnsupportedVersion(version));
    }
    let stored_index = read_u64_at(bytes, 8)
        .ok_or_else(|| corrupt(expect_index, 8, "short index field".to_string()))?;
    if stored_index != expect_index {
        return Err(corrupt(
            expect_index,
            8,
            format!("segment header claims index {stored_index}"),
        ));
    }

    let mut records = Vec::new();
    let mut pos = HEADER_LEN as usize;
    loop {
        if pos == bytes.len() {
            return Ok(SegmentScan {
                records,
                valid_len: pos as u64,
                tail: None,
            });
        }
        let stop = |why: String| SegmentScan {
            valid_len: pos as u64,
            tail: Some(why),
            records: Vec::new(), // placeholder, replaced below
        };
        let Some(len) = read_u32_at(bytes, pos) else {
            let mut s = stop("torn frame length prefix".to_string());
            s.records = records;
            return Ok(s);
        };
        if len == 0 || len > MAX_FRAME_BODY {
            let mut s = stop(format!("implausible frame length {len}"));
            s.records = records;
            return Ok(s);
        }
        let body_at = pos + 4;
        let sum_at = body_at + len as usize;
        let Some(body) = bytes.get(body_at..sum_at) else {
            let mut s = stop("torn frame body".to_string());
            s.records = records;
            return Ok(s);
        };
        let Some(stored) = read_u64_at(bytes, sum_at) else {
            let mut s = stop("torn frame checksum".to_string());
            s.records = records;
            return Ok(s);
        };
        if fnv1a(body) != stored {
            let mut s = stop("frame checksum mismatch".to_string());
            s.records = records;
            return Ok(s);
        }
        let frame_at = pos as u64;
        match JournalRecord::decode_body(body, |why| corrupt(expect_index, frame_at, why)) {
            Ok(record) => records.push((frame_at, record)),
            Err(JournalError::Corrupt { why, .. }) => {
                let mut s = stop(why);
                s.records = records;
                return Ok(s);
            }
            Err(e) => return Err(e),
        }
        pos = sum_at + 8;
    }
}

/// Telemetry handles of the durability tier; no-ops (one relaxed load
/// per site) until [`ObservationJournal::attach_observability`] re-homes
/// them into a live registry.
#[derive(Clone, Debug)]
struct JournalObs {
    clock: ObsClock,
    append_latency_ns: Histogram,
    fsync_latency_ns: Histogram,
    rotation_latency_ns: Histogram,
    appends: Counter,
    append_failures: Counter,
    fsyncs: Counter,
    fsync_failures: Counter,
    rotations: Counter,
}

impl JournalObs {
    fn new(registry: &MetricsRegistry) -> Self {
        JournalObs {
            clock: ObsClock::monotonic(),
            append_latency_ns: registry.histogram("journal_append_latency_ns"),
            fsync_latency_ns: registry.histogram("journal_fsync_latency_ns"),
            rotation_latency_ns: registry.histogram("journal_rotation_latency_ns"),
            appends: registry.counter("journal_appends_total"),
            append_failures: registry.counter("journal_append_failures_total"),
            fsyncs: registry.counter("journal_fsyncs_total"),
            fsync_failures: registry.counter("journal_fsync_failures_total"),
            rotations: registry.counter("journal_rotations_total"),
        }
    }
}

/// The append side of the write-ahead journal. See the module docs for
/// the format and crash discipline.
#[derive(Debug)]
pub struct ObservationJournal {
    dir: PathBuf,
    cfg: JournalConfig,
    file: File,
    /// Index of the active (last) segment.
    segment: u64,
    /// Index of the oldest segment on disk.
    first_segment: u64,
    /// Byte length of the active segment's valid contents.
    offset: u64,
    appends_since_sync: u64,
    /// Torn-tail recoveries performed at open (0 or 1): the journal's own
    /// record, which a registry links.
    torn_tail_recoveries: CounterCell,
    /// Bytes discarded from the final segment's torn tail at open.
    torn_tail_bytes: CounterCell,
    /// Set when a failed append may have left a torn tail; all further
    /// appends are refused until a re-open truncates back to a frame
    /// boundary.
    poisoned: bool,
    /// Telemetry handles; no-ops unless a registry was attached.
    obs: JournalObs,
}

impl ObservationJournal {
    /// Opens (or creates) the journal in `dir`, recovering from any
    /// crash: sealed segments are validated, the final segment's torn
    /// tail — if any — is physically truncated back to its last complete
    /// frame, and appending resumes there.
    pub fn open(dir: impl AsRef<Path>, cfg: JournalConfig) -> Result<Self, JournalError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;

        let mut indices: Vec<u64> = Vec::new();
        for entry in std::fs::read_dir(&dir)? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(num) = name
                .strip_prefix("seg-")
                .and_then(|rest| rest.strip_suffix(".caej"))
            {
                if let Ok(index) = num.parse::<u64>() {
                    indices.push(index);
                }
            }
        }
        indices.sort_unstable();
        for pair in indices.windows(2) {
            if pair[1] != pair[0] + 1 {
                return Err(JournalError::SegmentGap {
                    expected: pair[0] + 1,
                    found: pair[1],
                });
            }
        }

        let Some((&last, sealed)) = indices.split_last() else {
            // Fresh journal: create segment 0.
            let (file, offset) = Self::create_segment(&dir, 0)?;
            return Ok(Self::resume(dir, cfg, file, 0, 0, offset, 0));
        };
        let first = indices[0];

        // Sealed segments must be fully valid: they were synced before
        // rotation, so a malformed tail there is corruption, not a torn
        // append.
        for &index in sealed {
            let bytes = std::fs::read(dir.join(segment_file_name(index)))?;
            let scan = scan_segment(&bytes, index)?;
            if let Some(why) = scan.tail {
                return Err(corrupt(
                    index,
                    scan.valid_len,
                    format!("sealed segment has an invalid tail: {why}"),
                ));
            }
        }

        // The final segment absorbs the crash: a header too short to
        // validate means the crash hit rotation mid-header — drop the
        // file and resume in the previous (sealed, fully valid) segment.
        let last_path = dir.join(segment_file_name(last));
        let bytes = std::fs::read(&last_path)?;
        let len = bytes.len() as u64;
        if len < HEADER_LEN && last > first {
            std::fs::remove_file(&last_path)?;
            let active = last - 1;
            let path = dir.join(segment_file_name(active));
            let mut file = OpenOptions::new().read(true).write(true).open(&path)?;
            let offset = file.seek(SeekFrom::End(0))?;
            return Ok(Self::resume(dir, cfg, file, active, first, offset, len));
        }
        if len < HEADER_LEN {
            // Torn creation of the only segment: start it over.
            std::fs::remove_file(&last_path)?;
            let (file, offset) = Self::create_segment(&dir, last)?;
            return Ok(Self::resume(dir, cfg, file, last, first, offset, len));
        }
        let valid = scan_segment(&bytes, last)?.valid_len;
        let mut file = OpenOptions::new().read(true).write(true).open(&last_path)?;
        if len > valid {
            file.set_len(valid)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(valid))?;
        let torn = len - valid;
        Ok(Self::resume(dir, cfg, file, last, first, valid, torn))
    }

    /// A journal appending to `file` (segment `segment`, at `offset`) after
    /// an open that discarded `torn` bytes of torn tail.
    fn resume(
        dir: PathBuf,
        cfg: JournalConfig,
        file: File,
        segment: u64,
        first_segment: u64,
        offset: u64,
        torn: u64,
    ) -> Self {
        let (torn_tail_recoveries, torn_tail_bytes) =
            (CounterCell::default(), CounterCell::default());
        if torn > 0 {
            torn_tail_recoveries.inc();
            torn_tail_bytes.add(torn);
        }
        ObservationJournal {
            dir,
            cfg,
            file,
            segment,
            first_segment,
            offset,
            appends_since_sync: 0,
            torn_tail_recoveries,
            torn_tail_bytes,
            poisoned: false,
            obs: JournalObs::new(&MetricsRegistry::disabled()),
        }
    }

    fn create_segment(dir: &Path, index: u64) -> Result<(File, u64), JournalError> {
        let path = dir.join(segment_file_name(index));
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        let mut header = Vec::with_capacity(HEADER_LEN as usize);
        header.extend_from_slice(&JOURNAL_MAGIC);
        header.extend_from_slice(&JOURNAL_VERSION.to_le_bytes());
        header.extend_from_slice(&index.to_le_bytes());
        file.write_all(&header)?;
        Ok((file, HEADER_LEN))
    }

    /// The journal directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The current end of the journal — the position the *next* appended
    /// record will occupy. Store this in a snapshot to replay only what
    /// post-dates it.
    pub fn position(&self) -> JournalPosition {
        JournalPosition {
            segment: self.segment,
            offset: self.offset,
        }
    }

    /// Bytes of torn tail discarded when this journal was opened (0 for
    /// a clean open).
    pub fn truncated_bytes(&self) -> u64 {
        self.torn_tail_bytes.get()
    }

    /// Publishes this journal's telemetry into `registry` under
    /// `journal_*` names: append/fsync/rotation latency histograms plus
    /// outcome counters. The registry links the journal's torn-tail
    /// record, so a registry attached any time after
    /// [`ObservationJournal::open`] sees the crash recovery that open
    /// performed. Without an attach every site costs one relaxed load.
    pub fn attach_observability(&mut self, registry: &MetricsRegistry) {
        self.obs = JournalObs::new(registry);
        registry.link_counter(
            "journal_torn_tail_recoveries_total",
            self.torn_tail_recoveries.clone(),
        );
        registry.link_counter(
            "journal_torn_tail_bytes_total",
            self.torn_tail_bytes.clone(),
        );
    }

    /// Appends one record, rotating segments as the size policy demands,
    /// and returns the position the record landed at.
    ///
    /// Fault-injection: a `journal.append` trip with payload `Some(k)`
    /// tears the frame after `k` bytes (the torn tail a crash mid-write
    /// leaves), `None` fails before any byte lands. After a torn append
    /// the journal is *poisoned* — further appends are refused with an
    /// I/O error until [`ObservationJournal::open`] truncates the tail —
    /// because appending after an unknown partial write would corrupt the
    /// log mid-sequence.
    pub fn append(&mut self, record: &JournalRecord) -> Result<JournalPosition, JournalError> {
        let _timer = self.obs.append_latency_ns.start(&self.obs.clock);
        if self.poisoned {
            self.obs.append_failures.inc();
            return Err(JournalError::Io(io::Error::other(
                "journal poisoned by an earlier failed append; re-open to recover",
            )));
        }
        let frame = record.encode();
        if self.offset + frame.len() as u64 > self.cfg.segment_bytes && self.offset > HEADER_LEN {
            self.rotate()?;
        }
        if let Some(payload) = chaos::sites::JOURNAL_APPEND.fire() {
            self.poisoned = true;
            if let Some(k) = payload {
                let torn = (k as usize).min(frame.len());
                let _ = self.file.write_all(&frame[..torn]);
            }
            self.obs.append_failures.inc();
            return Err(injected_io("journal.append", "frame append"));
        }
        let at = self.position();
        if let Err(e) = self.file.write_all(&frame) {
            // An unknown number of bytes may have landed.
            self.poisoned = true;
            self.obs.append_failures.inc();
            return Err(JournalError::Io(e));
        }
        self.offset += frame.len() as u64;
        self.appends_since_sync += 1;
        if self.cfg.fsync_every > 0 && self.appends_since_sync >= self.cfg.fsync_every {
            self.sync()?;
        }
        self.obs.appends.inc();
        Ok(at)
    }

    /// Forces the active segment to disk (the durability barrier the
    /// fsync cadence applies periodically).
    pub fn sync(&mut self) -> Result<(), JournalError> {
        let _timer = self.obs.fsync_latency_ns.start(&self.obs.clock);
        if chaos::sites::JOURNAL_FSYNC.fire().is_some() {
            self.obs.fsync_failures.inc();
            return Err(injected_io("journal.fsync", "segment sync"));
        }
        self.file.sync_data()?;
        self.appends_since_sync = 0;
        self.obs.fsyncs.inc();
        Ok(())
    }

    /// Seals the active segment (final sync) and starts the next one.
    fn rotate(&mut self) -> Result<(), JournalError> {
        let _timer = self.obs.rotation_latency_ns.start(&self.obs.clock);
        self.sync()?;
        let next = self.segment + 1;
        let (file, offset) = Self::create_segment(&self.dir, next)?;
        self.file = file;
        self.segment = next;
        self.offset = offset;
        self.obs.rotations.inc();
        Ok(())
    }

    /// Reads every record at or after `from` (a position previously
    /// returned by [`ObservationJournal::append`] /
    /// [`ObservationJournal::position`], or
    /// [`JournalPosition::origin`]) in append order. Positions that do
    /// not land on a frame boundary surface as typed corruption.
    pub fn replay_from(&self, from: JournalPosition) -> Result<Vec<JournalRecord>, JournalError> {
        if from.segment < self.first_segment || from.segment > self.segment {
            return Err(corrupt(
                from.segment,
                from.offset,
                format!(
                    "replay position names segment {} outside [{}, {}]",
                    from.segment, self.first_segment, self.segment
                ),
            ));
        }
        let mut out = Vec::new();
        for index in from.segment..=self.segment {
            let bytes = std::fs::read(self.dir.join(segment_file_name(index)))?;
            let scan = scan_segment(&bytes, index)?;
            if let Some(why) = scan.tail {
                return Err(corrupt(
                    index,
                    scan.valid_len,
                    format!("invalid tail during replay: {why}"),
                ));
            }
            if index == from.segment {
                if from.offset != scan.valid_len
                    && !scan.records.iter().any(|(at, _)| *at == from.offset)
                {
                    return Err(corrupt(
                        index,
                        from.offset,
                        "replay position is not a frame boundary",
                    ));
                }
                out.extend(
                    scan.records
                        .into_iter()
                        .filter(|(at, _)| *at >= from.offset)
                        .map(|(_, r)| r),
                );
            } else {
                out.extend(scan.records.into_iter().map(|(_, r)| r));
            }
        }
        Ok(out)
    }
}
