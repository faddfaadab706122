//! Time series containers, pre-processing and evaluation datasets.
//!
//! This crate provides the data layer of the reproduction:
//!
//! * [`TimeSeries`] — a multivariate series laid out time-major, so every
//!   sliding window is one contiguous slice;
//! * [`Scaler`] — z-score normalization fit on the training split only
//!   (the paper's pre-processing, Section 3), with a Welford
//!   [`partial_fit`](Scaler::partial_fit) for online adaptation;
//! * [`ObservationReservoir`] / [`DriftMonitor`] — the data-side
//!   primitives of drift-aware re-fitting: a bounded ring of recent raw
//!   observations and a score-EWMA drift statistic;
//! * [`journal`] — the segmented write-ahead observation journal behind
//!   durable fleet state: checksummed per-record frames, size-based
//!   segment rotation, torn-tail truncation on recovery;
//! * [`num_windows`] — the count of sliding windows of size `w` with
//!   stride 1;
//! * [`Dataset`] — a named train/test pair with test-time ground-truth
//!   labels (used exclusively for evaluation, never for training);
//! * [`datasets`] — seeded synthetic generators standing in for the five
//!   real-world datasets of the paper's evaluation (ECG, SMD, MSL, SMAP,
//!   WADI); the module docs give the substitution rationale.
//! * [`csv`] — plain-text I/O so users can run the detectors on their own
//!   data.

pub mod csv;
pub mod datasets;
mod detector;
mod drift;
pub mod journal;
mod scaler;
pub mod scoring;
mod series;
mod window;

pub use datasets::{DatasetKind, Scale};
pub use detector::Detector;
pub use drift::{DriftMonitor, DriftMonitorState, ObservationReservoir, ReservoirState};
pub use journal::{
    JournalConfig, JournalError, JournalPosition, JournalRecord, ObservationJournal,
};
pub use scaler::Scaler;
pub use series::{Dataset, TimeSeries};
pub use window::num_windows;
