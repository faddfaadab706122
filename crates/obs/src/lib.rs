//! `cae-obs`: zero-dependency runtime telemetry for the CAE-Ensemble
//! serving stack.
//!
//! The paper's online setting (continuous scoring with drift-triggered
//! re-fit, Campos et al. §6) only tunes if the runtime can answer
//! questions like "what is p99 tick latency" and "how often does the
//! journal fsync stall" while serving. This crate is that measurement
//! substrate:
//!
//! * [`MetricsRegistry`] — static-str-keyed counters, gauges and
//!   log2-bucketed latency histograms behind cheap cloneable handles.
//!   A disabled registry costs exactly one `Ordering::Relaxed` load per
//!   site, the same discipline as `cae-chaos` failpoints, so
//!   instrumentation can stay compiled into the hot paths.
//! * [`CounterCell`] — a counter a tier owns as its own record and links
//!   into a registry by name, so each count is kept in one place.
//! * [`HealthReport`] — the degradation summary `cae-serve` and
//!   `cae-adapt` fill in and merge: quarantines, load shedding, retries
//!   and fallbacks across the tiers, read from the same records the
//!   registry exports.
//! * [`MetricsSnapshot::to_json`] / [`MetricsSnapshot::to_prometheus`]
//!   — deterministic exporters (stable ordering, pinned by golden
//!   tests).
//! * [`ObsClock`] — the injectable monotonic/mock time source.
//!   `crates/obs/src/clock.rs` is the one wall-clock location cae-lint
//!   H1 sanctions in the serving, scoring and durability crates;
//!   everything else there times itself through it.
//!
//! The serving (`cae-serve`), adaptation (`cae-adapt`), durability
//! (`cae-data::journal`) and kernel (`cae-tensor::obs`) tiers accept a
//! registry at construction and publish into it; see the README's
//! "Observability" section for the metric catalog.

pub mod clock;
pub mod export;
pub mod health;
pub mod registry;

pub use clock::{MockClock, ObsClock};
pub use health::HealthReport;
pub use registry::{
    Counter, CounterCell, Gauge, Histogram, HistogramSnapshot, LatencyTimer, MetricsRegistry,
    MetricsSnapshot, HISTOGRAM_BUCKETS,
};
