//! The lock-free metrics registry: counters, gauges and log2-bucketed
//! latency histograms behind cheap cloneable handles.
//!
//! Hot-path discipline (the same one `cae-chaos` failpoints follow): a
//! **disabled** registry costs exactly one `Ordering::Relaxed` load of
//! the shared enabled flag per site — no branch on data, no lock, no
//! allocation. Enabled sites add one or a handful of Relaxed atomic
//! increments. The `Mutex` in here guards only cold surfaces:
//! registration (once per metric name) and export snapshots.
//!
//! All increments are Relaxed on purpose: every cell is a monotone
//! statistic (or a last-write-wins gauge) that publishes no other
//! memory, which is exactly the contract pinned in cae-lint's
//! `A1_PURE_COUNTERS` allowlist for this file.

use crate::clock::ObsClock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Number of log2 histogram buckets; bucket `b` covers
/// `[2^b, 2^(b+1))`, with bucket 0 also holding zero. 64 buckets cover
/// the full `u64` range, so nanosecond latencies never clip.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// The registry handle. Cloning is cheap (one `Arc`); all clones share
/// the same metrics and the same enabled flag.
#[derive(Clone, Debug)]
pub struct MetricsRegistry {
    shared: Arc<Shared>,
}

#[derive(Debug)]
struct Shared {
    /// The one flag every hot-path site loads (Relaxed) before touching
    /// its cell. Written with Release so a reader that does observe the
    /// flip also observes any registration that preceded it.
    enabled: AtomicBool,
    inner: Mutex<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    /// Every cell exported under a name; the export is their sum. The
    /// first cell is the one a [`Counter`] handle on that name writes.
    counters: BTreeMap<&'static str, Vec<CounterCell>>,
    gauges: BTreeMap<&'static str, GaugeCell>,
    histograms: BTreeMap<&'static str, Arc<HistogramCell>>,
    /// Tier enabled flags (e.g. `cae_tensor::obs::ENABLED`) that follow
    /// this registry's enable/disable transitions.
    flags: Vec<&'static AtomicBool>,
}

/// One monotone counter cell. Clones share the cell.
///
/// A tier keeps its own counts in these (the fleet's fault counters, the
/// journal's torn-tail counters) and [links](MetricsRegistry::link_counter)
/// them into a registry, which reads them at snapshot time instead of
/// counting the same events a second time. A cell is its tier's record,
/// so it counts whatever the registry's enable flag says; only
/// registry-owned [`Counter`] handles are gated. No method allocates.
#[derive(Clone, Debug)]
pub struct CounterCell {
    kind: CellKind,
}

#[derive(Clone, Debug)]
enum CellKind {
    Shared(Arc<AtomicU64>),
    /// A `static` owned by another crate (the cae-tensor dispatch
    /// counters).
    Static(&'static AtomicU64),
}

impl CounterCell {
    fn atomic(&self) -> &AtomicU64 {
        match &self.kind {
            CellKind::Shared(cell) => cell,
            CellKind::Static(cell) => cell,
        }
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        let cell = self.atomic();
        cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrites the count with `v`: for a tier whose record is a plain
    /// struct and is published into its cells whole.
    #[inline]
    pub fn set(&self, v: u64) {
        let cell = self.atomic();
        cell.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.atomic().load(Ordering::Relaxed)
    }
}

impl Default for CounterCell {
    /// A fresh cell at zero.
    fn default() -> CounterCell {
        CounterCell {
            kind: CellKind::Shared(Arc::new(AtomicU64::new(0))),
        }
    }
}

impl From<&'static AtomicU64> for CounterCell {
    fn from(cell: &'static AtomicU64) -> CounterCell {
        CounterCell {
            kind: CellKind::Static(cell),
        }
    }
}

impl MetricsRegistry {
    /// An enabled registry: sites record from the first increment.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::with_enabled(true)
    }

    /// A disabled registry: every site is one Relaxed load and a return.
    /// This is what instrumented constructors default to, so
    /// observability is strictly opt-in on the hot paths.
    pub fn disabled() -> MetricsRegistry {
        MetricsRegistry::with_enabled(false)
    }

    fn with_enabled(enabled: bool) -> MetricsRegistry {
        MetricsRegistry {
            shared: Arc::new(Shared {
                enabled: AtomicBool::new(enabled),
                inner: Mutex::new(Inner::default()),
            }),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.shared.enabled.load(Ordering::Relaxed)
    }

    /// Starts recording. Cells keep whatever they held before.
    pub fn enable(&self) {
        self.set_enabled(true);
    }

    /// Stops recording; sites fall back to the one-load fast path.
    pub fn disable(&self) {
        self.set_enabled(false);
    }

    fn set_enabled(&self, on: bool) {
        self.shared.enabled.store(on, Ordering::Release);
        for flag in &self.inner().flags {
            flag.store(on, Ordering::Release);
        }
    }

    fn inner(&self) -> std::sync::MutexGuard<'_, Inner> {
        // Registration never panics while holding the lock, but a
        // poisoned cold path must not take telemetry down with it.
        self.shared
            .inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers (or re-opens) the counter `name` and returns a handle.
    /// Repeated calls with one name share one cell; on a
    /// [linked](Self::link_counter) name the handle writes the first
    /// linked cell.
    pub fn counter(&self, name: &'static str) -> Counter {
        let cell = self
            .inner()
            .counters
            .entry(name)
            .or_insert_with(|| vec![CounterCell::default()])[0]
            .clone();
        Counter {
            shared: self.shared.clone(),
            cell,
        }
    }

    /// Exports `cell` under `name`. The cell belongs to the tier that
    /// counts into it — a `static` (typically behind its own tier flag;
    /// pair with [`Self::link_flag`]) or a [`CounterCell`] — and the
    /// registry only reads it at snapshot time. Several cells linked
    /// under one name (two fleets on one registry) export their sum;
    /// linking a cell that is already linked there changes nothing.
    pub fn link_counter(&self, name: &'static str, cell: impl Into<CounterCell>) {
        let cell = cell.into();
        let mut inner = self.inner();
        let cells = inner.counters.entry(name).or_default();
        if !cells
            .iter()
            .any(|c| std::ptr::eq(c.atomic(), cell.atomic()))
        {
            cells.push(cell);
        }
    }

    /// Ties a tier enabled flag to this registry: it is set to the
    /// current state immediately and follows every enable/disable.
    pub fn link_flag(&self, flag: &'static AtomicBool) {
        flag.store(self.is_enabled(), Ordering::Release);
        self.inner().flags.push(flag);
    }

    /// Registers (or re-opens) the gauge `name`.
    pub fn gauge(&self, name: &'static str) -> Gauge {
        let cell = self
            .inner()
            .gauges
            .entry(name)
            .or_insert_with(|| GaugeCell::Owned(Arc::new(AtomicU64::new(0.0f64.to_bits()))))
            .clone();
        Gauge {
            shared: self.shared.clone(),
            cell,
        }
    }

    /// Exports the plain-integer `static` `cell` as the gauge `name`;
    /// the registry reads it at snapshot time. Pair with
    /// [`Self::link_flag`] so the owning tier records only while this
    /// registry is enabled.
    pub fn link_gauge(&self, name: &'static str, cell: &'static AtomicU64) {
        self.inner().gauges.insert(name, GaugeCell::Linked(cell));
    }

    /// Registers (or re-opens) the histogram `name`.
    pub fn histogram(&self, name: &'static str) -> Histogram {
        let cell = self
            .inner()
            .histograms
            .entry(name)
            .or_insert_with(|| Arc::new(HistogramCell::new()))
            .clone();
        Histogram {
            shared: self.shared.clone(),
            cell,
        }
    }

    /// A stable point-in-time copy of every registered metric, sorted
    /// by name. Export it with [`MetricsSnapshot::to_json`] /
    /// [`MetricsSnapshot::to_prometheus`].
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner();
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(name, cells)| (*name, cells.iter().map(CounterCell::get).sum()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(name, slot)| (*name, slot.value()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(name, cell)| (*name, cell.snapshot()))
                .collect(),
        }
    }
}

impl Default for MetricsRegistry {
    fn default() -> MetricsRegistry {
        MetricsRegistry::new()
    }
}

/// A monotone event counter owned by the registry.
#[derive(Clone, Debug)]
pub struct Counter {
    shared: Arc<Shared>,
    cell: CounterCell,
}

impl Counter {
    /// Adds 1. Disabled cost: one Relaxed load.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`. Disabled cost: one Relaxed load.
    #[inline]
    pub fn add(&self, n: u64) {
        if !self.shared.enabled.load(Ordering::Relaxed) {
            return;
        }
        self.cell.add(n);
    }

    /// Current value of this handle's cell (reads even while disabled).
    pub fn value(&self) -> u64 {
        self.cell.get()
    }
}

/// A gauge is either owned by the registry (an `f64` stored as bits) or
/// a link to a plain-integer `static` maintained elsewhere (the
/// cae-tensor pool queue depth).
#[derive(Debug, Clone)]
enum GaugeCell {
    Owned(Arc<AtomicU64>),
    Linked(&'static AtomicU64),
}

impl GaugeCell {
    fn value(&self) -> f64 {
        match self {
            GaugeCell::Owned(cell) => f64::from_bits(cell.load(Ordering::Relaxed)),
            GaugeCell::Linked(cell) => cell.load(Ordering::Relaxed) as f64,
        }
    }
}

/// A last-write-wins `f64` gauge (stored as bits in an `AtomicU64`;
/// a handle on a [linked](MetricsRegistry::link_gauge) name writes the
/// external integer cell, truncating toward zero).
#[derive(Clone, Debug)]
pub struct Gauge {
    shared: Arc<Shared>,
    cell: GaugeCell,
}

impl Gauge {
    /// Stores `v`. Disabled cost: one Relaxed load.
    #[inline]
    pub fn set(&self, v: f64) {
        if !self.shared.enabled.load(Ordering::Relaxed) {
            return;
        }
        match &self.cell {
            GaugeCell::Owned(cell) => cell.store(v.to_bits(), Ordering::Relaxed),
            GaugeCell::Linked(cell) => cell.store(v as u64, Ordering::Relaxed),
        }
    }

    /// Current value (reads even while disabled).
    pub fn value(&self) -> f64 {
        self.cell.value()
    }
}

/// The shared storage behind a [`Histogram`] handle.
#[derive(Debug)]
pub struct HistogramCell {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

/// Bucket index for `v`: `floor(log2(v))`, with 0 mapping to bucket 0.
#[inline]
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        63 - v.leading_zeros() as usize
    }
}

/// Inclusive upper bound of bucket `b` (`u64::MAX` for the last).
fn bucket_upper(b: usize) -> u64 {
    if b + 1 >= 64 {
        u64::MAX
    } else {
        (1u64 << (b + 1)) - 1
    }
}

impl HistogramCell {
    fn new() -> HistogramCell {
        HistogramCell {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    #[inline]
    fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<(u64, u64)> = (0..HISTOGRAM_BUCKETS)
            .filter_map(|b| {
                let n = self.buckets[b].load(Ordering::Relaxed);
                (n > 0).then(|| (bucket_upper(b), n))
            })
            .collect();
        // Quantiles from the bucket copy, not the live count: concurrent
        // recorders can advance `count` between loads, and a quantile
        // must stay consistent with the buckets it walks.
        let count: u64 = buckets.iter().map(|&(_, n)| n).sum();
        let quantile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            let rank = (q * count as f64).ceil() as u64;
            let mut seen = 0u64;
            for &(upper, n) in &buckets {
                seen += n;
                if seen >= rank {
                    return upper;
                }
            }
            buckets.last().map_or(0, |&(upper, _)| upper)
        };
        HistogramSnapshot {
            p50: quantile(0.50),
            p95: quantile(0.95),
            p99: quantile(0.99),
            count,
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// A log2-bucketed latency histogram (values in nanoseconds by
/// convention, but any `u64` works).
#[derive(Clone, Debug)]
pub struct Histogram {
    shared: Arc<Shared>,
    cell: Arc<HistogramCell>,
}

impl Histogram {
    /// Records one value. Disabled cost: one Relaxed load.
    #[inline]
    pub fn record(&self, v: u64) {
        if !self.shared.enabled.load(Ordering::Relaxed) {
            return;
        }
        self.cell.record(v);
    }

    /// Starts timing a section against `clock`; the returned guard
    /// records the elapsed nanoseconds when dropped. The guard owns
    /// cheap handle clones, so it does not borrow the histogram — it
    /// can live across `&mut self` work in the instrumented type.
    /// Disabled cost: one Relaxed load and an empty guard.
    #[inline]
    pub fn start(&self, clock: &ObsClock) -> LatencyTimer {
        if !self.shared.enabled.load(Ordering::Relaxed) {
            return LatencyTimer { inner: None };
        }
        LatencyTimer {
            inner: Some((self.clone(), clock.clone(), clock.now_ns())),
        }
    }

    /// Point-in-time copy (reads even while disabled).
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.cell.snapshot()
    }
}

/// RAII guard from [`Histogram::start`]: records on drop. Empty (and
/// free) when the registry was disabled at start time.
#[derive(Debug)]
pub struct LatencyTimer {
    inner: Option<(Histogram, ObsClock, u64)>,
}

impl Drop for LatencyTimer {
    fn drop(&mut self) {
        if let Some((histogram, clock, started_ns)) = self.inner.take() {
            let elapsed = clock.now_ns().saturating_sub(started_ns);
            histogram.cell.record(elapsed);
        }
    }
}

/// Point-in-time copy of one histogram. Quantiles are upper bounds of
/// the log2 bucket containing the rank, so they are deterministic for a
/// fixed set of recorded values; `max` is exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub max: u64,
    pub p50: u64,
    pub p95: u64,
    pub p99: u64,
    /// `(inclusive upper bound, count)` for every non-empty bucket, in
    /// ascending bound order.
    pub buckets: Vec<(u64, u64)>,
}

/// Point-in-time copy of a whole registry, sorted by metric name.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    pub counters: Vec<(&'static str, u64)>,
    pub gauges: Vec<(&'static str, f64)>,
    pub histograms: Vec<(&'static str, HistogramSnapshot)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_share_cells_by_name_and_respect_enabled() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("ticks_total");
        let b = reg.counter("ticks_total");
        a.inc();
        b.add(4);
        assert_eq!(a.value(), 5);
        assert_eq!(b.value(), 5, "same name, same cell");

        reg.disable();
        a.inc();
        assert_eq!(a.value(), 5, "disabled sites must not record");
        reg.enable();
        a.inc();
        assert_eq!(a.value(), 6);
    }

    #[test]
    fn disabled_registry_records_nothing_anywhere() {
        let reg = MetricsRegistry::disabled();
        assert!(!reg.is_enabled());
        let c = reg.counter("c");
        let g = reg.gauge("g");
        let h = reg.histogram("h");
        c.inc();
        g.set(3.5);
        h.record(100);
        assert_eq!(c.value(), 0);
        assert_eq!(g.value(), 0.0);
        assert_eq!(h.snapshot().count, 0);
    }

    #[test]
    fn gauge_is_last_write_wins() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("depth");
        g.set(1.25);
        g.set(-7.5);
        assert_eq!(g.value(), -7.5);
    }

    #[test]
    fn histogram_buckets_quantiles_and_max() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_upper(0), 1);
        assert_eq!(bucket_upper(10), 2047);
        assert_eq!(bucket_upper(63), u64::MAX);

        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat");
        for v in [1u64, 1, 2, 3, 900, 1500] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 6);
        assert_eq!(snap.sum, 2407);
        assert_eq!(snap.max, 1500);
        // Ranks: p50 → 3rd of 6 → bucket [2,4) upper 3; p95/p99 → 6th →
        // bucket [1024,2048) upper 2047.
        assert_eq!(snap.p50, 3);
        assert_eq!(snap.p95, 2047);
        assert_eq!(snap.p99, 2047);
        assert_eq!(snap.buckets, vec![(1, 2), (3, 2), (1023, 1), (2047, 1)]);
    }

    #[test]
    fn latency_timer_records_mock_elapsed_on_drop() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat");
        let (clock, driver) = ObsClock::mock();
        {
            let _t = h.start(&clock);
            driver.advance_ns(640);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 1);
        assert_eq!(snap.sum, 640);
        assert_eq!(snap.max, 640);

        reg.disable();
        {
            let _t = h.start(&clock);
            driver.advance_ns(640);
        }
        assert_eq!(h.snapshot().count, 1, "disarmed timer records nothing");
    }

    #[test]
    fn linked_counters_and_flags_follow_the_registry() {
        static CELL: AtomicU64 = AtomicU64::new(0);
        static FLAG: AtomicBool = AtomicBool::new(false);
        let reg = MetricsRegistry::new();
        reg.link_counter("tensor_hits_total", &CELL);
        reg.link_flag(&FLAG);
        assert!(FLAG.load(Ordering::Acquire), "flag snaps to enabled");

        CELL.fetch_add(3, Ordering::Relaxed);
        let snap = reg.snapshot();
        assert_eq!(snap.counters, vec![("tensor_hits_total", 3)]);

        // A handle opened on a linked name writes the same static cell.
        let handle = reg.counter("tensor_hits_total");
        handle.inc();
        assert_eq!(handle.value(), 4);
        assert_eq!(CELL.load(Ordering::Relaxed), 4);

        reg.disable();
        assert!(!FLAG.load(Ordering::Acquire), "flag follows disable");
    }

    #[test]
    fn linked_tier_cells_export_their_sum_whatever_the_flag() {
        let reg = MetricsRegistry::disabled();
        let (a, b) = (CounterCell::default(), CounterCell::default());
        reg.link_counter("faults_total", a.clone());
        reg.link_counter("faults_total", b.clone());
        reg.link_counter("faults_total", a.clone());
        a.add(2);
        b.inc();
        assert_eq!(a.get(), 2, "a tier cell counts while the registry is off");
        assert_eq!(reg.snapshot().counters, vec![("faults_total", 3)]);
    }

    #[test]
    fn snapshot_is_sorted_by_name() {
        let reg = MetricsRegistry::new();
        reg.counter("zeta").inc();
        reg.counter("alpha").inc();
        reg.gauge("mid").set(1.0);
        let snap = reg.snapshot();
        assert_eq!(
            snap.counters.iter().map(|&(n, _)| n).collect::<Vec<_>>(),
            vec!["alpha", "zeta"]
        );
        assert_eq!(snap.gauges.len(), 1);
    }
}
