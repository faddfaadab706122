//! Golden-file tests pinning the exporters byte-for-byte, plus the
//! multi-threaded histogram accounting guarantee.
//!
//! The snapshot is seeded deterministically (mock clock, fixed values),
//! so any byte of drift in `to_json` / `to_prometheus` — ordering,
//! float formatting, bucket layout — fails against the committed files
//! under `tests/golden/`.

#![allow(
    clippy::disallowed_methods,
    reason = "the histogram accounting test records from several threads"
)]

use cae_obs::{MetricsRegistry, ObsClock};

/// A registry with one metric of each kind, exercised through the same
/// surfaces the serving tiers use (including a mock-clock timer).
fn seeded_registry() -> MetricsRegistry {
    let registry = MetricsRegistry::new();
    registry.counter("serve_recoveries_total").add(3);
    registry.counter("serve_faulty_observations_total").add(4);
    registry.counter("adapt_refits_started_total").inc();
    registry.gauge("serve_buffered_windows").set(24.0);
    registry.gauge("adapt_drift_z").set(1.5);

    let histogram = registry.histogram("serve_push_latency_ns");
    for v in [1u64, 1, 2, 3, 900, 1500] {
        histogram.record(v);
    }
    let (clock, driver) = ObsClock::mock();
    {
        let _timer = histogram.start(&clock);
        driver.advance_ns(640);
    }
    registry
}

#[test]
fn json_export_matches_golden_file() {
    assert_eq!(
        seeded_registry().snapshot().to_json(),
        include_str!("golden/metrics.json")
    );
}

#[test]
fn prometheus_export_matches_golden_file() {
    assert_eq!(
        seeded_registry().snapshot().to_prometheus(),
        include_str!("golden/metrics.prom")
    );
}

#[test]
fn exports_are_deterministic_across_snapshots() {
    let registry = seeded_registry();
    assert_eq!(registry.snapshot().to_json(), registry.snapshot().to_json());
    assert_eq!(
        registry.snapshot().to_prometheus(),
        registry.snapshot().to_prometheus()
    );
}

#[test]
fn concurrent_histogram_recording_loses_nothing() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 25_000;

    let registry = MetricsRegistry::new();
    let histogram = registry.histogram("lat_ns");
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let histogram = histogram.clone();
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    // Mixed magnitudes so every thread hits several
                    // buckets, not one contended cell.
                    histogram.record((i % 7) * (t as u64 + 1) * 100);
                }
            });
        }
    });

    let snapshot = histogram.snapshot();
    let total = THREADS as u64 * PER_THREAD;
    assert_eq!(snapshot.count, total, "every record must land exactly once");
    assert_eq!(
        snapshot.buckets.iter().map(|&(_, n)| n).sum::<u64>(),
        total,
        "bucket counts must sum to the total"
    );
    let expected_sum: u64 = (0..THREADS as u64)
        .map(|t| {
            (0..PER_THREAD)
                .map(|i| (i % 7) * (t + 1) * 100)
                .sum::<u64>()
        })
        .sum();
    assert_eq!(snapshot.sum, expected_sum, "sums are exact, not sampled");
    assert_eq!(snapshot.max, 6 * 8 * 100, "max is exact");
}
