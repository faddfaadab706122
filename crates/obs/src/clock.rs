//! The injectable time source behind every latency measurement.
//!
//! This module is the **one sanctioned wall-clock location** in the hot
//! scope: cae-lint's H1 rule flags every `Instant` or `SystemTime` token
//! in `crates/{serve,adapt,core,data,obs}/src` except in
//! `crates/obs/src/clock.rs`, so those crates time themselves by calling
//! through [`ObsClock`] (usually via [`crate::Histogram::start`]).
//!
//! Two sources:
//!
//! * [`ObsClock::monotonic`] — nanoseconds elapsed since the clock was
//!   constructed, read from the OS monotonic clock. The default.
//! * [`ObsClock::mock`] — a shared atomic counter advanced manually by
//!   tests, so timing-dependent assertions are deterministic.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A monotonic nanosecond clock, cheap to clone and `Send + Sync`.
#[derive(Clone, Debug)]
pub struct ObsClock {
    source: Source,
}

#[derive(Clone, Debug)]
enum Source {
    /// Real time: nanoseconds since the base instant.
    Monotonic(Instant),
    /// Test time: whatever the paired [`MockClock`] last set.
    Mock(Arc<AtomicU64>),
}

impl ObsClock {
    /// A real monotonic clock. `now_ns` counts from this call.
    pub fn monotonic() -> ObsClock {
        ObsClock {
            source: Source::Monotonic(Instant::now()),
        }
    }

    /// A deterministic clock plus the handle that drives it.
    pub fn mock() -> (ObsClock, MockClock) {
        let cell = Arc::new(AtomicU64::new(0));
        (
            ObsClock {
                source: Source::Mock(cell.clone()),
            },
            MockClock { cell },
        )
    }

    /// Current reading in nanoseconds.
    ///
    /// Monotonic within one clock (and across its clones); readings
    /// from different `monotonic()` constructions are not comparable.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        match &self.source {
            Source::Monotonic(base) => base.elapsed().as_nanos() as u64,
            Source::Mock(cell) => cell.load(Ordering::Acquire),
        }
    }

    /// True when this clock is test-driven rather than real time.
    pub fn is_mock(&self) -> bool {
        matches!(self.source, Source::Mock(_))
    }
}

impl Default for ObsClock {
    fn default() -> ObsClock {
        ObsClock::monotonic()
    }
}

/// Drives the mock side of [`ObsClock::mock`].
#[derive(Clone, Debug)]
pub struct MockClock {
    cell: Arc<AtomicU64>,
}

impl MockClock {
    /// Advances the paired clock by `ns` and returns the new reading.
    pub fn advance_ns(&self, ns: u64) -> u64 {
        self.cell.fetch_add(ns, Ordering::AcqRel) + ns
    }

    /// Jumps the paired clock to an absolute reading.
    pub fn set_ns(&self, ns: u64) {
        self.cell.store(ns, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_clock_never_goes_backwards() {
        let clock = ObsClock::monotonic();
        let mut prev = clock.now_ns();
        for _ in 0..100 {
            let now = clock.now_ns();
            assert!(now >= prev);
            prev = now;
        }
        assert!(!clock.is_mock());
    }

    #[test]
    fn mock_clock_is_deterministic_and_shared_across_clones() {
        let (clock, driver) = ObsClock::mock();
        let clone = clock.clone();
        assert_eq!(clock.now_ns(), 0);
        assert_eq!(driver.advance_ns(250), 250);
        assert_eq!(clock.now_ns(), 250);
        assert_eq!(clone.now_ns(), 250, "clones share the mock cell");
        driver.set_ns(7);
        assert_eq!(clock.now_ns(), 7);
        assert!(clock.is_mock());
    }
}
