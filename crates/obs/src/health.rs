//! The shared health report both tiers fill in.
//!
//! `cae-serve` reports stream-health and load-shedding counters,
//! `cae-adapt` reports retry/backoff/fallback counters; merging the two
//! gives operators one degradation summary per fleet. Each tier fills
//! its half from the same counter record its registry counters export.
//! The struct lives here, beside the registry, in the one crate both
//! tiers already depend on, so neither tier has to depend on the other
//! to share it.

/// Degradation counters across the serving and adaptation tiers.
///
/// Stream-state fields (`streams_*`) are a point-in-time snapshot; every
/// other field is a monotonic lifetime counter. [`HealthReport::merge`]
/// adds another report field-wise, which is correct for combining the
/// serving half and the adaptation half (each leaves the other's fields
/// zero), or for summing reports across shards.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HealthReport {
    /// Streams currently in the `Healthy` state.
    pub streams_healthy: u64,
    /// Streams currently in the `Suspect` state.
    pub streams_suspect: u64,
    /// Streams currently in the `Quarantined` state.
    pub streams_quarantined: u64,
    /// Streams currently in the `Recovering` state.
    pub streams_recovering: u64,
    /// Transitions into `Quarantined` over the fleet's lifetime.
    pub quarantine_events: u64,
    /// Transitions from `Recovering` back to `Healthy`.
    pub recoveries: u64,
    /// Observations rejected as faulty (non-finite, flat-lined past the
    /// threshold, or dimension-garbled).
    pub faulty_observations: u64,
    /// Ready windows deferred by the tick budget (load shedding).
    pub shed_windows: u64,
    /// Non-finite scores suppressed at the tick boundary.
    pub suppressed_scores: u64,
    /// Re-fit attempts retried after a failure or panic.
    pub refit_retries: u64,
    /// Re-fits abandoned after exhausting their retry budget.
    pub refits_failed: u64,
    /// Re-fit launches lost to spawn failure (thread exhaustion).
    pub spawn_failures: u64,
    /// Checkpoint writes retried after an I/O failure.
    pub checkpoint_retries: u64,
    /// Publishes that fell back to in-memory-only after every checkpoint
    /// write attempt failed.
    pub checkpoint_fallbacks: u64,
    /// Total scheduled retry backoff, in milliseconds.
    pub backoff_ms: u64,
}

impl HealthReport {
    /// Adds `other` field-wise (snapshot fields included — merging is
    /// meant for disjoint halves or distinct shards).
    pub fn merge(&mut self, other: &HealthReport) {
        self.streams_healthy += other.streams_healthy;
        self.streams_suspect += other.streams_suspect;
        self.streams_quarantined += other.streams_quarantined;
        self.streams_recovering += other.streams_recovering;
        self.quarantine_events += other.quarantine_events;
        self.recoveries += other.recoveries;
        self.faulty_observations += other.faulty_observations;
        self.shed_windows += other.shed_windows;
        self.suppressed_scores += other.suppressed_scores;
        self.refit_retries += other.refit_retries;
        self.refits_failed += other.refits_failed;
        self.spawn_failures += other.spawn_failures;
        self.checkpoint_retries += other.checkpoint_retries;
        self.checkpoint_fallbacks += other.checkpoint_fallbacks;
        self.backoff_ms += other.backoff_ms;
    }

    /// Whether anything beyond healthy steady-state has been observed:
    /// any stream outside `Healthy`, or any degradation counter non-zero.
    pub fn degraded(&self) -> bool {
        let snapshot =
            self.streams_suspect + self.streams_quarantined + self.streams_recovering > 0;
        let counters = self.quarantine_events
            + self.faulty_observations
            + self.shed_windows
            + self.suppressed_scores
            + self.refit_retries
            + self.refits_failed
            + self.spawn_failures
            + self.checkpoint_retries
            + self.checkpoint_fallbacks
            > 0;
        snapshot || counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_not_degraded() {
        assert!(!HealthReport::default().degraded());
        let healthy_fleet = HealthReport {
            streams_healthy: 64,
            recoveries: 3,
            backoff_ms: 0,
            ..HealthReport::default()
        };
        // Healthy streams and completed recoveries are not degradation.
        assert!(!healthy_fleet.degraded());
    }

    /// A fleet that served cleanly but had to publish in-memory-only
    /// (every checkpoint write attempt failed) *is* degraded: durability
    /// was lost even though serving never faltered. Pinned so
    /// `checkpoint_fallbacks` can never silently drop out of the
    /// `degraded()` sum.
    #[test]
    fn checkpoint_fallback_alone_marks_degradation() {
        let report = HealthReport {
            streams_healthy: 8,
            checkpoint_fallbacks: 1,
            ..HealthReport::default()
        };
        assert!(report.degraded());
        // `recoveries` and `backoff_ms` stay excluded: a completed
        // recovery is health restored, and backoff only accompanies
        // retries that are already counted.
        let recovered = HealthReport {
            streams_healthy: 8,
            recoveries: 2,
            backoff_ms: 40,
            ..HealthReport::default()
        };
        assert!(!recovered.degraded());
    }

    #[test]
    fn merge_adds_fieldwise() {
        let serve = HealthReport {
            streams_healthy: 60,
            streams_quarantined: 4,
            quarantine_events: 7,
            shed_windows: 12,
            ..HealthReport::default()
        };
        let adapt = HealthReport {
            refit_retries: 2,
            checkpoint_retries: 3,
            checkpoint_fallbacks: 1,
            backoff_ms: 70,
            ..HealthReport::default()
        };
        let mut merged = serve;
        merged.merge(&adapt);
        assert_eq!(merged.streams_quarantined, 4);
        assert_eq!(merged.checkpoint_retries, 3);
        assert_eq!(merged.backoff_ms, 70);
        assert!(merged.degraded());
    }
}
