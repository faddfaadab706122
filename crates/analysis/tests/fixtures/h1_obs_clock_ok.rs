// cae-lint: path=crates/obs/src/clock.rs
//! The sanctioned wall-clock seam: `Instant` reads in
//! `crates/obs/src/clock.rs` back every latency timer of the hot paths
//! (`Histogram::start → ObsClock::now_ns`), yet H1 stays quiet — this
//! file alone holds the raw clock. The negative control
//! (`h1_obs_clock_raw.rs`) proves the same shape fires anywhere else.

impl FleetDetector {
    pub fn push(&mut self, sample: &[f32]) {
        self.started_ns = clock_now_ns();
    }
}

pub fn clock_now_ns() -> u64 {
    let at = Instant::now(); // sanctioned here, H1 everywhere else
    duration_ns(at)
}
