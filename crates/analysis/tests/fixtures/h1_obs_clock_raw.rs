// cae-lint: path=crates/serve/src/lib.rs
//! Negative control for the ObsClock sanction: the same `Instant` read
//! *outside* `crates/obs/src/clock.rs` still fires H1 — the sanction is
//! one file, not a blanket allow.

impl FleetDetector {
    pub fn push(&mut self, sample: &[f32]) {
        self.started_ns = raw_now_ns();
    }
}

fn raw_now_ns() -> u64 {
    let at = Instant::now(); // line 13: H1
    duration_ns(at)
}
