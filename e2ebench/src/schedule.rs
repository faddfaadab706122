//! Open-loop tick schedule.
//!
//! Tick `i` is due at `i × period` after the loop's origin, whether or not
//! the previous tick has finished. A tick's latency runs from its due time
//! to its end, so a stall is charged to every tick it delays; the
//! generator's own lateness (start − due) is recorded separately.

use std::time::{Duration, Instant};

/// The fixed-rate schedule and what it has measured so far.
#[derive(Debug)]
pub struct OpenLoop {
    period_ns: u64,
    /// Latency of each recorded tick: end − due, in ns.
    pub latency_ns: Vec<f64>,
    /// How late each tick started: start − due, in ns (0 when on time).
    pub lateness_ns: Vec<f64>,
}

impl OpenLoop {
    pub fn new(period: Duration) -> Self {
        OpenLoop {
            period_ns: period.as_nanos() as u64,
            latency_ns: Vec::new(),
            lateness_ns: Vec::new(),
        }
    }

    /// When tick `i` is due, in ns after the origin.
    pub fn due_ns(&self, i: u64) -> u64 {
        i * self.period_ns
    }

    /// Records tick `i`, which started at `start_ns` and ended at `end_ns`
    /// (both ns after the origin). Returns its latency in ns.
    pub fn record(&mut self, i: u64, start_ns: u64, end_ns: u64) -> u64 {
        let due = self.due_ns(i);
        self.lateness_ns.push(start_ns.saturating_sub(due) as f64);
        let latency = end_ns.saturating_sub(due);
        self.latency_ns.push(latency as f64);
        latency
    }

    /// Sleeps until tick `i` is due (returns at once when it is overdue)
    /// and returns the start time in ns after `origin`.
    pub fn wait_for(&self, i: u64, origin: Instant) -> u64 {
        let due = Duration::from_nanos(self.due_ns(i));
        let now = origin.elapsed();
        if now < due {
            std::thread::sleep(due - now);
        }
        origin.elapsed().as_nanos() as u64
    }
}

/// Replays a scripted schedule: tick `i` takes `work_ns[i]` and starts at
/// the later of its due time and the end of the previous tick — exactly
/// what the serving loop does, without a clock.
#[cfg(test)]
pub fn simulate(period: Duration, work_ns: &[u64]) -> OpenLoop {
    let mut ol = OpenLoop::new(period);
    let mut free_at = 0u64;
    for (i, &work) in work_ns.iter().enumerate() {
        let start = ol.due_ns(i as u64).max(free_at);
        let end = start + work;
        ol.record(i as u64, start, end);
        free_at = end;
    }
    ol
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    #[test]
    fn on_time_ticks_have_no_lateness() {
        let ol = simulate(Duration::from_millis(20), &[5 * MS, 5 * MS, 5 * MS]);
        assert_eq!(ol.lateness_ns, vec![0.0; 3]);
        assert_eq!(ol.latency_ns, vec![5e6; 3]);
    }

    #[test]
    fn a_stall_is_charged_to_the_ticks_it_delays() {
        // Tick 1 takes 50 ms: ticks 2 and 3 (due at 40 and 60 ms) start
        // late, and their latency counts from when they were due.
        let ol = simulate(
            Duration::from_millis(20),
            &[5 * MS, 50 * MS, 5 * MS, 5 * MS, 5 * MS],
        );
        // tick 1: due 20, ends 70; tick 2: due 40, starts 70, ends 75;
        // tick 3: due 60, starts 75, ends 80; tick 4: due 80, on time.
        assert_eq!(ol.lateness_ns, vec![0.0, 0.0, 30e6, 15e6, 0.0]);
        assert_eq!(ol.latency_ns, vec![5e6, 50e6, 35e6, 20e6, 5e6]);
    }

    #[test]
    fn wait_for_returns_no_earlier_than_due() {
        let ol = OpenLoop::new(Duration::from_millis(2));
        let origin = Instant::now();
        let start = ol.wait_for(3, origin);
        assert!(start >= ol.due_ns(3), "started at {start} before due");
    }
}
