//! Named failpoints with deterministic, seeded schedules.
//!
//! A [`FailPoint`] is a static fault site compiled into production code.
//! Its hot-path contract is strict: **disarmed, a [`FailPoint::check`]
//! costs exactly one relaxed atomic load** — no branch on shared mutable
//! state, no lock, no counter. Only the armed (test) path takes the
//! site's mutex to evaluate its [`Schedule`].
//!
//! Schedules are deterministic per seed: `nth(k)` trips on exactly the
//! k-th evaluation, `every(n)` on every n-th, `probability(p, seed)`
//! draws from a private SplitMix64 stream. A schedule injects one of
//! three fault kinds: a **trip** (the site returns its injected failure,
//! optionally carrying a payload such as a torn-write byte offset), a
//! **panic** (for exercising catch-and-retry supervision), or **latency**
//! (a sleep, for deadline and backoff testing).

use crate::rng::SplitMix64;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// What a [`FailPoint::check`] told the instrumented site to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Proceed normally (always the case while disarmed).
    None,
    /// Inject the site's failure. `payload` carries a site-specific
    /// parameter — `persist.write` reads it as the number of bytes to
    /// tear the write at, `serve.tick_deadline` as the surviving window
    /// budget; `None` means the site's default (fail outright).
    Trip {
        /// Site-specific fault parameter (see [`Schedule::payload`]).
        payload: Option<u64>,
    },
    /// Inject latency: the site should sleep for `ms` milliseconds and
    /// then proceed normally.
    Sleep {
        /// Injected delay in milliseconds.
        ms: u64,
    },
    /// Panic at the site (exercises supervision/catch paths).
    Panic,
}

/// Which fault a schedule injects when it decides to act.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Trip { payload: Option<u64> },
    Sleep { ms: u64 },
    Panic,
}

/// When an armed schedule acts, counted in evaluations since arming.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Plan {
    /// Exactly on the `n`-th evaluation (0-based).
    Nth(u64),
    /// On every `n`-th evaluation (the n-th, 2n-th, …).
    Every(u64),
    /// Independently per evaluation with probability `p`, drawn from the
    /// schedule's seeded stream.
    Probability(f64),
    /// On every evaluation.
    Always,
}

/// A deterministic fault schedule, armed onto a [`FailPoint`].
#[derive(Clone, Debug, PartialEq)]
pub struct Schedule {
    plan: Plan,
    kind: Kind,
    /// Total faults this arming may inject (`None` = unlimited).
    limit: Option<u64>,
    seed: u64,
}

impl Schedule {
    fn with_plan(plan: Plan, limit: Option<u64>) -> Self {
        Schedule {
            plan,
            kind: Kind::Trip { payload: None },
            limit,
            seed: 0x5eed_c4a0_5eed_c4a0,
        }
    }

    /// Fail exactly once, on the `n`-th evaluation after arming
    /// (0-based): `nth(0)` fails the very next check.
    pub fn nth(n: u64) -> Self {
        Self::with_plan(Plan::Nth(n), Some(1))
    }

    /// Fail on every `n`-th evaluation (`n ≥ 1`), without limit.
    pub fn every(n: u64) -> Self {
        assert!(n >= 1, "every(0) would never fire");
        Self::with_plan(Plan::Every(n), None)
    }

    /// Fail each evaluation independently with probability `p`, drawn
    /// from a SplitMix64 stream seeded with `seed` — bit-replayable.
    pub fn probability(p: f64, seed: u64) -> Self {
        let mut s = Self::with_plan(Plan::Probability(p.clamp(0.0, 1.0)), None);
        s.seed = seed;
        s
    }

    /// Fail every evaluation.
    pub fn always() -> Self {
        Self::with_plan(Plan::Always, None)
    }

    /// Attaches a site-specific payload to the injected trips (e.g. the
    /// byte offset `persist.write` tears the temp file at).
    pub fn payload(mut self, value: u64) -> Self {
        self.kind = Kind::Trip {
            payload: Some(value),
        };
        self
    }

    /// Injects a panic instead of a trip — for exercising the
    /// catch-and-retry supervision around re-fit workers.
    pub fn panicking(mut self) -> Self {
        self.kind = Kind::Panic;
        self
    }

    /// Injects `ms` milliseconds of latency instead of a failure.
    pub fn sleeping_ms(mut self, ms: u64) -> Self {
        self.kind = Kind::Sleep { ms };
        self
    }

    /// Caps the total number of injected faults for this arming.
    pub fn times(mut self, n: u64) -> Self {
        self.limit = Some(n);
        self
    }
}

/// Mutable evaluation state of an armed schedule.
#[derive(Debug)]
struct Armed {
    schedule: Schedule,
    /// Evaluations since arming.
    hits: u64,
    /// Faults injected since arming.
    trips: u64,
    rng: SplitMix64,
}

/// A named fault site. Instrumented code calls [`FailPoint::check`] (or
/// the [`FailPoint::fire`] convenience) at the moment the corresponding
/// real-world failure would strike; tests arm a [`Schedule`] to make that
/// failure happen on a deterministic cue.
#[derive(Debug)]
pub struct FailPoint {
    name: &'static str,
    /// The entire disarmed cost: one relaxed load of this flag.
    armed: AtomicBool,
    state: Mutex<Option<Armed>>,
}

impl FailPoint {
    /// A disarmed failpoint named `name`. Intended for the statics in
    /// [`sites`]; tests may also create private ones.
    pub const fn new(name: &'static str) -> Self {
        FailPoint {
            name,
            armed: AtomicBool::new(false),
            state: Mutex::new(None),
        }
    }

    /// The site's registry name (e.g. `"persist.write"`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Evaluates the site. Disarmed this is one relaxed atomic load and
    /// returns [`Fault::None`]; armed, the schedule decides.
    #[inline]
    pub fn check(&self) -> Fault {
        // Relaxed is sufficient: `armed` is only a fast-path hint. A
        // stale `false` skips a just-armed site once (arming is async by
        // contract); a `true` proceeds to `check_armed`, which locks the
        // schedule mutex — the mutex, not this load, orders the schedule
        // contents.
        if !self.armed.load(Ordering::Relaxed) {
            return Fault::None;
        }
        self.check_armed()
    }

    #[cold]
    fn check_armed(&self) -> Fault {
        let mut state = self.lock();
        let Some(armed) = state.as_mut() else {
            return Fault::None;
        };
        let hit = armed.hits;
        armed.hits += 1;
        if armed
            .schedule
            .limit
            .is_some_and(|limit| armed.trips >= limit)
        {
            return Fault::None;
        }
        let acts = match armed.schedule.plan {
            Plan::Nth(n) => hit == n,
            Plan::Every(n) => (hit + 1) % n == 0,
            Plan::Probability(p) => armed.rng.chance(p),
            Plan::Always => true,
        };
        if !acts {
            return Fault::None;
        }
        armed.trips += 1;
        match armed.schedule.kind {
            Kind::Trip { payload } => Fault::Trip { payload },
            Kind::Sleep { ms } => Fault::Sleep { ms },
            Kind::Panic => Fault::Panic,
        }
    }

    /// Convenience wrapper for sites whose only latency response is a
    /// sleep: returns `Some(payload)` when the site must inject its
    /// failure, handles [`Fault::Sleep`] internally, and panics on
    /// [`Fault::Panic`] (that is the injected fault).
    pub fn fire(&self) -> Option<Option<u64>> {
        match self.check() {
            Fault::None => None,
            Fault::Trip { payload } => Some(payload),
            Fault::Sleep { ms } => {
                std::thread::sleep(std::time::Duration::from_millis(ms));
                None
            }
            #[allow(clippy::panic, reason = "the scheduled fault is a panic")]
            Fault::Panic => panic!("chaos: injected panic at failpoint `{}`", self.name),
        }
    }

    /// Arms `schedule` on this site, replacing any previous arming and
    /// resetting the hit/trip counters.
    pub fn arm(&self, schedule: Schedule) {
        let rng = SplitMix64::new(schedule.seed);
        *self.lock() = Some(Armed {
            schedule,
            hits: 0,
            trips: 0,
            rng,
        });
        self.armed.store(true, Ordering::Release);
    }

    /// Disarms the site; subsequent checks are single-load no-ops.
    pub fn disarm(&self) {
        self.armed.store(false, Ordering::Release);
        *self.lock() = None;
    }

    /// Whether a schedule is currently armed.
    pub fn is_armed(&self) -> bool {
        // Relaxed for the same reason as `check`: a point-in-time hint,
        // with the schedule itself synchronized by its mutex.
        self.armed.load(Ordering::Relaxed)
    }

    /// Evaluations since the current arming (0 when disarmed).
    pub fn hits(&self) -> u64 {
        self.lock().as_ref().map_or(0, |a| a.hits)
    }

    /// Faults injected since the current arming (0 when disarmed).
    pub fn trips(&self) -> u64 {
        self.lock().as_ref().map_or(0, |a| a.trips)
    }

    fn lock(&self) -> MutexGuard<'_, Option<Armed>> {
        // A panicking chaos test must not poison every later test: the
        // guarded state is a plain schedule, valid at every step.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The workspace's instrumented fault sites.
///
/// | site | guards | trip payload |
/// |------|--------|--------------|
/// | `persist.write` | checkpoint temp-write and rename | bytes written before the tear (`None` = fail before writing) |
/// | `persist.read`  | checkpoint read | bytes delivered before truncation (`None` = I/O error) |
/// | `adapt.spawn`   | re-fit worker thread spawn | — |
/// | `adapt.refit`   | the re-fit computation itself | — |
/// | `serve.tick_deadline` | fleet tick budget | surviving window budget (`None` = shed everything) |
/// | `journal.append` | observation journal frame append | bytes written before the tear (`None` = fail before writing) |
/// | `journal.fsync` | observation journal fsync | — |
/// | `snapshot.write` | fleet snapshot temp-write and rename | bytes written before the tear (`None` = fail before writing) |
pub mod sites {
    use super::FailPoint;

    /// Checkpoint writes: trips tear or abort the temp-file write, or
    /// abort between write and rename.
    pub static PERSIST_WRITE: FailPoint = FailPoint::new("persist.write");
    /// Checkpoint reads: trips truncate the delivered bytes or fail the
    /// read outright.
    pub static PERSIST_READ: FailPoint = FailPoint::new("persist.read");
    /// Re-fit worker spawn: trips simulate thread exhaustion.
    pub static ADAPT_SPAWN: FailPoint = FailPoint::new("adapt.spawn");
    /// The background re-fit itself: trips fail it, panics kill it.
    pub static ADAPT_REFIT: FailPoint = FailPoint::new("adapt.refit");
    /// Fleet tick deadline: trips clamp the tick's window budget,
    /// forcing load shedding.
    pub static SERVE_TICK_DEADLINE: FailPoint = FailPoint::new("serve.tick_deadline");
    /// Observation-journal appends: trips tear the frame mid-write or
    /// abort before any byte lands.
    pub static JOURNAL_APPEND: FailPoint = FailPoint::new("journal.append");
    /// Observation-journal fsync: trips fail the durability barrier.
    pub static JOURNAL_FSYNC: FailPoint = FailPoint::new("journal.fsync");
    /// Fleet-snapshot writes: trips tear or abort the temp-file write,
    /// or abort between write and rename.
    pub static SNAPSHOT_WRITE: FailPoint = FailPoint::new("snapshot.write");

    /// Every registered site, for sweeping and diagnostics.
    pub fn all() -> [&'static FailPoint; 8] {
        [
            &PERSIST_WRITE,
            &PERSIST_READ,
            &ADAPT_SPAWN,
            &ADAPT_REFIT,
            &SERVE_TICK_DEADLINE,
            &JOURNAL_APPEND,
            &JOURNAL_FSYNC,
            &SNAPSHOT_WRITE,
        ]
    }

    /// Looks a site up by its registry name.
    pub fn by_name(name: &str) -> Option<&'static FailPoint> {
        all().into_iter().find(|s| s.name() == name)
    }
}

/// Disarms every registered site.
pub fn disarm_all() {
    for site in sites::all() {
        site.disarm();
    }
}

/// Serializes chaos tests within one binary and guarantees a clean
/// registry on both entry and exit. Hold this for the whole test.
#[derive(Debug)]
pub struct ChaosGuard {
    _guard: MutexGuard<'static, ()>,
}

impl Drop for ChaosGuard {
    fn drop(&mut self) {
        disarm_all();
    }
}

static EXCLUSIVE: Mutex<()> = Mutex::new(());

/// Acquires the global chaos lock, disarming every site first. Tests
/// that arm failpoints must hold the returned guard; `cargo test` runs
/// tests concurrently and the registry is process-global.
pub fn exclusive() -> ChaosGuard {
    let guard = EXCLUSIVE.lock().unwrap_or_else(PoisonError::into_inner);
    disarm_all();
    ChaosGuard { _guard: guard }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_site_never_faults_and_counts_nothing() {
        let fp = FailPoint::new("test.disarmed");
        for _ in 0..32 {
            assert_eq!(fp.check(), Fault::None);
        }
        assert_eq!(fp.hits(), 0);
        assert!(!fp.is_armed());
    }

    #[test]
    fn nth_trips_exactly_once_at_the_scheduled_hit() {
        let fp = FailPoint::new("test.nth");
        fp.arm(Schedule::nth(3));
        for hit in 0..8 {
            let fault = fp.check();
            if hit == 3 {
                assert_eq!(fault, Fault::Trip { payload: None }, "hit {hit}");
            } else {
                assert_eq!(fault, Fault::None, "hit {hit}");
            }
        }
        assert_eq!(fp.hits(), 8);
        assert_eq!(fp.trips(), 1);
        fp.disarm();
    }

    #[test]
    fn every_n_trips_periodically_and_times_caps_it() {
        let fp = FailPoint::new("test.every");
        fp.arm(Schedule::every(3).times(2));
        let faults: Vec<bool> = (0..12).map(|_| fp.check() != Fault::None).collect();
        let expected: Vec<bool> = (0..12).map(|h| h == 2 || h == 5).collect();
        assert_eq!(faults, expected, "trips at hits 2 and 5, then capped");
        assert_eq!(fp.trips(), 2);
        fp.disarm();
    }

    #[test]
    fn probability_schedules_replay_bit_identically_per_seed() {
        let fp = FailPoint::new("test.prob");
        let run = |seed: u64| -> Vec<bool> {
            fp.arm(Schedule::probability(0.35, seed));
            (0..64).map(|_| fp.check() != Fault::None).collect()
        };
        assert_eq!(run(11), run(11), "same seed, same fault sequence");
        assert_ne!(run(11), run(12), "different seed, different sequence");
        fp.disarm();
    }

    #[test]
    fn payload_and_kind_modifiers_are_delivered() {
        let fp = FailPoint::new("test.kinds");
        fp.arm(Schedule::always().payload(1234));
        assert_eq!(
            fp.check(),
            Fault::Trip {
                payload: Some(1234)
            }
        );
        fp.arm(Schedule::always().sleeping_ms(7));
        assert_eq!(fp.check(), Fault::Sleep { ms: 7 });
        fp.arm(Schedule::always().panicking());
        assert_eq!(fp.check(), Fault::Panic);
        fp.disarm();
    }

    #[test]
    fn fire_panics_on_panic_plans() {
        let fp = FailPoint::new("test.fire_panic");
        fp.arm(Schedule::always().panicking());
        let caught = std::panic::catch_unwind(|| fp.fire());
        assert!(caught.is_err(), "fire() must deliver the injected panic");
        fp.disarm();
    }

    #[test]
    fn rearming_resets_counters() {
        let fp = FailPoint::new("test.rearm");
        fp.arm(Schedule::nth(0));
        assert_ne!(fp.check(), Fault::None);
        fp.arm(Schedule::nth(0));
        assert_eq!(fp.hits(), 0);
        assert_ne!(fp.check(), Fault::None, "fresh arming trips again");
        fp.disarm();
    }

    #[test]
    fn registry_names_resolve() {
        let _chaos = exclusive();
        assert_eq!(sites::all().len(), 8);
        for site in sites::all() {
            assert!(std::ptr::eq(
                sites::by_name(site.name()).expect("registered"),
                site
            ));
            assert!(!site.is_armed(), "exclusive() must disarm everything");
        }
        assert!(sites::by_name("no.such.site").is_none());
    }
}
