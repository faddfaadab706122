//! Deterministic fault injection for the serving and adaptation tiers.
//!
//! Production fleets fail in ways a happy-path test suite never exercises:
//! sensors flat-line or emit NaN storms, disks fill up mid-checkpoint,
//! re-fit threads die, ticks blow their deadline under load. This crate
//! makes every one of those failures *schedulable* so the rest of the
//! workspace can prove its degradation behavior deterministically:
//!
//! * [`failpoint`] — a registry of named fault sites
//!   ([`sites::PERSIST_WRITE`], [`sites::ADAPT_REFIT`], …) that
//!   instrumented code checks at its fallible moments. Disarmed — the
//!   production state — a check is **one relaxed atomic load**; armed, a
//!   seeded [`Schedule`] decides per hit whether to inject a failure, a
//!   panic, or latency.
//! * [`input`] — a seeded generator of the mixed-fleet input pathologies
//!   (NaN storms, flat-lined sensors, dropped/duplicated observations,
//!   dimension-garbled rows) used to drive fleet tests end to end.
//!
//! Failpoints are process-global (that is the point: the code under test
//! must not know it is being tested), so tests that arm them must hold
//! the [`exclusive`] guard to serialize against other chaos tests in the
//! same binary.
//!
//! ```
//! use cae_chaos::{sites, Schedule};
//!
//! let _chaos = cae_chaos::exclusive(); // serialize + disarm on drop
//! sites::PERSIST_WRITE.arm(Schedule::nth(0)); // first write fails
//! assert!(sites::PERSIST_WRITE.fire().is_some());
//! assert!(sites::PERSIST_WRITE.fire().is_none()); // one-shot
//! ```

// Failpoints run inside the serving and recovery paths, so they must not
// panic except where a schedule injects one: clippy's restriction lints
// ban the panicking shortcuts here (test code is exempt through
// `clippy.toml`).
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::unwrap_in_result
)]

pub mod failpoint;
pub mod input;
pub mod rng;

pub use failpoint::{disarm_all, exclusive, sites, ChaosGuard, FailPoint, Fault, Schedule};
pub use input::{Delivery, FaultWindow, InputFault, StreamFaultInjector};
pub use rng::SplitMix64;
