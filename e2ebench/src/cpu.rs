//! On-CPU time of the calling thread.
//!
//! `serve_drift` serves beside its own re-fit thread, so on a two-vCPU
//! virtual machine on a shared host how long a tick takes by the wall
//! clock depends mostly on when the host and the kernel let the serving
//! thread run: in runs of the same code there, its wall-clock p99 moved
//! between 10 and 24 ms, while its on-CPU p99 stayed between 5.6 and
//! 7.8 ms. On-CPU time counts the work the tick does, including what the
//! re-fit's use of the shared caches and memory adds to it, and leaves out
//! the time the thread waited for a CPU.

/// Nanoseconds the calling thread has spent on a CPU
/// (`CLOCK_THREAD_CPUTIME_ID`).
#[cfg(target_os = "linux")]
pub fn thread_ns() -> u64 {
    use std::ffi::{c_int, c_long};

    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }
    const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two C longs on
    // Linux) for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Elsewhere: wall-clock nanoseconds since the first call.
#[cfg(not(target_os = "linux"))]
pub fn thread_ns() -> u64 {
    use std::sync::OnceLock;
    use std::time::Instant;
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn counts_work_but_not_sleep() {
        let from = thread_ns();
        std::thread::sleep(Duration::from_millis(50));
        let slept = thread_ns() - from;
        assert!(slept < 10_000_000, "a 50 ms sleep took {slept} ns on CPU");

        let from = thread_ns();
        let mut x = 1u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        assert!(thread_ns() - from > 1_000_000, "busy work took no CPU time");
    }
}
