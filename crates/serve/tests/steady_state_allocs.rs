//! A warm serving tick and streaming push allocate nothing.
//!
//! A counting global allocator sees every allocation of every thread. A
//! 64-stream fleet with telemetry on and a [`StreamingDetector`] run 40
//! warm-up rounds, then 100 counted ones, at pools 1 and 2. The rounds
//! include a non-finite observation, a push to a removed stream, a push
//! of the wrong width and ticks whose budget sheds ready streams. This
//! binary holds one test, so no other test thread allocates meanwhile.

use cae_core::{CaeConfig, CaeEnsemble, EnsembleConfig, StreamingDetector};
use cae_data::{Detector, TimeSeries};
use cae_obs::MetricsRegistry;
use cae_serve::{FleetDetector, HealthConfig, PushError, StreamId};
use cae_tensor::par;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting while `COUNTING` is on. The default
/// `alloc_zeroed` and `realloc` go through `alloc`, so they count too.
struct Counting;

// SAFETY: both methods forward to `System` unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            CALLS.fetch_add(1, Relaxed);
        }
        // SAFETY: the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The benchmark's shape: D = 38, D′ = 24, w = 16, L = 2, 5 members.
const DIM: usize = 38;

fn observation(stream: usize, t: usize) -> [f32; DIM] {
    std::array::from_fn(|d| (t as f32 * 0.21 + stream as f32 * 0.37 + d as f32 * 0.05).sin())
}

/// Runs 40 warm-up rounds, then returns the allocations of the next 100.
fn counted(mut round: impl FnMut(usize)) -> usize {
    (0..40).for_each(&mut round);
    CALLS.store(0, Relaxed);
    COUNTING.store(true, Relaxed);
    (40..140).for_each(&mut round);
    COUNTING.store(false, Relaxed);
    CALLS.load(Relaxed)
}

#[test]
fn serving_allocates_nothing_at_steady_state() {
    let mut train = TimeSeries::empty(DIM);
    (0..240).for_each(|t| train.push(&observation(0, t)));
    let mut ens = CaeEnsemble::new(
        CaeConfig::new(DIM).embed_dim(24).window(16).layers(2),
        EnsembleConfig::new()
            .num_models(5)
            .epochs_per_model(1)
            .train_stride(8)
            .seed(5),
    );
    ens.fit(&train);
    let ens = Arc::new(ens);
    let registry = MetricsRegistry::new();
    cae_tensor::obs::install(&registry);
    let mut fleet =
        FleetDetector::with_observability(Arc::clone(&ens), HealthConfig::default(), &registry);
    let ids: Vec<StreamId> = (0..64).map(|_| fleet.add_stream()).collect();
    let stale = fleet.add_stream();
    fleet.remove_stream(stale);
    let mut out = Vec::with_capacity(ids.len());
    let mut streaming = StreamingDetector::new(&ens);
    let mut scored = 0;

    // One push per stream, then a tick. Every tenth round also feeds a
    // NaN, a stale id and a short row; others tick under a budget of 40.
    let mut fleet_round = |k: usize| {
        for (s, &id) in ids.iter().enumerate() {
            let mut obs = observation(s, k);
            if k % 10 == 3 && s == 7 {
                obs[DIM / 2] = f32::NAN;
            }
            assert!(fleet.push(id, &obs).is_ok());
        }
        if k % 10 == 3 {
            let obs = observation(0, k);
            assert_eq!(fleet.push(stale, &obs), Err(PushError::UnknownStream));
            let short = fleet.push(ids[9], &obs[1..]);
            assert!(matches!(short, Err(PushError::DimMismatch { .. })));
        }
        fleet.set_tick_budget(if k % 10 == 8 { 40 } else { usize::MAX });
        fleet.tick(&mut out);
        assert!(k < 15 || !out.is_empty(), "round {k} scored nothing");
    };

    let mut failures = Vec::new();
    for threads in [1, 2] {
        par::set_threads(threads);
        let ticks = counted(&mut fleet_round);
        let pushes = counted(|k| scored += streaming.push(&observation(0, k)).is_some() as usize);
        for (what, calls) in [("ticks", ticks), ("pushes", pushes)] {
            if calls > 0 {
                failures.push(format!("100 {what} at pool {threads}: {calls} allocations"));
            }
        }
    }
    par::set_threads(1);
    assert!(scored > 200, "the streaming detector never warmed up");
    assert!(failures.is_empty(), "{failures:#?}");
}
