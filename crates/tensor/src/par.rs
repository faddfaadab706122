//! Thread-level batch parallelism over a **persistent worker pool**.
//!
//! The paper's efficiency claim for convolutional autoencoders rests on the
//! fact that convolutions parallelize across time steps and batch elements
//! while RNN steps cannot. On CPU we realize that parallelism with a
//! process-wide pool of long-lived worker threads: workers are spawned
//! lazily on the first parallel kernel call and then parked on a condition
//! variable between jobs, so a training epoch pays the thread-spawn cost
//! **zero** times instead of once per kernel invocation (the previous
//! design spawned and joined scoped threads inside every call).
//!
//! Dispatch model (**spin, then park**):
//!
//! * A job is a count of independent tasks plus a closure `f(task_index)`.
//!   The submitting thread publishes the job, wakes any parked workers,
//!   and then participates in the work itself, so a pool with `n`
//!   configured threads uses `n - 1` workers plus the caller.
//! * Tasks are claimed with an atomic counter, executed, and counted; the
//!   submitter returns once every task has finished. Worker panics are
//!   caught, counted as completion, and re-raised on the submitting thread.
//! * A worker that has drained a job does not park at once: it spins on an
//!   atomic copy of the job generation for [`SPIN_WINDOW`] and only then
//!   parks on the condition variable. Likewise the submitter, after its
//!   own share, spins on the job's finished count for the same window
//!   before it waits. A training step submits jobs of a few tens of
//!   microseconds back to back, and waking a parked thread costs about as
//!   much (9–25 µs measured on a 2-vCPU VM, up to ~57 µs after an idle
//!   gap), so without the spin a 2-thread pool spent its second core on
//!   wake-ups. Publishing and completing skip the condvar notification
//!   entirely while nobody is parked.
//! * The window is a time bound, not an iteration count: long enough to
//!   bridge the serial gap between two kernels of one training step
//!   (typically well under 100 µs), short enough that an idle pool gives
//!   its cores back within a fraction of a millisecond, so the most a
//!   parked-for-good worker wastes is one window per idle period.
//! * Spinning only pays while every pool thread has a core of its own.
//!   When [`threads`] exceeds the machine's available parallelism (read
//!   once), a spinning thread steals the core the thread with the work
//!   needs, so the pool then parks immediately, exactly as a pure condvar
//!   pool would. Workers beyond the current [`threads`] setting (left
//!   over from a wider setting) never spin either.
//! * Nested parallel calls (a task that itself calls into [`for_each_chunk`]
//!   or [`map_indexed`]) run sequentially on the calling worker — the outer
//!   job already owns the pool, and coarse-grained parallelism wins.
//! * The pool holds one job at a time. A submitter that finds the slot
//!   held by another submitter's job runs its own job inline on the
//!   calling thread instead of queueing for the slot. A training step's
//!   shard phase holds the slot for about a millisecond at the benchmark
//!   shape (far longer at the paper's), and a serving tick on another
//!   thread must not wait behind it; nor can a job whose tasks wait on a
//!   second submitter's job deadlock.
//!
//! The thread count is a process-wide setting ([`set_threads`]); the default
//! of 1 keeps all kernels deterministic and overhead-free for the small
//! tensors used in tests. Benchmarks and the training harness raise it via
//! [`use_all_cores`]. Splitting is over contiguous, disjoint output spans
//! computed identically at every thread count, so threaded results are
//! **bit-exact** with the sequential path.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

static THREADS: AtomicUsize = AtomicUsize::new(1);

/// Hard cap on configured threads (and thus spawned workers).
const MAX_THREADS: usize = 256;

/// Sets the number of worker threads used by batched kernels.
///
/// Values are clamped to `1..=256`. Thread count 1 means fully sequential
/// execution (the default). Raising the count never re-spawns existing
/// workers; lowering it simply leaves the surplus workers parked.
pub fn set_threads(n: usize) {
    // Release/Acquire pairing with `threads()`: a kernel call that
    // observes the new count must also observe everything the caller
    // wrote before reconfiguring (e.g. a test arranging buffers before
    // raising the count on a pool another thread dispatches to).
    THREADS.store(n.clamp(1, MAX_THREADS), Ordering::Release);
}

/// Current worker-thread setting.
pub fn threads() -> usize {
    THREADS.load(Ordering::Acquire)
}

/// Convenience: set threads to the machine's available parallelism.
pub fn use_all_cores() {
    set_threads(available_cores());
}

/// The machine's available parallelism, read once.
fn available_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZero::get))
}

/// Minimum output size (elements) before a kernel fans out to threads.
///
/// Pool dispatch to a spinning worker costs well under a microsecond and
/// to a parked one a condvar wake (microseconds, not the tens of
/// microseconds a thread spawn used to cost), so the threshold is sized
/// such that the arithmetic under it dominates the dispatch.
pub const PAR_THRESHOLD: usize = 1 << 12;

/// How long an idle pool thread spins before it parks (see the module
/// docs for why the window has this length).
pub const SPIN_WINDOW: Duration = Duration::from_micros(300);

/// `spin_loop` hints between two reads of the clock while spinning.
const SPINS_PER_CLOCK_READ: u32 = 64;

/// Whether a pool of `threads` threads may spin: only while every thread
/// can have a core of its own.
fn spinning_pays(threads: usize) -> bool {
    threads <= available_cores()
}

/// Spins until `ready()` holds or [`SPIN_WINDOW`] has passed.
fn spin_until(ready: impl Fn() -> bool) {
    let start = Instant::now();
    loop {
        for _ in 0..SPINS_PER_CLOCK_READ {
            if ready() {
                return;
            }
            std::hint::spin_loop();
        }
        if start.elapsed() >= SPIN_WINDOW {
            return;
        }
    }
}

/// Total worker threads spawned by the pool over the process lifetime.
///
/// This is the probe used by tests and `perf_report` to verify that
/// workers are spawned **once per process**, not once per kernel call: the
/// value is bounded by `threads() - 1` and stays constant across any
/// number of kernel invocations.
pub fn pool_threads_spawned() -> usize {
    pool().spawned.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------
// Pool internals
// ---------------------------------------------------------------------

/// Lifetime- and type-erased pointer to the job closure: a thin data
/// pointer plus a monomorphized trampoline that casts it back. The
/// submitter guarantees the referent outlives the job (it blocks until
/// every task has finished), so handing the pointer to workers is sound.
/// Erasing through a raw pointer (rather than a transmuted `&'static`)
/// keeps the lifetime laundering visible: every use goes through
/// [`TaskPtr::call`], whose safety contract states the liveness
/// requirement.
#[derive(Clone, Copy)]
struct TaskPtr {
    data: *const (),
    trampoline: unsafe fn(*const (), usize),
}

// SAFETY: the pointee is `Sync` (the `F: Sync` bound on `erase` permits
// concurrent `&`-calls from any thread) and the submitting thread blocks
// in `run_tasks` until every task has finished, so no thread can observe
// the pointer after the referent's borrow ends.
unsafe impl Send for TaskPtr {}
// SAFETY: same argument — sharing the pointer only enables shared calls
// on a `Sync` closure whose liveness the submitter enforces by blocking.
unsafe impl Sync for TaskPtr {}

impl TaskPtr {
    /// Erases the closure's type and lifetime. Callers must not run the
    /// task after the original borrow ends — `run_tasks` enforces this by
    /// blocking until the job's finished count reaches its total.
    fn erase<F: Fn(usize) + Sync>(f: &F) -> Self {
        /// # Safety
        ///
        /// `data` must point to a live `F` (see [`TaskPtr::call`]).
        unsafe fn trampoline<F: Fn(usize) + Sync>(data: *const (), i: usize) {
            // SAFETY: `data` came from `erase::<F>` and the caller
            // contract guarantees the referent is still alive.
            unsafe { (*data.cast::<F>())(i) }
        }
        TaskPtr {
            data: (f as *const F).cast(),
            trampoline: trampoline::<F>,
        }
    }

    /// Runs task `i` through the erased closure.
    ///
    /// # Safety
    ///
    /// The closure passed to [`TaskPtr::erase`] must still be borrowed by
    /// the submitter. This holds for every call issued while the owning
    /// [`Job`] is published: the submitter keeps the closure alive until
    /// `finished` reaches `total`, and tasks are only claimed before that.
    unsafe fn call(&self, i: usize) {
        // SAFETY: liveness is guaranteed by the caller contract above;
        // the referent is `Sync`, so concurrent shared calls are fine.
        unsafe { (self.trampoline)(self.data, i) }
    }
}

/// One published job: `total` tasks executed via `task`.
struct Job {
    task: TaskPtr,
    total: usize,
    /// Next unclaimed task index.
    next: AtomicUsize,
    /// Number of finished tasks (monotonic up to `total`).
    finished: AtomicUsize,
    /// Set when any task panicked; re-raised by the submitter.
    panicked: AtomicBool,
}

impl Job {
    /// Claims and runs tasks until none remain. Returns whether this call
    /// finished the last task of the job.
    fn run(&self) -> bool {
        let mut finished_last = false;
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.total {
                return finished_last;
            }
            let task = self.task;
            // SAFETY: we claimed task `i` before `finished` reached
            // `total`, so the job is still published and the submitter is
            // still blocking with the closure borrowed.
            if catch_unwind(AssertUnwindSafe(|| unsafe { task.call(i) })).is_err() {
                // Release-pairs with the submitter's Acquire load after
                // the `finished` handshake, so the panic verdict is
                // ordered independently of that handshake.
                self.panicked.store(true, Ordering::Release);
            }
            let done = self.finished.fetch_add(1, Ordering::AcqRel) + 1;
            finished_last = done == self.total;
        }
    }
}

struct PoolState {
    /// The job currently being executed, if any. A single slot: a
    /// submitter that finds it taken runs its job inline instead.
    job: Option<Arc<Job>>,
    /// Bumped on every publication so parked workers can tell a fresh job
    /// from the one they already drained.
    generation: u64,
    /// Workers spawned so far.
    workers: usize,
    /// Workers waiting on `work_cv`; publication notifies only if any.
    parked: usize,
    /// Threads waiting on `done_cv`; completion notifies only if any.
    waiting: usize,
}

struct Pool {
    state: Mutex<PoolState>,
    /// Copy of `PoolState::generation`, stored (Release) under the lock
    /// right after the job slot is filled, so spinning workers can watch
    /// for a fresh job without taking the lock.
    published: AtomicU64,
    /// Signaled when a new job is published.
    work_cv: Condvar,
    /// Signaled when a job completes.
    done_cv: Condvar,
    /// Lifetime count of spawned worker threads (see
    /// [`pool_threads_spawned`]).
    spawned: AtomicUsize,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        state: Mutex::new(PoolState {
            job: None,
            generation: 0,
            workers: 0,
            parked: 0,
            waiting: 0,
        }),
        published: AtomicU64::new(0),
        work_cv: Condvar::new(),
        done_cv: Condvar::new(),
        spawned: AtomicUsize::new(0),
    })
}

impl Pool {
    fn lock(&self) -> std::sync::MutexGuard<'_, PoolState> {
        self.state.lock().expect("pool lock poisoned")
    }

    /// Waits on `done_cv`, counted so notifiers can skip the wake-up when
    /// nobody waits.
    fn wait_done<'a>(
        &self,
        mut st: std::sync::MutexGuard<'a, PoolState>,
    ) -> std::sync::MutexGuard<'a, PoolState> {
        st.waiting += 1;
        let mut st = self.done_cv.wait(st).expect("pool lock poisoned");
        st.waiting -= 1;
        st
    }
}

thread_local! {
    /// True while this thread is executing inside a pool job (worker
    /// threads permanently, the submitter during its participation).
    /// Nested parallel calls observe it and run sequentially.
    static IN_POOL: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Worker main loop: spin (see [`spinning_pays`]) and then park until a
/// fresh job generation appears, drain it, signal completion if we
/// finished the last task, repeat forever. Worker `idx` is surplus, and
/// parks without spinning, while `threads() - 1 <= idx`.
fn worker_loop(pool: &'static Pool, idx: usize) {
    IN_POOL.with(|f| f.set(true));
    let mut seen_generation = 0u64;
    loop {
        let threads = threads();
        if idx + 1 < threads && spinning_pays(threads) {
            // Acquire-pairs with the Release store in `run_tasks`: seeing
            // the new generation implies the job slot is filled, but the
            // job itself is still read under the lock below.
            spin_until(|| pool.published.load(Ordering::Acquire) != seen_generation);
        }
        let job = {
            let mut st = pool.lock();
            loop {
                if st.generation != seen_generation {
                    seen_generation = st.generation;
                    // `None` when the job finished before this worker got
                    // to it: go back to spinning for the next one.
                    break st.job.clone();
                }
                st.parked += 1;
                st = pool.work_cv.wait(st).expect("pool lock poisoned");
                st.parked -= 1;
            }
        };
        if job.is_some_and(|job| job.run()) {
            // Last task of the job: wake the submitter if it parked.
            // Reading `waiting` under the lock orders this check after the
            // submitter's check-then-wait.
            let st = pool.lock();
            if st.waiting > 0 {
                pool.done_cv.notify_all();
            }
        }
    }
}

/// Ensures at least `wanted` workers exist (capped at `MAX_THREADS - 1`).
fn ensure_workers(pool: &'static Pool, wanted: usize) {
    let wanted = wanted.min(MAX_THREADS - 1);
    if pool.spawned.load(Ordering::Relaxed) >= wanted {
        return;
    }
    let mut st = pool.lock();
    while st.workers < wanted {
        let idx = st.workers;
        #[allow(
            clippy::disallowed_methods,
            reason = "the worker pool is the workspace's sanctioned thread spawner"
        )]
        let spawn = std::thread::Builder::new()
            .name(format!("cae-par-{idx}"))
            .spawn(move || worker_loop(pool, idx));
        match spawn {
            Ok(_) => {
                st.workers += 1;
                pool.spawned.fetch_add(1, Ordering::Relaxed);
            }
            // Out of threads: run with what we have — the submitter
            // participates, so the job still completes.
            Err(_) => break,
        }
    }
}

/// Executes `total` tasks on the pool with up to `workers` threads
/// (including the calling thread), blocking until all have finished.
///
/// Falls back to a plain sequential loop when the pool would not help or
/// is taken: one task, one configured thread, a nested call from inside a
/// job, or a job slot held by another submitter.
fn run_tasks<F: Fn(usize) + Sync>(total: usize, workers: usize, f: &F) {
    let inline = || (0..total).for_each(f);
    if total == 0 {
        return;
    }
    if total == 1 || workers <= 1 || IN_POOL.with(std::cell::Cell::get) {
        return inline();
    }

    let pool = pool();
    ensure_workers(pool, workers - 1);
    let job = Arc::new(Job {
        task: TaskPtr::erase(f),
        total,
        next: AtomicUsize::new(0),
        finished: AtomicUsize::new(0),
        panicked: AtomicBool::new(false),
    });

    let wake = {
        let mut st = pool.lock();
        if st.job.is_some() {
            // Another submitter's job holds the single slot: run this one
            // on the calling thread rather than wait behind it.
            drop(st);
            return inline();
        }
        st.job = Some(job.clone());
        st.generation += 1;
        pool.published.store(st.generation, Ordering::Release);
        st.parked > 0
    };
    crate::obs::set_pool_queue_depth(total);
    if wake {
        pool.work_cv.notify_all();
    }

    // Participate: the submitter is one of the `workers` threads. (No
    // completion signal needed from this side — the wait below re-checks
    // the finished count under the lock.)
    IN_POOL.with(|g| g.set(true));
    job.run();
    IN_POOL.with(|g| g.set(false));

    // Acquire-pairs with the AcqRel increments in `Job::run`: once the
    // count reaches `total`, every task's writes are visible here.
    let all_done = || job.finished.load(Ordering::Acquire) >= total;
    if !all_done() && spinning_pays(threads()) {
        spin_until(all_done);
    }
    {
        let mut st = pool.lock();
        while !all_done() {
            st = pool.wait_done(st);
        }
        st.job = None;
    }
    crate::obs::set_pool_queue_depth(0);

    if job.panicked.load(Ordering::Acquire) {
        panic!("cae-tensor pool worker panicked");
    }
}

/// Raw mutable base pointer that may cross the closure boundary; spans
/// written through it are disjoint per task. (The accessor method forces
/// closures to capture the whole wrapper, not the raw-pointer field.)
/// Shared with the packed GEMM driver, which fans row blocks out the
/// same way.
pub(crate) struct SyncMutPtr<T>(pub(crate) *mut T);
// SAFETY: every user writes only a task-private, disjoint index range
// through the pointer, and the allocation outlives the job because the
// submitter blocks until all tasks finish — so shared access never
// aliases a live mutable write.
unsafe impl<T> Sync for SyncMutPtr<T> {}
// SAFETY: same disjointness/liveness argument; moving the wrapper across
// threads transfers no ownership of the pointee.
unsafe impl<T> Send for SyncMutPtr<T> {}

impl<T> SyncMutPtr<T> {
    #[inline]
    pub(crate) fn get(&self) -> *mut T {
        self.0
    }
}

// ---------------------------------------------------------------------
// Public kernels
// ---------------------------------------------------------------------

/// Runs `f(batch_index, chunk)` for every `chunk_len`-sized chunk of `out`,
/// in parallel when more than one thread is configured **and** the total
/// work exceeds [`PAR_THRESHOLD`].
///
/// `out.len()` must be a multiple of `chunk_len`. The closure receives
/// disjoint output chunks, so no synchronization is needed. Chunks are
/// grouped into one contiguous span per worker; every span is computed
/// exactly as the sequential loop would, so results are bit-exact across
/// thread counts.
pub fn for_each_chunk<F>(out: &mut [f32], chunk_len: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    if chunk_len == 0 || out.is_empty() {
        return;
    }
    assert_eq!(
        out.len() % chunk_len,
        0,
        "output length {} is not a multiple of chunk length {chunk_len}",
        out.len()
    );
    let batches = out.len() / chunk_len;
    let workers = threads().min(batches);
    if workers <= 1 || out.len() < PAR_THRESHOLD {
        for (bi, chunk) in out.chunks_exact_mut(chunk_len).enumerate() {
            f(bi, chunk);
        }
        return;
    }
    // One contiguous span of chunks per worker.
    let per = batches.div_ceil(workers);
    let spans = batches.div_ceil(per);
    let out_len = out.len();
    let base = SyncMutPtr(out.as_mut_ptr());
    run_tasks(spans, workers, &|s| {
        let lo = s * per;
        let hi = (lo + per).min(batches);
        debug_assert!(hi <= batches && (hi - lo) * chunk_len <= out_len);
        for bi in lo..hi {
            // SAFETY: `bi * chunk_len + chunk_len <= out.len()` (checked
            // by the multiple-of assert above and `hi <= batches`), spans
            // never overlap across tasks, and the submitter blocks until
            // every task is done, so `out` outlives every write.
            let chunk = unsafe {
                std::slice::from_raw_parts_mut(base.get().add(bi * chunk_len), chunk_len)
            };
            f(bi, chunk);
        }
    });
}

/// Runs `f(i)` for every `i in 0..n` on the pool, collecting nothing.
///
/// This is the fan-out primitive of the packed GEMM driver: tasks are
/// claimed dynamically by an atomic counter, so callers whose tasks write
/// disjoint output regions (e.g. fixed-size row blocks) need no further
/// coordination. Falls back to a sequential loop for one task, one
/// configured thread, or a nested call from inside a pool job.
pub fn for_each_index<F>(n: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    run_tasks(n, threads().min(n), &f);
}

/// Runs `f(i, &mut items[i])` for every item, one pool task per item,
/// each task with exclusive access to its own item.
///
/// This is the fan-out for coarse tasks that each own mutable state
/// across calls, such as the training shards, each with its own tape:
/// [`for_each_span`] with one-item spans.
pub fn for_each_mut<T, F>(items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    for_each_span(items, 1, |i, item| f(i, &mut item[0]));
}

/// Runs `f(i, span)` for every `span_len`-sized span of `out`, one pool
/// task per span, claimed dynamically like [`map_indexed`]'s indices.
///
/// Unlike [`for_each_chunk`] there is no [`PAR_THRESHOLD`]: each task is
/// coarse (the scorer's runs a whole forward pass) however few values it
/// writes. `out.len()` must be a multiple of `span_len`.
pub fn for_each_span<T, F>(out: &mut [T], span_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if span_len == 0 {
        return;
    }
    assert_eq!(
        out.len() % span_len,
        0,
        "length {} is not a multiple of span length {span_len}",
        out.len()
    );
    let n = out.len() / span_len;
    let base = SyncMutPtr(out.as_mut_ptr());
    run_tasks(n, threads().min(n), &|i| {
        debug_assert!(i < n, "task {i} exceeds span count {n}");
        // SAFETY: `(i + 1) * span_len <= out.len()` because `i < n`, every
        // span is claimed by exactly one task, and the submitter holds the
        // `&mut [T]` borrow until every task has finished, so each span is
        // unique and live. `T: Send` lets it move to the worker that
        // claims it.
        f(i, unsafe {
            std::slice::from_raw_parts_mut(base.get().add(i * span_len), span_len)
        });
    });
}

/// Runs `f(i)` for every `i in 0..n` in parallel, collecting results in
/// order. Use this for coarse-grained work where every task is heavy
/// (training independent ensemble members, growing isolation-forest trees,
/// the deferred weight gradients of a backward pass): each index is its
/// own pool task, claimed dynamically, so tasks of uneven cost balance
/// across the workers.
pub fn map_indexed<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    map_spans(n, threads().min(n), 1, f)
}

/// Runs `f(i)` for every `i in 0..n` in parallel, fanning out only when
/// every worker gets at least `min_per_worker` items.
///
/// The minimum is the granularity guard for cheap per-item workloads
/// (e.g. per-point neighbor queries): with `n = 300` and
/// `min_per_worker = 128` at most two workers engage, and below 256 items
/// the loop stays sequential instead of waking the whole pool. Items are
/// grouped into one contiguous span per worker.
pub fn map_indexed_min<T, F>(n: usize, min_per_worker: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let by_granularity = n / min_per_worker.max(1);
    let workers = threads().min(by_granularity.max(1)).min(n.max(1));
    map_spans(n, workers, n.div_ceil(workers), f)
}

/// Runs `f(i)` for every `i in 0..n` on up to `workers` threads, one pool
/// task per span of `per` consecutive indices, collecting results in
/// order.
fn map_spans<T, F>(n: usize, workers: usize, per: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if workers <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let spans = n.div_ceil(per);
    let base = SyncMutPtr(slots.as_mut_ptr());
    run_tasks(spans, workers, &|s| {
        let lo = s * per;
        let hi = (lo + per).min(n);
        debug_assert!(hi <= n, "span [{lo}, {hi}) exceeds slot count {n}");
        for i in lo..hi {
            // SAFETY: `i < n == slots.len()` and spans are disjoint per
            // task, so each slot is written by exactly one thread while
            // the submitter keeps `slots` alive by blocking.
            unsafe { *base.get().add(i) = Some(f(i)) };
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("worker did not fill slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard, OnceLock};

    /// The thread count and spawn counter are process-global; tests that
    /// touch them must not interleave under the parallel test harness.
    fn lock() -> MutexGuard<'static, ()> {
        static GATE: OnceLock<Mutex<()>> = OnceLock::new();
        GATE.get_or_init(|| Mutex::new(()))
            .lock()
            .expect("par test gate poisoned")
    }

    #[test]
    fn sequential_chunks_cover_all() {
        let _gate = lock();
        set_threads(1);
        let mut out = vec![0.0f32; 12];
        for_each_chunk(&mut out, 3, |bi, chunk| {
            for c in chunk.iter_mut() {
                *c = bi as f32;
            }
        });
        assert_eq!(
            out,
            vec![0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 3.0, 3.0, 3.0]
        );
    }

    #[test]
    fn parallel_matches_sequential() {
        let _gate = lock();
        let work = |bi: usize, chunk: &mut [f32]| {
            for (j, c) in chunk.iter_mut().enumerate() {
                *c = (bi * 31 + j) as f32;
            }
        };
        // Large enough to clear PAR_THRESHOLD so the threaded path runs.
        let n = 16 * PAR_THRESHOLD;
        set_threads(1);
        let mut seq = vec![0.0f32; n];
        for_each_chunk(&mut seq, n / 16, work);
        set_threads(4);
        let mut par = vec![0.0f32; n];
        for_each_chunk(&mut par, n / 16, work);
        set_threads(1);
        assert_eq!(seq, par);
    }

    #[test]
    fn map_indexed_in_order() {
        let _gate = lock();
        set_threads(3);
        let v = map_indexed(10, |i| i * i);
        set_threads(1);
        assert_eq!(v, vec![0, 1, 4, 9, 16, 25, 36, 49, 64, 81]);
    }

    #[test]
    fn map_indexed_min_guards_granularity() {
        let _gate = lock();
        set_threads(4);
        // 10 items at 128-per-worker minimum: stays sequential, still correct.
        let v = map_indexed_min(10, 128, |i| i + 1);
        assert_eq!(v, (1..=10).collect::<Vec<_>>());
        // Large n fans out and matches the sequential result.
        let big = map_indexed_min(1000, 128, |i| i * 3);
        set_threads(1);
        assert_eq!(big, (0..1000).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn map_indexed_runs_uneven_tasks_in_order() {
        let _gate = lock();
        let work = |i: usize| fixed_work(if i < 3 { 4_000 } else { 50 }, i);
        set_threads(1);
        let seq = map_indexed(12, work);
        set_threads(2);
        let par = map_indexed(12, work);
        set_threads(1);
        assert_eq!(seq, par);
    }

    /// `steps` rounds of integer mixing seeded by `seed`.
    fn fixed_work(steps: u32, seed: usize) -> u32 {
        (0..steps).fold(seed as u32, |x, s| {
            x.wrapping_mul(1_664_525).wrapping_add(s)
        })
    }

    #[test]
    fn empty_work_is_ok() {
        let _gate = lock();
        let mut out: Vec<f32> = vec![];
        for_each_chunk(&mut out, 4, |_, _| panic!("must not be called"));
        let v: Vec<u8> = map_indexed(0, |_| 1u8);
        assert!(v.is_empty());
    }

    #[test]
    fn workers_are_spawned_once_per_process() {
        let _gate = lock();
        set_threads(4);
        let run = || {
            let mut out = vec![0.0f32; 4 * PAR_THRESHOLD];
            for_each_chunk(&mut out, PAR_THRESHOLD / 4, |bi, c| {
                c[0] = bi as f32;
            });
        };
        run();
        // Sibling tests (serialized by the gate) may already have grown
        // the pool; this 4-thread run guarantees at least one worker and
        // at most 3 exist, and the count must not grow afterwards.
        let after_first = pool_threads_spawned();
        assert!(
            (1..=3).contains(&after_first),
            "expected 1..=3 workers, got {after_first}"
        );
        for _ in 0..50 {
            run();
        }
        set_threads(1);
        assert_eq!(
            pool_threads_spawned(),
            after_first,
            "pool re-spawned workers on later kernel calls"
        );
    }

    #[test]
    fn nested_calls_run_sequentially_and_complete() {
        let _gate = lock();
        set_threads(4);
        let outer: Vec<Vec<usize>> = map_indexed(8, |i| {
            // Nested call from inside a pool task: must not deadlock.
            map_indexed(16, move |j| i * 16 + j)
        });
        set_threads(1);
        for (i, inner) in outer.iter().enumerate() {
            assert_eq!(*inner, (i * 16..(i + 1) * 16).collect::<Vec<_>>());
        }
    }

    /// A four-chunk job that clears `PAR_THRESHOLD`: every element is
    /// float arithmetic on its index, over a buffer that starts as NaN, so
    /// a skipped or misplaced chunk shows in the bits.
    fn four_chunk_job() -> Vec<u32> {
        let mut out = vec![f32::NAN; 4 * PAR_THRESHOLD];
        for_each_chunk(&mut out, PAR_THRESHOLD, |bi, chunk| {
            for (j, c) in chunk.iter_mut().enumerate() {
                *c = ((bi * PAR_THRESHOLD + j) as f32).sqrt() * 0.37 + bi as f32;
            }
        });
        out.iter().map(|v| v.to_bits()).collect()
    }

    fn sequential_reference() -> Vec<u32> {
        set_threads(1);
        four_chunk_job()
    }

    #[test]
    fn job_after_the_spin_window_runs_on_parked_workers() {
        let _gate = lock();
        let reference = sequential_reference();
        set_threads(2);
        assert_eq!(four_chunk_job(), reference);
        // Long enough for every pool thread to stop spinning and park.
        std::thread::sleep(SPIN_WINDOW * 10);
        let got = four_chunk_job();
        set_threads(1);
        assert_eq!(got, reference, "job published to parked workers");
    }

    #[test]
    fn back_to_back_jobs_run_on_spinning_workers() {
        let _gate = lock();
        let reference = sequential_reference();
        set_threads(2);
        let mismatch = (0..1000).find(|_| four_chunk_job() != reference);
        set_threads(1);
        assert_eq!(mismatch, None, "back-to-back job differs");
    }

    #[test]
    fn oversubscribed_pool_parks_and_completes() {
        let _gate = lock();
        let reference = sequential_reference();
        // One thread more than the machine has cores: spinning is off.
        // The job's four chunks cap the workers it engages at three.
        set_threads(available_cores() + 1);
        assert!(!spinning_pays(threads()));
        let mismatch = (0..200).find(|_| four_chunk_job() != reference);
        set_threads(1);
        assert_eq!(mismatch, None, "oversubscribed job differs");
    }

    #[test]
    fn for_each_mut_visits_every_item_once_with_its_index() {
        let _gate = lock();
        for threads in [1, 2, 3] {
            set_threads(threads);
            let mut items: Vec<(usize, u32)> = vec![(usize::MAX, 0); 7];
            for_each_mut(&mut items, |i, item| {
                item.0 = i;
                item.1 += fixed_work(500, i);
            });
            set_threads(1);
            let want: Vec<(usize, u32)> = (0..7).map(|i| (i, fixed_work(500, i))).collect();
            assert_eq!(items, want, "at {threads} threads");
        }
    }

    #[test]
    fn for_each_span_hands_every_span_to_one_task() {
        let _gate = lock();
        for threads in [1, 2, 3] {
            set_threads(threads);
            let mut out = vec![u32::MAX; 5 * 3];
            for_each_span(&mut out, 3, |i, span| {
                for (j, v) in span.iter_mut().enumerate() {
                    *v = fixed_work(300, i * 3 + j);
                }
            });
            set_threads(1);
            let want: Vec<u32> = (0..15).map(|k| fixed_work(300, k)).collect();
            assert_eq!(out, want, "at {threads} threads");
        }
        for_each_span(&mut [0u32; 0], 4, |_, _| panic!("no span to visit"));
    }

    #[test]
    fn for_each_mut_runs_inline_when_nested_or_at_one_thread() {
        let _gate = lock();
        let on_caller = |items: &mut [std::thread::ThreadId]| {
            let caller = std::thread::current().id();
            for_each_mut(items, |_, id| *id = std::thread::current().id());
            items.iter().all(|&id| id == caller)
        };
        set_threads(1);
        assert!(on_caller(&mut [std::thread::current().id(); 4]));
        set_threads(2);
        let nested = map_indexed(4, |_| on_caller(&mut [std::thread::current().id(); 4]));
        set_threads(1);
        assert_eq!(nested, vec![true; 4], "a nested fan-out left its task");
    }

    #[test]
    fn for_each_mut_reraises_a_task_panic() {
        let _gate = lock();
        set_threads(2);
        let caught = catch_unwind(|| {
            for_each_mut(&mut [0u8; 2], |i, _| {
                if i == 1 {
                    panic!("task failure");
                }
            });
        });
        set_threads(1);
        assert!(
            caught.is_err(),
            "panic in a for_each_mut task must propagate"
        );
    }

    /// A job whose tasks wait for a flag that only a second submitter's
    /// job sets: a second submitter that queued for the slot would wait
    /// for a job that waits for it. The pair runs on a thread of its own,
    /// joined only once it has reported back, so that a deadlock fails
    /// the test after the timeout instead of hanging it.
    #[test]
    #[allow(
        clippy::disallowed_methods,
        reason = "the second submitter and the timeout need threads outside the pool"
    )]
    fn busy_slot_runs_a_second_submitters_job_inline() {
        let _gate = lock();
        set_threads(2);
        let (done, finished) = std::sync::mpsc::channel();
        let pair = std::thread::spawn(move || {
            let started = AtomicBool::new(false);
            let flag = AtomicBool::new(false);
            std::thread::scope(|s| {
                s.spawn(|| {
                    while !started.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                    for_each_index(2, |_| flag.store(true, Ordering::Release));
                });
                for_each_index(2, |_| {
                    started.store(true, Ordering::Release);
                    while !flag.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                });
            });
            done.send(()).ok();
        });
        let outcome = finished.recv_timeout(Duration::from_secs(30));
        set_threads(1);
        assert!(
            outcome != Err(std::sync::mpsc::RecvTimeoutError::Timeout),
            "the second submitter queued behind a job that waits for it"
        );
        // Reported back or panicked: either way the thread has ended.
        if let Err(panic) = pair.join() {
            std::panic::resume_unwind(panic);
        }
    }

    #[test]
    fn worker_panic_propagates() {
        let _gate = lock();
        set_threads(2);
        let caught = catch_unwind(|| {
            let mut out = vec![0.0f32; 2 * PAR_THRESHOLD];
            for_each_chunk(&mut out, PAR_THRESHOLD, |bi, _| {
                if bi == 1 {
                    panic!("task failure");
                }
            });
        });
        set_threads(1);
        assert!(caught.is_err(), "panic in a pool task must propagate");
    }
}
