//! Deterministic parallelism for batch evaluation, built on a
//! **process-wide, self-scheduling worker pool**.
//!
//! The environment this workspace builds in has no registry access, so
//! instead of `rayon` this module provides the order-preserving
//! parallel maps the engine needs. Workers are spawned once and live
//! for the process; every thread (each pool worker and every caller
//! thread) keeps a **sticky scratch arena** keyed by the scratch type
//! of the call site, so [`parallel_map_with`] callers build their
//! `EvalScratch`/`DeltaScratch` once per thread *lifetime*, not once
//! per batch. The slot contract: a scratch must be a **buffer, not an
//! accumulator** — the mapped function must produce output that is a
//! pure function of its item, whatever state a previous batch
//! (possibly of a *different problem*) left in the slot. Every scratch
//! type in the workspace honours this (pinned by
//! `tests/scratch_properties.rs` and the reused-slot staleness test in
//! `tests/thread_invariance.rs`).
//!
//! # Entry points
//!
//! * [`parallel_map`] / [`parallel_map_with`] — the fine-grained maps
//!   behind batch evaluation and the engine's peek scans. They price
//!   the batch at its measured item cost and wake workers only when the
//!   batch pays for the wake-up (the cost test below).
//! * [`parallel_map_tasks`] — the coarse-grained map behind portfolio
//!   lanes (whole optimizer runs): it wakes workers at once.
//! * [`pool_map_with`] / [`reference_map_with`] — the measurement and
//!   property-test surface: the former wakes workers at once at an
//!   explicit worker count, the latter is the retained scope-spawn
//!   implementation (fresh threads, fresh scratches) that
//!   `bench::parallel` races the pool against and
//!   `tests/thread_invariance.rs` pins bit-identical to it.
//!
//! # Batch lifecycle
//!
//! 1. The caller starts working through the batch at once, on its
//!    sticky scratch slot and with the *in-batch flag* set — the flag
//!    every pool worker carries for its whole life.
//! 2. If it wakes workers, it sends each of them the batch's job
//!    header, an `Arc` holding a closed bit, a count of registered
//!    workers and a pointer to the batch. The items, the closures and
//!    the result slots stay on the caller's stack.
//! 3. Caller and registered workers claim runs of items from one shared
//!    atomic cursor — each claim a shrinking share of the unclaimed
//!    rest, down to single items (guided self-scheduling) — and each
//!    result lands in its own input-indexed slot, so the output is in
//!    input order whoever ran an item.
//! 4. When the cursor runs out, the caller sets the closed bit and
//!    waits only for the workers that registered before it; each of
//!    them finishes at most the run it holds. A worker that wakes after
//!    the close drops the job without touching the batch.
//!
//! A panic in the mapped function is caught on the thread that raised
//! it, stops the cursor, and is resumed on the caller once every
//! registered worker has left; a worker whose share panicked clears
//! its scratch arena, so a half-updated scratch never survives into a
//! later batch.
//!
//! # Cost test
//!
//! Waking a parked worker costs microseconds to tens of microseconds,
//! while the items of many batches cost one. So [`parallel_map_with`]
//! prices the unclaimed rest of a batch at a **measured item cost**:
//! the mean this thread measured at the same call site on its previous
//! batch there, or — on its first batch there — the cost of the first
//! item, run inline and timed. It wakes workers only if a woken worker
//! would arrive before the caller is halfway through that rest,
//! counting the send the caller pays to wake it: `rest / 2 > wake +
//! send`. The pool measures both latencies itself on the wake-ups it
//! performs, each as the median of its last few samples: *send* is
//! what a job's first send costs the caller, *wake* runs from the send
//! until the first worker picks the job up — if that worker had to
//! wait for it (a job found already queued says nothing about
//! wake-ups). Until samples arrive the estimates are zero, so the
//! first batches wake workers and calibrate them. There is nothing to
//! tune: no floor, no environment variable. The fine-grained maps also
//! wake at most one worker per other core: their items are CPU-bound,
//! so extra threads would only take turns on the cores. Because the
//! caller never blocks on a worker that has not started, a late
//! wake-up costs the caller only the send.
//!
//! # Pool lifecycle
//!
//! Workers are spawned lazily on first wake-up and never exit; the pool
//! grows monotonically to the largest worker count any batch has asked
//! for, and a batch at `w` workers wakes at most the first `w - 1`
//! workers (plus the caller thread). [`set_worker_override`] and
//! `PHONOC_WORKERS` therefore re-pin the pool *deterministically
//! between batches*: shrinking leaves the extra workers idle (their
//! sticky scratches intact), growing spawns the missing workers on the
//! next wake-up. Worker threads block on their channel when idle and
//! die with the process.
//!
//! # Deadlock rule
//!
//! **The dispatcher waits only on workers that registered.** A
//! registered worker is running this batch's items, and a batch started
//! from inside an item — on a pool worker or on the caller's own share
//! (portfolio lanes calling the engine's batch scans) — runs inline on
//! that thread, because both carry the in-batch flag. So no wait ever
//! depends on pool capacity: a lane's scans stay on the lane's core
//! instead of queuing behind another lane's round, and a worker busy
//! elsewhere simply arrives late and finds the batch closed.
//!
//! # Worker-count control and invariance
//!
//! The worker ceiling is normally the machine's available parallelism,
//! but can be pinned — `PHONOC_WORKERS=N` in the environment (read
//! once), or [`set_worker_override`] at run time (tests; the runtime
//! setting wins). **Results never depend on the worker count or on
//! which thread ran an item**: every result lands in its input-indexed
//! slot, so a 1-worker and an 8-worker run of the same batch are
//! bit-identical as long as the mapped function is a pure function of
//! its item (the scratch-slot buffer contract above) —
//! property-tested in `tests/thread_invariance.rs` at 1/2/4/8 workers,
//! including across a mid-run override resize. If `rayon` is ever
//! vendored, only this module needs to change.

use std::any::{Any, TypeId};
use std::cell::{Cell, RefCell, UnsafeCell};
use std::marker::PhantomData;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvError, Sender, TryRecvError};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::Thread;
use std::time::Instant;

/// Runtime worker-count override; `0` means "not set". Takes
/// precedence over the `PHONOC_WORKERS` environment variable.
static WORKER_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Pins (Some, clamped to ≥ 1) or releases (None) the worker ceiling
/// used by every parallel map in this process. The thread-invariance
/// property tests drive this; production runs use the
/// `PHONOC_WORKERS` environment variable instead. Changing the worker
/// count between batches resizes which pool workers the next batch may
/// wake, but never changes any map's results (see the
/// [module docs](self)), only how the work is scheduled.
pub fn set_worker_override(workers: Option<usize>) {
    WORKER_OVERRIDE.store(workers.map_or(0, |w| w.max(1)), Ordering::Relaxed);
}

/// The `PHONOC_WORKERS` environment setting, parsed once: the CI
/// worker matrix pins worker counts process-wide through it.
fn env_workers() -> Option<usize> {
    static ENV: OnceLock<Option<usize>> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("PHONOC_WORKERS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .map(|w| w.max(1))
    })
}

/// The machine's available parallelism, read once: on Linux the query
/// reads the cgroup CPU quota, which costs about as much as a wake-up
/// — far more than most batches.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// The effective worker ceiling: runtime override, then
/// `PHONOC_WORKERS`, then the machine's available parallelism.
pub(crate) fn max_workers() -> usize {
    match WORKER_OVERRIDE.load(Ordering::Relaxed) {
        0 => env_workers().unwrap_or_else(cores),
        pinned => pinned,
    }
}

// ---------------------------------------------------------------------
// Sticky scratch slots and the in-batch flag
// ---------------------------------------------------------------------

thread_local! {
    /// This thread's scratch arena: one slot per scratch *type* ever
    /// used on this thread, linearly scanned (call sites use a handful
    /// of types, so a scan beats hashing). Slots are taken out for the
    /// duration of a share and put back after it, which keeps the
    /// arena re-entrant for nested inline batches.
    static ARENA: RefCell<Vec<(TypeId, Box<dyn Any + Send>)>> = const { RefCell::new(Vec::new()) };
    /// Whether this thread is running a batch's items: always on pool
    /// workers, and on a caller thread while it runs its own share.
    /// Batches started with the flag set run inline (the deadlock rule
    /// in the module docs).
    static IN_BATCH: Cell<bool> = const { Cell::new(false) };
}

/// Sets the in-batch flag on the caller thread for the guard's
/// lifetime (it is only entered while the flag is clear).
struct InBatch;

impl InBatch {
    fn enter() -> InBatch {
        IN_BATCH.set(true);
        InBatch
    }
}

impl Drop for InBatch {
    fn drop(&mut self) {
        IN_BATCH.set(false);
    }
}

/// Runs `body` on this thread's sticky scratch slot for `S`, creating
/// it via `init` the first time this thread sees the type. The slot is
/// removed from the arena while `body` runs (re-entrancy) and returned
/// afterwards; if `body` panics the slot is dropped instead, so a
/// half-updated scratch never survives into a later batch.
fn with_slot<S, I, R>(init: &I, body: impl FnOnce(&mut S) -> R) -> R
where
    S: Send + 'static,
    I: Fn() -> S,
{
    let taken: Option<Box<dyn Any + Send>> = ARENA.with(|arena| {
        let mut slots = arena.borrow_mut();
        let idx = slots.iter().position(|(t, _)| *t == TypeId::of::<S>())?;
        Some(slots.swap_remove(idx).1)
    });
    let mut slot: Box<S> = match taken {
        Some(boxed) => boxed.downcast::<S>().expect("arena slot keyed by TypeId"),
        None => Box::new(init()),
    };
    let out = body(&mut slot);
    ARENA.with(|arena| arena.borrow_mut().push((TypeId::of::<S>(), slot)));
    out
}

// ---------------------------------------------------------------------
// The cost test
// ---------------------------------------------------------------------

/// How many recent samples a [`Latency`] estimate is the median of.
const WINDOW: usize = 8;

/// A measured latency: a ring of the last [`WINDOW`] samples and their
/// median. All fields are statistics that publish no other data, hence
/// `Relaxed`; a racy update can at worst skew one median.
struct Latency {
    samples: [AtomicU64; WINDOW],
    next: AtomicUsize,
    median_ns: AtomicU64,
}

impl Latency {
    const fn new() -> Latency {
        Latency {
            samples: [const { AtomicU64::new(0) }; WINDOW],
            next: AtomicUsize::new(0),
            median_ns: AtomicU64::new(0),
        }
    }

    fn record_since(&self, start: Instant) {
        let at = self.next.fetch_add(1, Ordering::Relaxed) % WINDOW;
        self.samples[at].store(ns_since(start), Ordering::Relaxed);
        let mut window = self.samples.each_ref().map(|s| s.load(Ordering::Relaxed));
        window.sort_unstable();
        self.median_ns.store(window[WINDOW / 2], Ordering::Relaxed);
    }

    fn ns(&self) -> u64 {
        self.median_ns.load(Ordering::Relaxed)
    }
}

/// From a job's send to the first worker's pickup, on wakes where the
/// worker had to wait for the job.
static WAKE: Latency = Latency::new();

/// What a job's first send costs the caller.
static SEND: Latency = Latency::new();

fn ns_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

thread_local! {
    /// Per call site (the address of its monomorphized share runner;
    /// should two sites share one, they only share an estimate), the
    /// mean item cost this thread measured there last, in ns.
    static ITEM_NS: RefCell<Vec<(usize, u64)>> = const { RefCell::new(Vec::new()) };
}

fn recall_item_ns(site: usize) -> Option<u64> {
    ITEM_NS.with(|costs| {
        costs
            .borrow()
            .iter()
            .find_map(|&(s, ns)| (s == site).then_some(ns))
    })
}

fn remember_item_ns(site: usize, ns: u64) {
    ITEM_NS.with(|costs| {
        let mut costs = costs.borrow_mut();
        match costs.iter_mut().find(|(s, _)| *s == site) {
            Some(entry) => entry.1 = ns,
            None => costs.push((site, ns)),
        }
    });
}

/// The cost test: whether waking workers pays for `rest` unclaimed
/// items of `item_ns` each. A woken worker must arrive before the
/// caller is halfway through them, counting the send the caller pays
/// to wake it.
fn wake_pays(rest: usize, item_ns: u64) -> bool {
    (rest as u64).saturating_mul(item_ns) / 2 > WAKE.ns().saturating_add(SEND.ns())
}

// ---------------------------------------------------------------------
// The persistent pool
// ---------------------------------------------------------------------

/// The `state` bit a dispatcher sets once its batch's cursor ran out;
/// the bits below it count the registered workers.
const CLOSED: usize = 1 << (usize::BITS - 1);

/// The part of a batch that pool workers receive, shared through an
/// `Arc` so a worker that wakes after the batch closed still holds a
/// live header — and touches nothing else.
struct Job {
    /// [`CLOSED`] | number of registered workers.
    state: AtomicUsize,
    /// When the job was sent (the start of a wake-latency sample).
    sent: Instant,
    /// Whether the job's first pickup is still to come and should be a
    /// wake-latency sample (only the first: help starts when the first
    /// woken worker arrives).
    unsampled: AtomicBool,
    /// The dispatching thread, unparked by the last registered worker
    /// to leave a closed batch.
    owner: Thread,
    /// The [`Batch`] on the dispatcher's stack; dereferenced only by
    /// registered workers, through `run`.
    batch: *const (),
    /// The monomorphized share runner matching `batch`.
    run: unsafe fn(*const ()),
}

// SAFETY: `state`, `sent`, `unsampled` and `owner` are `Send + Sync` on
// their own.
// `batch` is only dereferenced through `run` (whose instantiation in
// `run_batch` carries the `T: Sync`/`R: Send`/closure-`Sync` bounds),
// and only by a worker that registered before the close: the
// dispatcher keeps the pointee alive until every registered worker has
// left (`close_and_wait`). `run` is a plain function pointer.
unsafe impl Send for Job {}
// SAFETY: as above — shared access never dereferences `batch` outside
// the register/leave window the dispatcher waits for.
unsafe impl Sync for Job {}

impl Job {
    /// Joins the batch unless it already closed. The count publishes no
    /// data (the channel hand-off already published the batch to this
    /// worker); `Acquire` only keeps the worker's reads of the batch
    /// after the registration.
    fn register(&self) -> bool {
        self.state
            .fetch_update(Ordering::Acquire, Ordering::Relaxed, |s| {
                (s & CLOSED == 0).then_some(s + 1)
            })
            .is_ok()
    }

    /// Leaves the batch. `Release` publishes this worker's result-slot
    /// writes to the dispatcher's `Acquire` in `close_and_wait`.
    fn leave(&self) {
        if self.state.fetch_sub(1, Ordering::Release) == CLOSED | 1 {
            self.owner.unpark();
        }
    }

    /// Closes the batch and waits until every registered worker has
    /// left. The `Acquire` loads pair with the workers' `Release` in
    /// `leave`, so every result slot they wrote is visible afterwards.
    /// The wait spins for up to `spin_ns` (each leaving worker only
    /// finishes the items it holds) and parks after that.
    fn close_and_wait(&self, spin_ns: u64) {
        if self.state.fetch_or(CLOSED, Ordering::Acquire) == 0 {
            return;
        }
        let started = Instant::now();
        while self.state.load(Ordering::Acquire) != CLOSED {
            if started.elapsed().as_nanos() < u128::from(spin_ns) {
                std::hint::spin_loop();
            } else {
                std::thread::park();
            }
        }
    }
}

/// The pool: one channel sender per spawned worker, grown lazily and
/// never shrunk (see the module docs' lifecycle section).
static POOL: Mutex<Vec<Sender<Arc<Job>>>> = Mutex::new(Vec::new());

/// The body of a pool worker thread: run each job's share if its batch
/// is still open, and record the wake latency of jobs it had to wait
/// for. A job found already queued — sent while this worker was still
/// busy, often with jobs whose batches closed before it woke — says
/// nothing about how long a wake-up takes, and counting it would drag
/// the estimate down exactly when the worker falls behind.
fn worker_main(jobs: &Receiver<Arc<Job>>) {
    IN_BATCH.set(true);
    loop {
        let (job, waited) = match jobs.try_recv() {
            Ok(job) => (job, false),
            Err(TryRecvError::Empty) => match jobs.recv() {
                Ok(job) => (job, true),
                Err(RecvError) => return,
            },
            Err(TryRecvError::Disconnected) => return,
        };
        if job.unsampled.swap(false, Ordering::Relaxed) && waited {
            WAKE.record_since(job.sent);
        }
        if job.register() {
            // SAFETY: registered before the close, so the dispatcher
            // keeps `job.batch` alive until `leave` below.
            unsafe { (job.run)(job.batch) };
            job.leave();
        }
    }
}

/// Sends `job` to the first `helpers` pool workers, spawning any that
/// do not exist yet. Only the first send is a send-latency sample, as
/// only the first pickup is a wake-latency sample: what the cost test
/// needs is when the first helper arrives, and batches woken at once
/// may wake more workers than there are cores.
fn wake(job: &Arc<Job>, helpers: usize) {
    let mut pool = POOL.lock().expect("pool lock poisoned by a failed spawn");
    while pool.len() < helpers {
        let (tx, rx) = channel::<Arc<Job>>();
        std::thread::Builder::new()
            .name(format!("phonoc-pool-{}", pool.len()))
            .spawn(move || worker_main(&rx))
            .expect("spawning a pool worker");
        pool.push(tx);
    }
    for (i, worker) in pool[..helpers].iter().enumerate() {
        worker
            .send(Arc::clone(job))
            .expect("pool workers never drop their receiver");
        if i == 0 {
            SEND.record_since(job.sent);
        }
    }
}

/// One batch, on the dispatching thread's stack.
struct Batch<'a, S, T, R, I, F> {
    items: &'a [T],
    init: &'a I,
    f: &'a F,
    /// The next unclaimed item index.
    cursor: AtomicUsize,
    /// How many threads may take part (sizes the claims).
    threads: usize,
    /// One result slot per item, written only by the thread that
    /// claimed the item.
    slots: Vec<UnsafeCell<Option<R>>>,
    /// The first panic payload raised by a worker's share.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    _scratch: PhantomData<fn() -> S>,
}

impl<'a, S, T, R, I, F> Batch<'a, S, T, R, I, F>
where
    F: Fn(&mut S, &T) -> R,
{
    /// A batch for `threads` threads whose item 0 already ran (to
    /// `first`) on the caller, or none of whose items did.
    fn new(items: &'a [T], init: &'a I, f: &'a F, threads: usize, first: Option<R>) -> Self {
        let start = usize::from(first.is_some());
        let slots = std::iter::once(first)
            .chain(std::iter::repeat_with(|| None))
            .take(items.len())
            .map(UnsafeCell::new)
            .collect();
        Batch {
            items,
            init,
            f,
            cursor: AtomicUsize::new(start),
            threads,
            slots,
            panic: Mutex::new(None),
            _scratch: PhantomData,
        }
    }

    /// Claims the next run of items: `1 / (2 × threads)` of the
    /// unclaimed rest, at least one (guided self-scheduling). Threads
    /// seldom touch the cursor or each other's result slots, yet the
    /// last claims are single items, so no thread holds much when the
    /// cursor runs out. The cursor only hands out indices (`Relaxed`);
    /// the slot writes are published by `Job::leave` /
    /// `Job::close_and_wait`.
    fn claim(&self) -> Option<Range<usize>> {
        let n = self.items.len();
        let take = |from: usize| (n - from).div_ceil(2 * self.threads);
        let from = self
            .cursor
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |c| {
                (c < n).then(|| c + take(c))
            })
            .ok()?;
        Some(from..from + take(from))
    }

    /// Claims and runs items until the cursor runs out; returns how many
    /// this thread ran.
    fn drain(&self, scratch: &mut S) -> usize {
        let mut ran = 0;
        while let Some(run) = self.claim() {
            ran += run.len();
            for i in run {
                let out = (self.f)(scratch, &self.items[i]);
                // SAFETY: the cursor hands index `i` to exactly one
                // thread, and the dispatcher reads the slots only after
                // every registered worker has left.
                unsafe { *self.slots[i].get() = Some(out) };
            }
        }
        ran
    }

    /// Stops the cursor so every thread's next claim comes up empty.
    fn stop(&self) {
        self.cursor.store(self.items.len(), Ordering::Relaxed);
    }
}

/// A registered worker's share of the batch behind `batch`, on the
/// worker's sticky scratch slot.
///
/// # Safety
///
/// `batch` must point at a live `Batch<'_, S, T, R, I, F>` that stays
/// alive until the calling worker leaves the job.
unsafe fn run_share<S, T, R, I, F>(batch: *const ())
where
    S: Send + 'static,
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
{
    // SAFETY: guaranteed live by the caller (see `# Safety`).
    let batch = unsafe { &*batch.cast::<Batch<'_, S, T, R, I, F>>() };
    let ran = catch_unwind(AssertUnwindSafe(|| {
        with_slot(batch.init, |scratch| batch.drain(scratch));
    }));
    if let Err(payload) = ran {
        ARENA.with(|arena| arena.borrow_mut().clear());
        batch.stop();
        batch
            .panic
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get_or_insert(payload);
    }
}

/// Wakes `helpers` pool workers for `batch`, runs the caller's share on
/// `scratch`, closes the batch (spinning up to `spin_ns` for the
/// registered workers before parking) and returns the results in input
/// order, with the caller's mean item cost over its share if it ran
/// any. Panics from any share are resumed here — after every
/// registered worker has left, so the stack borrows never escape.
fn dispatch<S, T, R, I, F>(
    batch: Batch<'_, S, T, R, I, F>,
    helpers: usize,
    spin_ns: u64,
    scratch: &mut S,
) -> (Vec<R>, Option<u64>)
where
    S: Send + 'static,
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
{
    let job = Arc::new(Job {
        state: AtomicUsize::new(0),
        sent: Instant::now(),
        unsampled: AtomicBool::new(true),
        owner: std::thread::current(),
        batch: std::ptr::from_ref(&batch).cast::<()>(),
        run: run_share::<S, T, R, I, F>,
    });
    wake(&job, helpers);
    let started = Instant::now();
    let mine = catch_unwind(AssertUnwindSafe(|| batch.drain(scratch)));
    let share_ns = ns_since(started);
    if mine.is_err() {
        batch.stop();
    }
    job.close_and_wait(spin_ns);
    let ran = match mine {
        Ok(ran) => ran as u64,
        Err(payload) => resume_unwind(payload),
    };
    let remote = batch
        .panic
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some(payload) = remote {
        resume_unwind(payload);
    }
    let out = batch
        .slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every item was claimed and run"))
        .collect();
    (out, share_ns.checked_div(ran))
}

/// Runs the batch inline on the caller thread's sticky scratch slot.
fn run_inline<S, T, R, I, F>(items: &[T], init: &I, f: &F) -> Vec<R>
where
    S: Send + 'static,
    I: Fn() -> S,
    F: Fn(&mut S, &T) -> R,
{
    if items.is_empty() {
        return Vec::new();
    }
    with_slot(init, |scratch| {
        items.iter().map(|item| f(scratch, item)).collect()
    })
}

/// When a batch wakes its workers.
#[derive(Clone, Copy)]
enum Wake {
    /// At once (coarse items, and the measurement surface).
    Now,
    /// When the cost test says the batch pays for it.
    IfPaid,
}

/// The shared entry: inline at one worker, below two items, or when
/// already inside a batch (nested batches — see the deadlock rule);
/// otherwise the caller starts on the batch at once and wakes up to
/// `workers - 1` pool workers as `wake` says.
fn run_batch<S, T, R, I, F>(items: &[T], workers: usize, wake: Wake, init: &I, f: &F) -> Vec<R>
where
    S: Send + 'static,
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
{
    let n = items.len();
    if workers <= 1 || n < 2 || IN_BATCH.get() {
        return run_inline(items, init, f);
    }
    let _in_batch = InBatch::enter();
    with_slot(init, |scratch| match wake {
        Wake::Now => {
            let batch = Batch::new(items, init, f, workers, None);
            dispatch(batch, workers - 1, WAKE.ns(), scratch).0
        }
        Wake::IfPaid => {
            // Price the batch at the item cost this thread measured at
            // this call site last time, or else at its first item.
            let site = run_share::<S, T, R, I, F> as unsafe fn(*const ()) as usize;
            let started = Instant::now();
            let (first, item_ns) = match recall_item_ns(site) {
                Some(item_ns) => (None, item_ns),
                None => {
                    let first = f(scratch, &items[0]);
                    (Some(first), ns_since(started))
                }
            };
            let done = usize::from(first.is_some());
            if !wake_pays(n - done, item_ns) {
                let mut out = Vec::with_capacity(n);
                out.extend(first);
                out.extend(items[done..].iter().map(|item| f(scratch, item)));
                remember_item_ns(site, ns_since(started) / n as u64);
                return out;
            }
            // The final wait spins for at most what the batch costs
            // inline: a worker only finishes the items it holds.
            let spin_ns = item_ns.saturating_mul(n as u64);
            let batch = Batch::new(items, init, f, workers, first);
            let (out, share_item_ns) = dispatch(batch, workers - 1, spin_ns, scratch);
            if let Some(item_ns) = share_item_ns {
                remember_item_ns(site, item_ns);
            }
            out
        }
    })
}

// ---------------------------------------------------------------------
// Public maps
// ---------------------------------------------------------------------

/// Maps `f` over `items` in parallel, returning results in input order.
///
/// Runs inline unless the batch's measured cost pays for waking a
/// worker (see the [module docs](self)'s cost test), and always on a
/// single-worker ceiling.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    parallel_map_with(items, || (), move |_: &mut (), item| f(item))
}

/// Like [`parallel_map`], but hands the mapped function a private
/// scratch value (e.g. reusable evaluation buffers) from the executing
/// thread's **sticky scratch slot**: `init` runs only the first time a
/// given worker (or the caller thread) sees the scratch type `S`, and
/// the value persists across batch calls for the thread's lifetime.
/// The scratch must therefore be a buffer, not an accumulator — `f`'s
/// output must be a pure function of its item regardless of what an
/// earlier batch left in the slot (see the [module docs](self)).
pub fn parallel_map_with<S, T, R, I, F>(items: &[T], init: I, f: F) -> Vec<R>
where
    S: Send + 'static,
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
{
    // Fine-grained items are CPU-bound: threads beyond the cores would
    // only take turns on them, and the caller would wait on a
    // registered worker that lost its core mid-item.
    let workers = max_workers().min(cores()).min(items.len());
    run_batch(items, workers, Wake::IfPaid, &init, &f)
}

/// Like [`parallel_map`], but for **coarse-grained** items (whole
/// optimizer runs — the portfolio's bulk-synchronous lane rounds):
/// wakes workers at once for any batch of two or more items instead of
/// timing the first, since each item is many orders of magnitude
/// heavier than a wake-up. Batches started inside an item run inline
/// on its thread. Results are returned in input order, so the
/// reduction over them is fixed regardless of the worker count.
pub fn parallel_map_tasks<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = max_workers().min(items.len());
    run_batch(
        items,
        workers,
        Wake::Now,
        &|| (),
        &move |_: &mut (), item: &T| f(item),
    )
}

// ---------------------------------------------------------------------
// Measurement / property-test surface
// ---------------------------------------------------------------------

/// Wakes up to `workers - 1` pool workers **at once**, skipping the
/// cost test (1 worker, fewer than 2 items, or a call from inside a
/// batch still run inline). This is the measurement entry
/// `bench::parallel` uses to race the pool against
/// [`reference_map_with`] at controlled worker counts, and the surface
/// `tests/thread_invariance.rs` drives the forked path through.
/// Results are exactly [`parallel_map_with`]'s.
pub fn pool_map_with<S, T, R, I, F>(items: &[T], workers: usize, init: I, f: F) -> Vec<R>
where
    S: Send + 'static,
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
{
    run_batch(items, workers.min(items.len()), Wake::Now, &init, &f)
}

/// The retained **scope-spawn reference path**: the pre-pool
/// implementation (one fresh [`std::thread::scope`] thread per chunk,
/// a fresh scratch per worker per call), kept as the baseline the pool
/// is benchmarked against (`bench::parallel` / `BENCH_parallel.json`)
/// and the oracle the pool is property-tested bit-identical to
/// (`tests/thread_invariance.rs`). Not used by any production path.
pub fn reference_map_with<S, T, R, I, F>(items: &[T], workers: usize, init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
{
    let workers = workers.min(items.len()).max(1);
    if workers <= 1 || items.len() < 2 {
        let mut scratch = init();
        return items.iter().map(|item| f(&mut scratch, item)).collect();
    }
    let chunk = items.len().div_ceil(workers);
    let mut out = Vec::with_capacity(items.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|slice| {
                scope.spawn(|| {
                    let mut scratch = init();
                    slice
                        .iter()
                        .map(|item| f(&mut scratch, item))
                        .collect::<Vec<R>>()
                })
            })
            .collect();
        for h in handles {
            out.extend(h.join().expect("batch evaluation worker panicked"));
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicBool;
    use std::thread::ThreadId;
    use std::time::Duration;

    /// Spins (yielding) until `ready`, for at most `patience`; returns
    /// whether it got ready. Bounds every cross-thread wait in these
    /// tests, so a broken pool fails a test instead of hanging it.
    fn wait_for(patience: Duration, ready: impl Fn() -> bool) -> bool {
        let deadline = Instant::now() + patience;
        while !ready() {
            if Instant::now() > deadline {
                return false;
            }
            std::thread::yield_now();
        }
        true
    }

    /// A rendezvous for mapped items: each item registers its thread
    /// and is held (for at most 10 s) until a second distinct thread
    /// has registered, so a batch that wakes a worker provably runs on
    /// two threads whatever the wake-up timing.
    #[derive(Default)]
    struct TwoThreads(Mutex<HashSet<ThreadId>>);

    impl TwoThreads {
        fn join(&self) -> ThreadId {
            let me = std::thread::current().id();
            self.0.lock().unwrap().insert(me);
            wait_for(Duration::from_secs(10), || self.threads() >= 2);
            me
        }

        fn threads(&self) -> usize {
            self.0.lock().unwrap().len()
        }
    }

    /// ~`rounds` × a few ns of arithmetic the optimizer cannot drop.
    fn spin(x: u64, rounds: u32) -> u64 {
        let mut v = x | 1;
        for _ in 0..rounds {
            v = std::hint::black_box(v.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17));
        }
        v
    }

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..1000).collect();
        let out = parallel_map(&items, |&x| x * 3);
        assert_eq!(out, (0..1000).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn tiny_batches_work() {
        assert_eq!(parallel_map(&[] as &[usize], |&x| x), Vec::<usize>::new());
        assert_eq!(parallel_map(&[7usize], |&x| x + 1), vec![8]);
    }

    #[test]
    fn batch_results_are_input_ordered_and_identical() {
        // Sizes from empty through a single item (never forks), the
        // smallest forkable pair, to far beyond any core count. The
        // production map and the forced-wake pool map must both equal
        // the sequential map, in input order; every pooled batch of two
        // or more items must really have run on two threads.
        for n in [0, 1, 2, 3, 8, 64, 1024] {
            let items: Vec<usize> = (0..n).collect();
            let expected: Vec<usize> = items.iter().map(|&x| x * 7 + 1).collect();
            assert_eq!(parallel_map(&items, |&x| x * 7 + 1), expected, "n = {n}");
            for workers in [2, 4] {
                let gate = TwoThreads::default();
                let out = pool_map_with(
                    &items,
                    workers,
                    || (),
                    |(), &x| {
                        if n >= 2 {
                            gate.join();
                        }
                        x * 7 + 1
                    },
                );
                assert_eq!(out, expected, "pool, n = {n} @ {workers} workers");
                if n >= 2 {
                    assert!(
                        gate.threads() >= 2,
                        "n = {n} @ {workers} stayed on one thread"
                    );
                }
            }
        }
    }

    #[test]
    fn pool_matches_reference_at_every_worker_count() {
        let items: Vec<u64> = (0..321).collect();
        let f = |acc: &mut u64, &x: &u64| {
            // Scratch used as a buffer: overwritten, then read — the
            // output is a pure function of the item.
            *acc = x.wrapping_mul(0x9E37_79B9).rotate_left(9);
            *acc ^ 0xABCD
        };
        let reference = reference_map_with(&items, 1, || 0u64, f);
        for workers in [1, 2, 3, 4, 8, 64] {
            assert_eq!(
                pool_map_with(&items, workers, || 0u64, f),
                reference,
                "pool @ {workers} workers"
            );
            assert_eq!(
                reference_map_with(&items, workers, || 0u64, f),
                reference,
                "reference @ {workers} workers"
            );
        }
    }

    #[test]
    fn tasks_map_is_input_ordered_at_every_worker_count() {
        // The override is process-global; serialize with the other
        // override tests and always restore the default.
        let _guard = override_lock();
        let items: Vec<usize> = (0..37).collect();
        let expected: Vec<usize> = items.iter().map(|&x| x * 11 + 5).collect();
        for workers in [1, 2, 3, 4, 64] {
            set_worker_override(Some(workers));
            let out = parallel_map_tasks(&items, |&x| x * 11 + 5);
            assert_eq!(out, expected, "workers = {workers}");
        }
        set_worker_override(None);
    }

    #[test]
    fn tasks_map_forks_small_batches() {
        let _guard = override_lock();
        set_worker_override(Some(2));
        // Two coarse items that each block until both have started can
        // only finish on two threads: the caller's share and a woken
        // worker's (the fine-grained map would time the first item
        // and, for items this cheap, keep the batch on the caller).
        let gate = TwoThreads::default();
        let ids = parallel_map_tasks(&[0, 1], |_| gate.join());
        assert_ne!(ids[0], ids[1], "coarse map must fork a two-item batch");
        set_worker_override(None);
        // Single items never fork.
        let one = parallel_map_tasks(&[42usize], |&x| x);
        assert_eq!(one, vec![42]);
    }

    #[test]
    fn nested_batches_run_inline_on_the_worker() {
        let _guard = override_lock();
        set_worker_override(Some(2));
        // At override 2 a batch runs on the caller and one worker, and
        // the rendezvous makes both take part. Every outer item runs a
        // nested batch through the forced-wake map, which would wake a
        // worker at top level: on the worker *and* on the caller's own
        // share, the nested batch must stay on the running thread.
        let caller = std::thread::current().id();
        let gate = TwoThreads::default();
        let outer: Vec<usize> = (0..4).collect();
        let runs = parallel_map_tasks(&outer, |_| {
            let outer_id = gate.join();
            let inner: Vec<usize> = (0..64).collect();
            let ids = pool_map_with(&inner, 2, || (), |(), _| std::thread::current().id());
            (outer_id, ids.iter().all(|&id| id == outer_id))
        });
        assert!(
            runs.iter().all(|&(_, inline)| inline),
            "nested batches must not leave the thread running the outer item"
        );
        let threads: HashSet<ThreadId> = runs.iter().map(|&(id, _)| id).collect();
        assert_eq!(threads.len(), 2, "the caller and one worker ran the lanes");
        assert!(threads.contains(&caller), "the caller ran its own share");
        set_worker_override(None);
    }

    #[test]
    fn lanes_never_queue_behind_each_other() {
        // Two portfolio-style lanes at override 2: lane 1 waits (for at
        // most 2 s) until lane 0's nested fine-grained batch finished.
        // The nested batch must run inline on lane 0's thread; it must
        // never hand part of its items to the worker that runs lane 1
        // and then wait for lane 1's whole round.
        let _guard = override_lock();
        set_worker_override(Some(2));
        let nested_done = AtomicBool::new(false);
        let saw = parallel_map_tasks(&[0usize, 1], |&lane| {
            if lane == 0 {
                let inner: Vec<u64> = (0..16).collect();
                let out = parallel_map(&inner, |&x| spin(x, 20_000));
                nested_done.store(true, Ordering::Release);
                out.len() == inner.len()
            } else {
                wait_for(Duration::from_secs(2), || {
                    nested_done.load(Ordering::Acquire)
                })
            }
        });
        assert_eq!(saw, [true, true], "lane 1 timed out waiting for lane 0");
        set_worker_override(None);
    }

    #[test]
    fn trivial_batches_stay_on_the_caller() {
        // The cost test's contract: a batch whose measured cost is far
        // below a wake-up never leaves the caller thread. Calibrate the
        // wake and send latencies first, on batches costly enough to
        // wake a parked worker.
        let _guard = override_lock();
        set_worker_override(Some(2));
        let costly: Vec<u64> = (0..8).collect();
        for _ in 0..2 * WINDOW {
            parallel_map(&costly, |&x| spin(x, 40_000));
            std::thread::sleep(Duration::from_millis(1));
        }
        let caller = std::thread::current().id();
        let items = [0u8; 16];
        for _ in 0..100 {
            let ids = parallel_map(&items, |_| std::thread::current().id());
            assert!(
                ids.iter().all(|&id| id == caller),
                "a trivial batch woke a worker"
            );
        }
        set_worker_override(None);
    }

    /// Serializes tests that touch the process-global worker override
    /// or clear a worker's scratch arena, and guarantees the default is
    /// restored (even across a poisoned lock from an earlier failing
    /// test — the payload is `()`).
    fn override_lock() -> impl Drop {
        struct Guard(#[allow(dead_code)] std::sync::MutexGuard<'static, ()>);
        impl Drop for Guard {
            fn drop(&mut self) {
                set_worker_override(None);
            }
        }
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        Guard(
            LOCK.lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        )
    }

    #[test]
    fn scratch_slots_are_sticky_per_thread() {
        // A panicking share clears its worker's arena; keep the panic
        // test from running between these batches.
        let _guard = override_lock();
        // Distinct scratch type so no other test shares the slot.
        struct Counter(usize);
        let items: Vec<usize> = (0..64).collect();
        let run = |workers: usize| {
            pool_map_with(
                &items,
                workers,
                || Counter(0),
                |c: &mut Counter, &x| {
                    c.0 += 1;
                    (x, std::thread::current().id(), c.0)
                },
            )
        };
        // Inline, pooled twice, inline again: the caller thread takes
        // part in the first and last batch whatever the wake timing.
        let batches = [run(1), run(4), run(4), run(1)];
        let mut last: Vec<(ThreadId, usize)> = Vec::new();
        for batch in &batches {
            // Input order is preserved whoever ran an item.
            for (i, &(x, _, _)) in batch.iter().enumerate() {
                assert_eq!(x, i);
            }
            // A thread claims its items in cursor (= input) order, so
            // per thread the counter must keep rising across batches:
            // the slot was never rebuilt. (This is exactly why
            // scratches must be buffers, not accumulators, in real call
            // sites.)
            for &(_, id, count) in batch {
                match last.iter_mut().find(|(t, _)| *t == id) {
                    Some((_, prev)) => {
                        assert!(count > *prev, "slot of {id:?} was rebuilt");
                        *prev = count;
                    }
                    None => last.push((id, count)),
                }
            }
        }
        let caller = std::thread::current().id();
        let (_, caller_count) = last.iter().find(|(t, _)| *t == caller).unwrap();
        assert!(*caller_count >= 2 * items.len(), "caller slot persisted");
    }

    #[test]
    fn worker_panics_propagate_and_the_pool_survives() {
        let _guard = override_lock();
        let items: Vec<usize> = (0..64).collect();
        let result = std::panic::catch_unwind(|| {
            pool_map_with(
                &items,
                4,
                || (),
                |(), &x| {
                    assert!(x != 40, "injected failure");
                    x
                },
            )
        });
        assert!(result.is_err(), "the mapped panic must propagate");
        // The pool must keep working after a panicked batch.
        let ok = pool_map_with(&items, 4, || (), |(), &x| x + 1);
        assert_eq!(ok, (1..=64).collect::<Vec<_>>());
    }
}
