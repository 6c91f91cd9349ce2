//! Elastic worker pool — the simulated per-machine thread set.
//!
//! FaRM pins a fixed number of threads per machine and coprocessors share
//! them cooperatively via fibers (§2.2). In this simulation each machine has
//! `base` always-on OS threads; when all are busy and more work arrives,
//! temporary threads are spawned (up to `max`) and retire after an idle
//! period. The elasticity stands in for fibers: a fiber blocked on a remote
//! operation yields its thread, which we model by letting another thread run.
//!
//! Jobs carry a [`JobClass`] so the pool can be shared fairly between the
//! request classes that compete for a machine's "CPU": query-serving work
//! (RPC dispatch: client requests and shipped work ops), intra-machine
//! morsels, and ingest batch application. Two mechanisms combine:
//!
//! * **Priority lane** — when a worker frees up it dequeues `Query` jobs
//!   before `Morsel` jobs before `Ingest` jobs, so a backlog of ingest
//!   batches can never starve the serving path.
//! * **Per-class in-flight quotas** — each class can be capped to a number
//!   of concurrently *running* jobs ([`WorkerPool::set_class_quota`]).
//!   Over-quota jobs wait in a per-class backlog and are promoted as their
//!   class drains, bounding how many worker threads a greedy class (e.g.
//!   ingest appliers under a bulk load) may occupy at once.
//!
//! Work reaches the pool three ways. [`WorkerPool::execute`] is fire and
//! forget. [`WorkerPool::post`] hands a job over and returns at once; the
//! poster does something else and collects the result later with
//! [`Posted::wait`] — how an RPC overlaps its handler with the caller's own
//! work without parking a second thread. [`WorkerPool::run_all`] is the
//! scoped batch: jobs that borrow from the caller's stack, joined before it
//! returns.
//!
//! Under a virtual clock the fabric builds its pools in **deterministic
//! mode** ([`WorkerPool::deterministic`]): scoped batches and posted jobs
//! run on the calling thread, in an order drawn from a seeded stream
//! ([`WorkerPool::dispatch_order`]), so the simulation harness exercises the
//! same call sites production does while staying replayable by seed.

use crate::rng::ClusterRng;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar};
use std::time::Duration;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A borrowing job for [`WorkerPool::run_all`]: may capture references into
/// the caller's stack because `run_all` joins every job before returning.
pub type ScopedJob<'env, R> = Box<dyn FnOnce() -> R + Send + 'env>;

const TEMP_THREAD_IDLE: Duration = Duration::from_millis(200);

/// How long a [`Posted::wait`] leaves a job that no worker has claimed yet
/// to the pool before running it itself. Workers claim within microseconds
/// when there is one to spare, so this only ends waits nobody would answer.
const CLAIM_GRACE: Duration = Duration::from_millis(1);

/// Scheduling class of a pool job. Declaration order is dequeue priority:
/// workers drain `Query` before `Morsel` before `Ingest`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobClass {
    /// Request-serving work: RPC dispatch (client requests, shipped work
    /// ops).
    Query,
    /// Intra-machine morsels of a work-op batch.
    Morsel,
    /// Ingest batch application (group commits).
    Ingest,
}

const NUM_CLASSES: usize = 3;

impl JobClass {
    fn idx(self) -> usize {
        match self {
            JobClass::Query => 0,
            JobClass::Morsel => 1,
            JobClass::Ingest => 2,
        }
    }
}

/// Class-aware scheduler state: per-class ready queues (dequeued by
/// priority), per-class backlogs (over-quota jobs awaiting promotion), and
/// the in-flight accounting that gates promotion.
struct Sched {
    ready: [VecDeque<Job>; NUM_CLASSES],
    backlog: [VecDeque<Job>; NUM_CLASSES],
    /// Jobs of each class admitted (ready or running) right now.
    in_flight: [usize; NUM_CLASSES],
    /// Max in-flight per class; `0` = unlimited.
    quota: [usize; NUM_CLASSES],
}

impl Sched {
    fn can_admit(&self, c: usize) -> bool {
        self.quota[c] == 0 || self.in_flight[c] < self.quota[c]
    }
}

struct PoolShared {
    /// Wake tokens: one per ready job. Jobs themselves live in `sched` so
    /// dequeue order is priority-aware, not FIFO-across-classes.
    tx: Mutex<Option<Sender<()>>>,
    rx: Receiver<()>,
    sched: Mutex<Sched>,
    idle: AtomicUsize,
    threads: AtomicUsize,
    max: usize,
    name: String,
}

impl PoolShared {
    /// One job finished (or was dropped): release its quota slot and promote
    /// backlog jobs that now fit. Lock order: `sched` is released before
    /// `tx` is taken (the submit path nests them the other way around).
    fn on_complete(&self, queued: &AtomicUsize, class: usize) {
        let promoted = {
            let mut s = self.sched.lock();
            s.in_flight[class] -= 1;
            let mut n = 0;
            while s.can_admit(class) {
                let Some(job) = s.backlog[class].pop_front() else {
                    break;
                };
                s.in_flight[class] += 1;
                s.ready[class].push_back(job);
                n += 1;
            }
            n
        };
        if promoted > 0 {
            queued.fetch_add(promoted, Ordering::Relaxed);
            let guard = self.tx.lock();
            if let Some(tx) = guard.as_ref() {
                for _ in 0..promoted {
                    let _ = tx.send(());
                }
            }
        }
    }

    /// Dequeue the highest-priority ready job. Every wake token corresponds
    /// to a pushed ready job, so this only returns `None` under teardown
    /// races.
    fn take_job(&self) -> Option<(Job, usize)> {
        let mut s = self.sched.lock();
        for c in 0..NUM_CLASSES {
            if let Some(job) = s.ready[c].pop_front() {
                return Some((job, c));
            }
        }
        None
    }
}

/// Releases a running job's quota slot even if the job panics.
struct RunningGuard<'a> {
    shared: &'a PoolShared,
    queued: &'a AtomicUsize,
    class: usize,
}

impl Drop for RunningGuard<'_> {
    fn drop(&mut self) {
        self.shared.on_complete(self.queued, self.class);
    }
}

/// An elastic thread pool with class-aware scheduling.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    queued: Arc<AtomicUsize>,
    /// Deterministic mode: the stream scoped batches draw their execution
    /// order from (see [`WorkerPool::deterministic`]).
    order: Option<ClusterRng>,
}

impl WorkerPool {
    pub fn new(name: &str, base: usize, max: usize) -> WorkerPool {
        Self::build(name, base, max, None)
    }

    /// A pool for the simulation harness: [`WorkerPool::run_all_class`]
    /// enqueues nothing and runs its jobs on the calling thread, one at a
    /// time, in an order drawn from `order`; [`WorkerPool::post`] runs its
    /// job before it returns, and a caller with several posts to make takes
    /// their order from the same stream ([`WorkerPool::dispatch_order`]) —
    /// so a single logical thread driving the cluster sees a job
    /// interleaving that is a pure function of the seed — and
    /// [`WorkerPool::is_saturated`] is constantly `false` (it would
    /// otherwise read racy worker-idle counts). Everything else (datagram
    /// handlers, ingest appliers) still runs on the pool's threads; those
    /// callers block for their result, so they add no interleaving of their
    /// own.
    pub fn deterministic(name: &str, base: usize, max: usize, order: ClusterRng) -> WorkerPool {
        Self::build(name, base, max, Some(order))
    }

    pub(crate) fn build(
        name: &str,
        base: usize,
        max: usize,
        order: Option<ClusterRng>,
    ) -> WorkerPool {
        assert!(base >= 1, "pool needs at least one thread");
        assert!(max >= base);
        let (tx, rx) = unbounded::<()>();
        let shared = Arc::new(PoolShared {
            tx: Mutex::new(Some(tx)),
            rx,
            sched: Mutex::new(Sched {
                ready: std::array::from_fn(|_| VecDeque::new()),
                backlog: std::array::from_fn(|_| VecDeque::new()),
                in_flight: [0; NUM_CLASSES],
                quota: [0; NUM_CLASSES],
            }),
            idle: AtomicUsize::new(0),
            threads: AtomicUsize::new(0),
            max,
            name: name.to_string(),
        });
        let pool = WorkerPool {
            shared: shared.clone(),
            queued: Arc::new(AtomicUsize::new(0)),
            order,
        };
        for i in 0..base {
            spawn_worker(shared.clone(), pool.queued.clone(), i, true);
        }
        pool
    }

    /// Enqueue a job in the default [`JobClass::Query`] lane. Spawns a
    /// temporary worker when the pool is saturated.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        self.execute_class(JobClass::Query, job);
    }

    /// Enqueue a job in a specific class lane. Jobs over the class's
    /// in-flight quota wait in the class backlog and are promoted as earlier
    /// jobs of that class complete.
    pub fn execute_class(&self, class: JobClass, job: impl FnOnce() + Send + 'static) {
        let guard = self.shared.tx.lock();
        let Some(tx) = guard.as_ref() else {
            return; // pool shut down; drop the job
        };
        let c = class.idx();
        {
            let mut s = self.shared.sched.lock();
            if !s.can_admit(c) {
                s.backlog[c].push_back(Box::new(job));
                return;
            }
            s.in_flight[c] += 1;
            s.ready[c].push_back(Box::new(job));
        }
        let queued = self.queued.fetch_add(1, Ordering::Relaxed) + 1;
        tx.send(()).expect("receiver held by shared state");
        // Grow when demand outruns the idle set, not only when it hits zero:
        // a burst of enqueues can land before any idle worker wakes up, and
        // jobs that block (the fiber stand-in) would then starve the queue.
        if queued > self.shared.idle.load(Ordering::Relaxed) {
            let n = self.shared.threads.load(Ordering::Relaxed);
            if n < self.shared.max {
                spawn_worker(self.shared.clone(), self.queued.clone(), n, false);
            }
        }
    }

    /// Cap `class` to `quota` concurrently in-flight jobs (`0` = unlimited).
    /// Raising the quota promotes waiting backlog jobs immediately.
    pub fn set_class_quota(&self, class: JobClass, quota: usize) {
        let c = class.idx();
        let promoted = {
            let mut s = self.shared.sched.lock();
            s.quota[c] = quota;
            let mut n = 0;
            while s.can_admit(c) {
                let Some(job) = s.backlog[c].pop_front() else {
                    break;
                };
                s.in_flight[c] += 1;
                s.ready[c].push_back(job);
                n += 1;
            }
            n
        };
        if promoted > 0 {
            self.queued.fetch_add(promoted, Ordering::Relaxed);
            let guard = self.shared.tx.lock();
            if let Some(tx) = guard.as_ref() {
                for _ in 0..promoted {
                    let _ = tx.send(());
                }
            }
        }
    }

    /// Jobs of `class` currently admitted (ready or running).
    pub fn class_in_flight(&self, class: JobClass) -> usize {
        self.shared.sched.lock().in_flight[class.idx()]
    }

    /// Jobs of `class` waiting in the over-quota backlog.
    pub fn class_backlog(&self, class: JobClass) -> usize {
        self.shared.sched.lock().backlog[class.idx()].len()
    }

    /// Enqueue a job and block until it completes, returning its result.
    /// A panic inside the job is caught on the worker (keeping the thread
    /// alive) and resumed here on the caller. Panics if the pool has shut
    /// down; use [`WorkerPool::try_execute_wait`] to observe that instead.
    pub fn execute_wait<R: Send + 'static>(&self, job: impl FnOnce() -> R + Send + 'static) -> R {
        self.try_execute_wait(job).expect("pool dropped the job")
    }

    /// [`WorkerPool::execute_wait`], but returns `None` when the pool has
    /// shut down and dropped the job (e.g. a caller racing cluster
    /// teardown).
    pub fn try_execute_wait<R: Send + 'static>(
        &self,
        job: impl FnOnce() -> R + Send + 'static,
    ) -> Option<R> {
        self.try_execute_wait_class(JobClass::Query, job)
    }

    /// [`WorkerPool::try_execute_wait`] in a specific class lane — the
    /// blocking submit for quota-bounded work (e.g. ingest batch
    /// application).
    pub fn try_execute_wait_class<R: Send + 'static>(
        &self,
        class: JobClass,
        job: impl FnOnce() -> R + Send + 'static,
    ) -> Option<R> {
        let (tx, rx) = crossbeam::channel::bounded(1);
        self.execute_class(class, move || {
            let _ = tx.send(std::panic::catch_unwind(AssertUnwindSafe(job)));
        });
        match rx.recv().ok()? {
            Ok(r) => Some(r),
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }

    /// Hand `job` to the pool (in the [`JobClass::Query`] lane) and return
    /// without waiting for it; [`Posted::wait`] collects the result. Between
    /// the two the poster is free to post more jobs or do work of its own,
    /// which is how one thread overlaps several remote handlers.
    ///
    /// The job sits in a *claimable slot*, as [`WorkerPool::run_all_class`]
    /// jobs do: whoever takes it out runs it. Normally that is a pool
    /// worker. When the pool is saturated — no idle worker and no room to
    /// grow — the job runs here, on the poster, before `post` returns: the
    /// poster was going to wait for it anyway, and lending its thread (the
    /// fiber model: a blocked thread yields) guarantees progress when every
    /// pool thread in a cycle of machines is waiting on another machine's
    /// pool. A job that stays unclaimed for any other reason (the pool
    /// filled up after the post, a class quota) is covered by the wait
    /// side. In deterministic mode the job always runs before `post`
    /// returns.
    pub fn post<R: Send + 'static>(&self, job: impl FnOnce() -> R + Send + 'static) -> Posted<R> {
        let slot = Arc::new(PostSlot {
            state: std::sync::Mutex::new(PostState::Unclaimed(Box::new(job))),
            done: Condvar::new(),
        });
        if self.order.is_some() || self.is_saturated() {
            slot.run_if_unclaimed();
        } else {
            let slot = slot.clone();
            self.execute(move || slot.run_if_unclaimed());
        }
        Posted { slot }
    }

    /// The order in which a caller should start `n` independent pieces of
    /// work it is about to dispatch itself (posts, or work on its own
    /// thread): input order, except in deterministic mode, where it is a
    /// permutation drawn from the pool's seeded stream — the same stream
    /// scoped batches take their order from — so the simulation explores
    /// dispatch orders and replays them by seed.
    pub fn dispatch_order(&self, n: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..n).collect();
        if let Some(order) = &self.order {
            // Fisher–Yates.
            for i in (1..n).rev() {
                idx.swap(i, order.gen_range(i as u64 + 1) as usize);
            }
        }
        idx
    }

    /// True when no worker is idle and the pool cannot grow. A caller about
    /// to block on queued work (a [`WorkerPool::post`], a scoped
    /// [`WorkerPool::run_all`] batch) should degrade to inline execution
    /// instead: lending the calling thread guarantees progress when every
    /// pool thread is itself blocked waiting on queued jobs. Never true in
    /// deterministic mode.
    pub fn is_saturated(&self) -> bool {
        self.order.is_none()
            && self.shared.idle.load(Ordering::Relaxed) == 0
            && self.shared.threads.load(Ordering::Relaxed) >= self.shared.max
    }

    /// Scoped batch execution in the default [`JobClass::Query`] lane; see
    /// [`WorkerPool::run_all_class`].
    pub fn run_all<'env, R: Send + 'env>(&self, jobs: Vec<ScopedJob<'env, R>>) -> Vec<R> {
        self.run_all_class(JobClass::Query, jobs)
    }

    /// Scoped batch execution: run every job on the pool concurrently and
    /// return their results **in input order**. Blocks until all jobs have
    /// finished, which is what makes it sound for jobs that borrow from the
    /// caller's stack (the classic scoped-pool pattern).
    ///
    /// Each job lives in a *claimable slot*: whoever takes it out — a pool
    /// worker running the enqueued wrapper, or the calling thread — runs it.
    /// The caller behaves like an extra worker pinned to its own batch: it
    /// claims and runs unstarted jobs inline (**self-help**) and only then
    /// blocks for the executions workers claimed. That makes nested-join
    /// progress structural: even when every pool thread is itself blocked in
    /// another `run_all` join and the pool cannot grow — or the batch's
    /// class is quota-capped and its wrappers sit in the backlog — each
    /// blocked caller completes its own batch on its own thread (the fiber
    /// stand-in: a blocked thread lends itself out). The caller never
    /// executes foreign queue entries, so a long-running unrelated job
    /// (e.g. a streaming applier loop) can never be pulled onto a joining
    /// thread.
    ///
    /// If any job panics, the panic is re-raised on the caller *after* every
    /// other job has completed (so borrowed state is never unwound while
    /// still shared).
    ///
    /// In deterministic mode none of the above machinery runs: the jobs
    /// execute on the calling thread in a seeded order (results and panics
    /// still surface in input order).
    // The one unsafe block in the workspace: lifetime erasure for scoped
    // jobs, justified by the emptied-slot invariant documented at the
    // transmute.
    #[allow(unsafe_code)]
    pub fn run_all_class<'env, R: Send + 'env>(
        &self,
        class: JobClass,
        jobs: Vec<ScopedJob<'env, R>>,
    ) -> Vec<R> {
        let n = jobs.len();
        match n {
            0 => return Vec::new(),
            1 => {
                let mut jobs = jobs;
                return vec![jobs.pop().expect("one job")()];
            }
            _ => {}
        }
        if self.order.is_some() {
            return self.run_in_seeded_order(jobs);
        }
        let (tx, rx) = crossbeam::channel::bounded::<(usize, std::thread::Result<R>)>(n);
        let job_slots: Vec<Arc<Mutex<Option<ScopedJob<'env, R>>>>> = jobs
            .into_iter()
            .map(|job| Arc::new(Mutex::new(Some(job))))
            .collect();
        // The join guard restores the emptied-slot invariant on an
        // unexpected unwind between dispatch and join: it claims-and-drops
        // every unstarted job (sound — the drop happens inside this frame)
        // and waits out worker-claimed executions, so no lifetime-erased
        // job can run after the caller's frame is gone. On the happy path
        // every slot is already empty and it does nothing.
        struct JoinGuard<'a, 'env, R> {
            rx: &'a Receiver<(usize, std::thread::Result<R>)>,
            job_slots: &'a [Arc<Mutex<Option<ScopedJob<'env, R>>>>],
            /// Results received plus jobs run inline or discarded.
            consumed: usize,
        }
        impl<R> Drop for JoinGuard<'_, '_, R> {
            fn drop(&mut self) {
                for slot in self.job_slots {
                    if slot.lock().take().is_some() {
                        self.consumed += 1; // never started; dropped here
                    }
                }
                while self.consumed < self.job_slots.len() {
                    match self.rx.recv() {
                        Ok(_) => self.consumed += 1,
                        Err(_) => break, // all senders gone: nothing pending
                    }
                }
            }
        }
        let mut guard = JoinGuard {
            rx: &rx,
            job_slots: &job_slots,
            consumed: 0,
        };
        for (idx, slot) in job_slots.iter().enumerate() {
            let tx = tx.clone();
            let slot = slot.clone();
            let wrapper: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
                // Claim-or-skip: an emptied slot means the caller (or an
                // earlier dequeue) already ran this job — the wrapper is
                // then an inert no-op, safe to run or drop at any time.
                let Some(job) = slot.lock().take() else {
                    return;
                };
                let _ = tx.send((idx, std::panic::catch_unwind(AssertUnwindSafe(job))));
            });
            // SAFETY: lifetime erasure is sound because no wrapper can
            // observe 'env data after this frame returns. Every job is
            // consumed *within* this call — claimed inline by the self-help
            // loop below or by a worker-run wrapper (whose result we then
            // block on) — so by the time run_all returns, every slot is
            // empty and the result channel is drained. A wrapper that runs
            // (or is dropped with the pool) later touches only the Arc'd
            // empty slot and a disconnected Sender, never 'env borrows.
            let wrapper: Job = unsafe { std::mem::transmute(wrapper) };
            self.execute_class(class, wrapper);
        }
        drop(tx);

        let mut slots: Vec<Option<std::thread::Result<R>>> = Vec::new();
        slots.resize_with(n, || None);
        // Self-help: claim and run this batch's unstarted jobs inline, like
        // a worker dedicated to the batch (workers claim the rest
        // concurrently). Drain ready results between jobs.
        for (idx, slot) in job_slots.iter().enumerate() {
            while let Ok((i, r)) = rx.try_recv() {
                slots[i] = Some(r);
                guard.consumed += 1;
            }
            let Some(job) = slot.lock().take() else {
                continue; // a worker got there first
            };
            slots[idx] = Some(std::panic::catch_unwind(AssertUnwindSafe(job)));
            guard.consumed += 1;
        }
        // Join: every remaining job was claimed by a live worker whose
        // wrapper always sends (even on panic), so a plain blocking recv
        // suffices — no polling, no foreign work.
        while guard.consumed < n {
            let (idx, result) = rx.recv().expect("claimed executions always send");
            slots[idx] = Some(result);
            guard.consumed += 1;
        }
        unwrap_in_order(slots)
    }

    /// Jobs queued and not yet started (class backlogs not included).
    pub fn queue_depth(&self) -> usize {
        self.queued.load(Ordering::Relaxed)
    }

    /// Current live thread count (base + temporary).
    pub fn thread_count(&self) -> usize {
        self.shared.threads.load(Ordering::Relaxed)
    }
}

/// A joined batch's results in input order; the first panic (in input
/// order) is re-raised now that every job has finished.
fn unwrap_in_order<R>(slots: Vec<Option<std::thread::Result<R>>>) -> Vec<R> {
    slots
        .into_iter()
        .map(|slot| match slot.expect("every slot filled") {
            Ok(r) => r,
            Err(payload) => std::panic::resume_unwind(payload),
        })
        .collect()
}

impl WorkerPool {
    /// Deterministic-mode batch: run every job on this thread in
    /// [`WorkerPool::dispatch_order`], catching panics so each job runs.
    fn run_in_seeded_order<'env, R>(&self, jobs: Vec<ScopedJob<'env, R>>) -> Vec<R> {
        let mut jobs: Vec<Option<ScopedJob<'env, R>>> = jobs.into_iter().map(Some).collect();
        let mut slots: Vec<Option<std::thread::Result<R>>> = Vec::new();
        slots.resize_with(jobs.len(), || None);
        for idx in self.dispatch_order(jobs.len()) {
            let job = jobs[idx]
                .take()
                .expect("a permutation visits each job once");
            slots[idx] = Some(std::panic::catch_unwind(AssertUnwindSafe(job)));
        }
        unwrap_in_order(slots)
    }
}

/// Where a [`WorkerPool::post`]ed job is in its life.
enum PostState<R> {
    /// Nobody has started it: whoever takes the job out runs it.
    Unclaimed(Box<dyn FnOnce() -> R + Send>),
    Running,
    Done(std::thread::Result<R>),
}

struct PostSlot<R> {
    /// A std mutex because the condvar needs its guard. Never held while the
    /// job runs, so it cannot be poisoned.
    state: std::sync::Mutex<PostState<R>>,
    done: Condvar,
}

impl<R> PostSlot<R> {
    fn lock(&self) -> std::sync::MutexGuard<'_, PostState<R>> {
        self.state.lock().expect("no job runs under the slot lock")
    }

    /// Claim-or-skip: run the job unless someone already has. Called by the
    /// enqueued wrapper on a worker and by a poster or waiter lending its
    /// thread; exactly one of them finds the job still there.
    fn run_if_unclaimed(&self) {
        let job = {
            let mut state = self.lock();
            match std::mem::replace(&mut *state, PostState::Running) {
                PostState::Unclaimed(job) => job,
                other => {
                    *state = other;
                    return;
                }
            }
        };
        let result = std::panic::catch_unwind(AssertUnwindSafe(job));
        *self.lock() = PostState::Done(result);
        self.done.notify_all();
    }
}

/// A job handed over with [`WorkerPool::post`]; [`Posted::wait`] blocks for
/// its result. Dropping it without waiting abandons the result, not the job.
pub struct Posted<R> {
    slot: Arc<PostSlot<R>>,
}

impl<R> Posted<R> {
    /// Block until the job has run and return its result; a panic inside
    /// the job is resumed here. While a worker runs the job this parks on a
    /// condvar. A job that *no* worker has claimed gets a millisecond's grace, then
    /// the waiter runs it itself — the progress guarantee of
    /// [`WorkerPool::post`], extended to whatever kept the pool from
    /// claiming it after the post (every thread blocked, a class quota).
    pub fn wait(self) -> R {
        let poisoned = "no job runs under the slot lock";
        let mut state = self.slot.lock();
        let mut grace_given = false;
        loop {
            state = match &*state {
                PostState::Done(_) => break,
                PostState::Running => self.slot.done.wait(state).expect(poisoned),
                PostState::Unclaimed(_) if grace_given => {
                    drop(state);
                    self.slot.run_if_unclaimed();
                    self.slot.lock()
                }
                PostState::Unclaimed(_) => {
                    grace_given = true;
                    let waited = self.slot.done.wait_timeout(state, CLAIM_GRACE);
                    waited.expect(poisoned).0
                }
            };
        }
        match std::mem::replace(&mut *state, PostState::Running) {
            PostState::Done(Ok(r)) => r,
            PostState::Done(Err(payload)) => std::panic::resume_unwind(payload),
            _ => unreachable!("loop exits on Done"),
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the channel lets permanent workers observe disconnection.
        *self.shared.tx.lock() = None;
    }
}

fn spawn_worker(shared: Arc<PoolShared>, queued: Arc<AtomicUsize>, idx: usize, permanent: bool) {
    shared.threads.fetch_add(1, Ordering::Relaxed);
    let name = format!(
        "{}-w{}{}",
        shared.name,
        idx,
        if permanent { "" } else { "t" }
    );
    let worker = {
        let shared = shared.clone();
        move || {
            loop {
                shared.idle.fetch_add(1, Ordering::Relaxed);
                let token = if permanent {
                    shared.rx.recv().map_err(|_| RecvTimeoutError::Disconnected)
                } else {
                    shared.rx.recv_timeout(TEMP_THREAD_IDLE)
                };
                shared.idle.fetch_sub(1, Ordering::Relaxed);
                match token {
                    Ok(()) => {
                        let Some((job, class)) = shared.take_job() else {
                            continue; // teardown race; token without a job
                        };
                        queued.fetch_sub(1, Ordering::Relaxed);
                        // The guard releases the quota slot (and promotes
                        // backlog) even if the job panics.
                        let _running = RunningGuard {
                            shared: &shared,
                            queued: &queued,
                            class,
                        };
                        job();
                    }
                    Err(_) => break, // disconnected, or temp thread idled out
                }
            }
            shared.threads.fetch_sub(1, Ordering::Relaxed);
        }
    };
    if let Err(e) = std::thread::Builder::new().name(name).spawn(worker) {
        // Elastic growth is best-effort: under OS thread pressure the job
        // stays queued for the existing workers. A pool that cannot spawn
        // even its base threads is unusable, though — fail loudly then.
        shared.threads.fetch_sub(1, Ordering::Relaxed);
        if permanent {
            panic!("spawn base worker thread: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn runs_jobs() {
        let pool = WorkerPool::new("t", 2, 8);
        let counter = Arc::new(AtomicU64::new(0));
        let (tx, rx) = crossbeam::channel::bounded(0);
        for _ in 0..100 {
            let c = counter.clone();
            let tx = tx.clone();
            pool.execute(move || {
                c.fetch_add(1, Ordering::SeqCst);
                let _ = tx.send(());
            });
        }
        for _ in 0..100 {
            rx.recv_timeout(Duration::from_secs(5)).unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn grows_under_blocking_load() {
        let pool = WorkerPool::new("t", 1, 16);
        let (release_tx, release_rx) = crossbeam::channel::bounded::<()>(0);
        let (done_tx, done_rx) = crossbeam::channel::bounded(16);
        // 8 jobs that all block: with 1 base thread, progress requires growth.
        for _ in 0..8 {
            let rx = release_rx.clone();
            let done = done_tx.clone();
            pool.execute(move || {
                rx.recv().unwrap();
                done.send(()).unwrap();
            });
        }
        // Give the pool a moment to start workers, then release all jobs.
        std::thread::sleep(Duration::from_millis(50));
        assert!(pool.thread_count() > 1);
        for _ in 0..8 {
            release_tx.send(()).unwrap();
        }
        for _ in 0..8 {
            done_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        }
    }

    #[test]
    fn execute_wait_returns_result() {
        let pool = WorkerPool::new("t", 2, 8);
        assert_eq!(pool.execute_wait(|| 6 * 7), 42);
        let s = pool.execute_wait(|| "hello".to_string());
        assert_eq!(s, "hello");
    }

    #[test]
    fn execute_wait_propagates_panic_and_keeps_worker() {
        let pool = WorkerPool::new("t", 1, 4);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.execute_wait(|| panic!("boom"));
        }));
        assert!(caught.is_err());
        // The worker survived the panic and still runs jobs.
        assert_eq!(pool.execute_wait(|| 1 + 1), 2);
    }

    #[test]
    fn saturated_pool_runs_inline() {
        // 1 thread, no growth: occupy it with a blocked job, then a waiting
        // call must complete by running inline on the caller.
        let pool = WorkerPool::new("t", 1, 1);
        let (release_tx, release_rx) = crossbeam::channel::bounded::<()>(0);
        pool.execute(move || {
            release_rx.recv().unwrap();
        });
        // Give the lone worker a moment to pick the blocking job up.
        std::thread::sleep(Duration::from_millis(20));
        assert!(pool.is_saturated());
        let ran_on = pool.post(|| std::thread::current().id());
        release_tx.send(()).unwrap();
        assert_eq!(ran_on.wait(), std::thread::current().id());
    }

    #[test]
    fn posted_jobs_run_on_workers_and_overlap() {
        // Three posts that rendezvous with each other and with the poster:
        // completion requires all of them in flight while the poster is
        // still free to do something else (here, join the barrier).
        let pool = WorkerPool::new("t", 1, 16);
        let barrier = Arc::new(std::sync::Barrier::new(4));
        let posted: Vec<Posted<std::thread::ThreadId>> = (0..3)
            .map(|_| {
                let b = barrier.clone();
                pool.post(move || {
                    b.wait();
                    std::thread::current().id()
                })
            })
            .collect();
        barrier.wait();
        for p in posted {
            assert_ne!(p.wait(), std::thread::current().id());
        }
    }

    #[test]
    fn waiter_runs_a_posted_job_no_worker_claims() {
        // Query quota 1 with the slot held by a blocked job: the post lands
        // in the class backlog, the pool is not saturated, and no worker
        // will ever claim it. The waiter must.
        let pool = WorkerPool::new("t", 2, 8);
        pool.set_class_quota(JobClass::Query, 1);
        let (release_tx, release_rx) = crossbeam::channel::bounded::<()>(0);
        pool.execute(move || {
            release_rx.recv().unwrap();
        });
        let ran_on = pool.post(|| std::thread::current().id());
        assert_eq!(pool.class_backlog(JobClass::Query), 1);
        assert_eq!(ran_on.wait(), std::thread::current().id());
        release_tx.send(()).unwrap();
    }

    #[test]
    fn posted_panic_resumes_on_the_waiter_and_keeps_the_worker() {
        let pool = WorkerPool::new("t", 1, 4);
        let posted = pool.post(|| -> u32 { panic!("boom") });
        assert!(std::panic::catch_unwind(AssertUnwindSafe(|| posted.wait())).is_err());
        assert_eq!(pool.post(|| 1 + 1).wait(), 2);
    }

    #[test]
    fn deterministic_post_completes_before_it_returns() {
        let pool = WorkerPool::deterministic("t", 1, 4, ClusterRng::new(3));
        let ran = Arc::new(AtomicU64::new(0));
        let r = ran.clone();
        let posted = pool.post(move || r.fetch_add(1, Ordering::SeqCst));
        assert_eq!(ran.load(Ordering::SeqCst), 1, "ran inside post");
        assert_eq!(posted.wait(), 0);
        assert_eq!(pool.queue_depth(), 0);
    }

    #[test]
    fn dispatch_order_is_identity_unless_seeded() {
        assert_eq!(
            WorkerPool::new("t", 1, 1).dispatch_order(5),
            [0, 1, 2, 3, 4]
        );
        let order =
            |seed| WorkerPool::deterministic("t", 1, 1, ClusterRng::new(seed)).dispatch_order(16);
        let mut sorted = order(7);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..16).collect::<Vec<_>>(), "a permutation");
        assert_eq!(order(7), order(7), "same seed, same order");
        assert_ne!(order(7), order(8));
        assert!(order(7).windows(2).any(|w| w[0] > w[1]), "not the identity");
    }

    #[test]
    fn class_quota_bounds_in_flight() {
        let pool = WorkerPool::new("t", 4, 16);
        pool.set_class_quota(JobClass::Ingest, 1);
        let (release_tx, release_rx) = crossbeam::channel::bounded::<()>(0);
        let running = Arc::new(AtomicU64::new(0));
        let peak = Arc::new(AtomicU64::new(0));
        let (done_tx, done_rx) = crossbeam::channel::bounded(8);
        for _ in 0..4 {
            let (rx, running, peak, done) = (
                release_rx.clone(),
                running.clone(),
                peak.clone(),
                done_tx.clone(),
            );
            pool.execute_class(JobClass::Ingest, move || {
                let cur = running.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(cur, Ordering::SeqCst);
                rx.recv().unwrap();
                running.fetch_sub(1, Ordering::SeqCst);
                done.send(()).unwrap();
            });
        }
        std::thread::sleep(Duration::from_millis(30));
        // Quota 1: exactly one job admitted, three in the backlog.
        assert_eq!(pool.class_in_flight(JobClass::Ingest), 1);
        assert_eq!(pool.class_backlog(JobClass::Ingest), 3);
        for _ in 0..4 {
            release_tx.send(()).unwrap();
            done_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        }
        assert_eq!(peak.load(Ordering::SeqCst), 1, "quota exceeded");
        // The last job signalled `done` from inside its body; its quota slot
        // is released just after it returns.
        let t0 = std::time::Instant::now();
        while pool.class_in_flight(JobClass::Ingest) != 0 {
            assert!(t0.elapsed() < Duration::from_secs(5), "slot never freed");
            std::thread::yield_now();
        }
    }

    #[test]
    fn raising_quota_promotes_backlog() {
        let pool = WorkerPool::new("t", 4, 16);
        pool.set_class_quota(JobClass::Ingest, 1);
        let (release_tx, release_rx) = crossbeam::channel::bounded::<()>(0);
        let (done_tx, done_rx) = crossbeam::channel::bounded(8);
        for _ in 0..3 {
            let (rx, done) = (release_rx.clone(), done_tx.clone());
            pool.execute_class(JobClass::Ingest, move || {
                rx.recv().unwrap();
                done.send(()).unwrap();
            });
        }
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(pool.class_backlog(JobClass::Ingest), 2);
        pool.set_class_quota(JobClass::Ingest, 0); // unlimited
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(pool.class_backlog(JobClass::Ingest), 0);
        for _ in 0..3 {
            release_tx.send(()).unwrap();
            done_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        }
    }

    #[test]
    fn query_lane_preempts_ingest_backlog() {
        // One worker, no growth. Occupy it, queue ingest jobs, then a query
        // job: when the worker frees, the query must dequeue before any of
        // the earlier-queued ingest jobs (priority lane, not FIFO).
        let pool = WorkerPool::new("t", 1, 1);
        let (release_tx, release_rx) = crossbeam::channel::bounded::<()>(0);
        pool.execute_class(JobClass::Ingest, move || {
            release_rx.recv().unwrap();
        });
        std::thread::sleep(Duration::from_millis(20));
        let order = Arc::new(Mutex::new(Vec::new()));
        let (done_tx, done_rx) = crossbeam::channel::bounded(8);
        for i in 0..3 {
            let (order, done) = (order.clone(), done_tx.clone());
            pool.execute_class(JobClass::Ingest, move || {
                order.lock().push(format!("ingest{i}"));
                done.send(()).unwrap();
            });
        }
        let (order2, done2) = (order.clone(), done_tx.clone());
        pool.execute_class(JobClass::Query, move || {
            order2.lock().push("query".into());
            done2.send(()).unwrap();
        });
        release_tx.send(()).unwrap();
        for _ in 0..4 {
            done_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        }
        assert_eq!(
            order.lock().first().map(String::as_str),
            Some("query"),
            "query job did not jump the ingest backlog: {:?}",
            order.lock()
        );
    }

    #[test]
    fn run_all_collects_in_order() {
        let pool = WorkerPool::new("t", 2, 16);
        let jobs: Vec<ScopedJob<usize>> = (0..32usize)
            .map(|i| Box::new(move || i * 2) as ScopedJob<usize>)
            .collect();
        let results = pool.run_all(jobs);
        assert_eq!(results, (0..32).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn run_all_borrows_from_stack() {
        let pool = WorkerPool::new("t", 2, 16);
        let data: Vec<u64> = (0..100).collect();
        let chunks: Vec<&[u64]> = data.chunks(10).collect();
        let jobs: Vec<ScopedJob<u64>> = chunks
            .iter()
            .map(|chunk| {
                let chunk: &[u64] = chunk;
                Box::new(move || chunk.iter().sum::<u64>()) as ScopedJob<u64>
            })
            .collect();
        let sums = pool.run_all(jobs);
        assert_eq!(sums.iter().sum::<u64>(), data.iter().sum::<u64>());
    }

    #[test]
    fn run_all_is_concurrent() {
        // With jobs that rendezvous with each other, completion requires all
        // of them to be in flight at once.
        let pool = WorkerPool::new("t", 1, 16);
        let barrier = Arc::new(std::sync::Barrier::new(4));
        let jobs: Vec<ScopedJob<()>> = (0..4)
            .map(|_| {
                let b = barrier.clone();
                Box::new(move || {
                    b.wait();
                }) as ScopedJob<()>
            })
            .collect();
        pool.run_all(jobs); // would hang if jobs ran one at a time
    }

    #[test]
    fn run_all_completes_under_zero_headroom_quota() {
        // Morsel quota 1 with the lone slot held by a blocked job: the
        // batch's wrappers all land in the backlog and no worker will ever
        // run them. Self-help must complete the batch on the caller.
        let pool = WorkerPool::new("t", 2, 8);
        pool.set_class_quota(JobClass::Morsel, 1);
        let (release_tx, release_rx) = crossbeam::channel::bounded::<()>(0);
        pool.execute_class(JobClass::Morsel, move || {
            release_rx.recv().unwrap();
        });
        std::thread::sleep(Duration::from_millis(20));
        let jobs: Vec<ScopedJob<u64>> = (0..4)
            .map(|i| Box::new(move || i as u64) as ScopedJob<u64>)
            .collect();
        let total: u64 = pool.run_all_class(JobClass::Morsel, jobs).into_iter().sum();
        assert_eq!(total, 6);
        release_tx.send(()).unwrap();
    }

    #[test]
    fn run_all_propagates_panic_after_join() {
        let pool = WorkerPool::new("t", 2, 8);
        let done = Arc::new(AtomicU64::new(0));
        let jobs: Vec<ScopedJob<()>> = (0..4)
            .map(|i| {
                let done = done.clone();
                Box::new(move || {
                    if i == 2 {
                        panic!("job 2 failed");
                    }
                    done.fetch_add(1, Ordering::SeqCst);
                }) as ScopedJob<()>
            })
            .collect();
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| pool.run_all(jobs)));
        assert!(caught.is_err());
        // All non-panicking jobs completed before the panic surfaced.
        assert_eq!(done.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn run_all_nested_when_pool_cannot_grow() {
        // One thread, no growth: the lone worker runs a job that itself
        // calls run_all. The batch's wrappers queue with no worker ever free
        // to take them — only the help-first join (the caller draining the
        // queue onto its own thread) can complete this.
        let pool = Arc::new(WorkerPool::new("t", 1, 1));
        let p = pool.clone();
        let total = pool.execute_wait(move || {
            let jobs: Vec<ScopedJob<u64>> = (0..4)
                .map(|i| Box::new(move || i as u64) as ScopedJob<u64>)
                .collect();
            p.run_all(jobs).into_iter().sum::<u64>()
        });
        assert_eq!(total, 6);
    }

    #[test]
    fn run_all_nested_from_pool_thread() {
        // A pool job that itself calls run_all on the same pool (the
        // coordinator-on-a-backend case) must not deadlock: the inline job
        // plus elastic growth guarantee progress.
        let pool = Arc::new(WorkerPool::new("t", 1, 16));
        let p = pool.clone();
        let total = pool.execute_wait(move || {
            let jobs: Vec<ScopedJob<u64>> = (0..8)
                .map(|i| Box::new(move || i as u64) as ScopedJob<u64>)
                .collect();
            p.run_all(jobs).into_iter().sum::<u64>()
        });
        assert_eq!(total, 28);
    }

    /// Run `n` jobs through a seeded pool; returns (results, execution order).
    fn seeded_run(seed: u64, n: usize) -> (Vec<usize>, Vec<usize>) {
        let pool = WorkerPool::deterministic("t", 2, 8, ClusterRng::new(seed));
        let ran = Mutex::new(Vec::new());
        let jobs: Vec<ScopedJob<usize>> = (0..n)
            .map(|i| {
                let ran = &ran;
                Box::new(move || {
                    ran.lock().push(i);
                    i * 2
                }) as ScopedJob<usize>
            })
            .collect();
        let results = pool.run_all_class(JobClass::Morsel, jobs);
        assert_eq!(
            pool.queue_depth(),
            0,
            "deterministic batches enqueue nothing"
        );
        assert_eq!(pool.thread_count(), 2, "and never grow the pool");
        assert!(!pool.is_saturated());
        (results, ran.into_inner())
    }

    #[test]
    fn deterministic_run_all_is_a_seeded_permutation_with_input_order_results() {
        let (results, order) = seeded_run(7, 16);
        assert_eq!(results, (0..16).map(|i| i * 2).collect::<Vec<_>>());
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..16).collect::<Vec<_>>(), "every job ran once");
        assert_ne!(order, sorted, "the seed, not the input, picks the order");
        assert_eq!(seeded_run(7, 16).1, order, "same seed, same order");
        assert_ne!(seeded_run(8, 16).1, order, "another seed, another order");
    }

    #[test]
    fn deterministic_run_all_raises_a_panic_after_every_job_ran() {
        // Whatever position the seed gives the panicking job, its siblings
        // all run before the panic surfaces.
        for seed in 0..8 {
            let pool = WorkerPool::deterministic("t", 1, 1, ClusterRng::new(seed));
            let done = AtomicU64::new(0);
            let jobs: Vec<ScopedJob<()>> = (0..6)
                .map(|i| {
                    let done = &done;
                    Box::new(move || {
                        if i == 2 {
                            panic!("job 2 failed");
                        }
                        done.fetch_add(1, Ordering::SeqCst);
                    }) as ScopedJob<()>
                })
                .collect();
            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| pool.run_all(jobs)));
            assert!(caught.is_err());
            assert_eq!(done.load(Ordering::SeqCst), 5, "seed {seed}");
            assert_eq!(pool.queue_depth(), 0);
            assert_eq!(pool.thread_count(), 1);
        }
    }

    #[test]
    fn drop_stops_workers() {
        let pool = WorkerPool::new("t", 2, 4);
        pool.execute(|| {});
        drop(pool);
        // Nothing to assert beyond "no hang/panic" — workers exit on disconnect.
    }
}
