//! Offline stand-in for `rayon`: a scoped, work-stealing thread pool on
//! plain `std`.
//!
//! The subset provided is what the (k,r)-core preprocessing pool needs:
//!
//! * [`ThreadPoolBuilder`] → [`ThreadPool`] with a `num_threads` knob;
//! * [`ThreadPool::scope`] / free-standing [`scope`] — structured
//!   parallelism: every task spawned on the [`Scope`] completes before the
//!   call returns, and tasks may spawn further tasks;
//! * [`join`] and [`current_num_threads`].
//!
//! Scheduling is genuine work-stealing: each worker owns a deque, pushes
//! its spawns on the back (LIFO, cache-friendly), pops its own back, and
//! steals from other workers' fronts (FIFO, grabbing the oldest —
//! typically largest — task). Workers are spawned per `scope` call via
//! `std::thread::scope` rather than kept hot in a global pool; for the
//! coarse-grained preprocessing shards the pool runs (k-core peel rounds,
//! component arenas, candidate-verification shards), thread start-up is
//! noise. Panics in tasks are captured and
//! re-thrown from the scope call after all workers stop, mirroring rayon's
//! behavior.
//!
//! See `crates/shims/README.md` for the shim policy.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

type Job<'scope> = Box<dyn FnOnce(&Scope<'scope>) + Send + 'scope>;

thread_local! {
    /// Index of the worker the current thread plays in the active scope
    /// (`usize::MAX` when the thread is not a scope worker).
    static WORKER_INDEX: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// Builder for a [`ThreadPool`], mirroring `rayon::ThreadPoolBuilder`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

/// Error type for [`ThreadPoolBuilder::build`] (building cannot actually
/// fail in the shim; the `Result` keeps call sites source-compatible).
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

impl ThreadPoolBuilder {
    /// Fresh builder (thread count defaults to the machine parallelism).
    pub fn new() -> Self {
        ThreadPoolBuilder::default()
    }

    /// Sets the number of worker threads (0 = machine parallelism).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Builds the pool.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let n = if self.num_threads == 0 {
            current_num_threads()
        } else {
            self.num_threads
        };
        Ok(ThreadPool { num_threads: n })
    }
}

/// A handle carrying a thread-count; workers are spawned per [`scope`]
/// call (see module docs).
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Number of worker threads scopes on this pool will use.
    pub fn current_num_threads(&self) -> usize {
        self.num_threads
    }

    /// Runs `f` (on the calling thread; pool context is implicit in the
    /// shim since scopes carry their own workers).
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        f()
    }

    /// Structured fork-join region with `self.num_threads` workers.
    pub fn scope<'scope, R>(&self, f: impl FnOnce(&Scope<'scope>) -> R + Send) -> R
    where
        R: Send,
    {
        run_scope(self.num_threads, f)
    }
}

/// Machine parallelism (what a default-built pool uses).
pub fn current_num_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Structured fork-join region on a default-sized worker set.
pub fn scope<'scope, R>(f: impl FnOnce(&Scope<'scope>) -> R + Send) -> R
where
    R: Send,
{
    run_scope(current_num_threads(), f)
}

/// Runs both closures, returning both results. The shim runs them on the
/// calling thread (sufficient for the call sites in this workspace, which
/// use `join` for two-way splits of already-parallel regions).
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    (a(), b())
}

/// Spawn surface handed to scope closures and tasks.
pub struct Scope<'scope> {
    /// One deque per worker slot (workers 0..n; slot n is the injector the
    /// scope-owning thread pushes to before it starts helping).
    deques: Vec<Mutex<VecDeque<Job<'scope>>>>,
    /// Tasks spawned and not yet finished.
    pending: AtomicUsize,
    /// Tasks sitting in a deque (spawned, not yet picked up). Idle
    /// workers consult this — not `pending` — before sleeping: when every
    /// outstanding task is already *running*, re-scanning the deques is a
    /// busy-spin that starves the working threads (catastrophically so on
    /// single-core hosts).
    queued: AtomicUsize,
    /// Set once the scope closure has returned and `pending` hit zero.
    shutdown: AtomicBool,
    /// Sleep/wake machinery for idle workers.
    idle: Mutex<()>,
    idle_cv: Condvar,
    /// First panic payload captured from a task.
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
    /// Round-robin cursor for spawns from non-worker threads.
    external_cursor: AtomicUsize,
}

impl<'scope> Scope<'scope> {
    /// Spawns a task; it runs before the enclosing scope call returns and
    /// may itself spawn onto the same scope.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce(&Scope<'scope>) + Send + 'scope,
    {
        self.pending.fetch_add(1, Ordering::SeqCst);
        self.queued.fetch_add(1, Ordering::SeqCst);
        let slot = WORKER_INDEX.with(|w| w.get());
        let slot = if slot < self.deques.len() {
            slot
        } else {
            self.external_cursor.fetch_add(1, Ordering::Relaxed) % self.deques.len()
        };
        self.deques[slot]
            .lock()
            .expect("deque poisoned")
            .push_back(Box::new(f));
        self.idle_cv.notify_one();
    }

    /// Pops from the back of `slot`'s own deque, else steals from the
    /// front of another deque.
    fn find_job(&self, slot: usize) -> Option<Job<'scope>> {
        if let Some(job) = self.deques[slot].lock().expect("deque poisoned").pop_back() {
            self.queued.fetch_sub(1, Ordering::SeqCst);
            return Some(job);
        }
        let n = self.deques.len();
        for off in 1..n {
            let victim = (slot + off) % n;
            if let Some(job) = self.deques[victim]
                .lock()
                .expect("deque poisoned")
                .pop_front()
            {
                self.queued.fetch_sub(1, Ordering::SeqCst);
                return Some(job);
            }
        }
        None
    }

    /// Runs one job, capturing panics so the counter always decrements.
    fn run_job(&self, job: Job<'scope>) {
        let result = catch_unwind(AssertUnwindSafe(|| job(self)));
        if let Err(payload) = result {
            let mut slot = self.panic.lock().expect("panic slot poisoned");
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
        if self.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
            // Last task done: wake everyone so workers can observe shutdown
            // and the owner can stop helping.
            let _guard = self.idle.lock().expect("idle lock poisoned");
            self.idle_cv.notify_all();
        }
    }

    /// Worker loop: run/steal until shutdown.
    fn work(&self, slot: usize) {
        WORKER_INDEX.with(|w| w.set(slot));
        loop {
            if let Some(job) = self.find_job(slot) {
                self.run_job(job);
                continue;
            }
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let guard = self.idle.lock().expect("idle lock poisoned");
            // Re-scan only when a task is actually queued (spawn bumps
            // `queued` before notifying, so this check under the lock
            // cannot miss one); otherwise sleep until woken or timeout.
            if self.shutdown.load(Ordering::SeqCst) || self.queued.load(Ordering::SeqCst) > 0 {
                continue;
            }
            let _ = self
                .idle_cv
                .wait_timeout(guard, Duration::from_millis(1))
                .expect("idle lock poisoned");
        }
        WORKER_INDEX.with(|w| w.set(usize::MAX));
    }
}

fn run_scope<'scope, R>(num_threads: usize, f: impl FnOnce(&Scope<'scope>) -> R + Send) -> R
where
    R: Send,
{
    let n = num_threads.max(1);
    let scope = Scope {
        deques: (0..n + 1).map(|_| Mutex::new(VecDeque::new())).collect(),
        pending: AtomicUsize::new(0),
        queued: AtomicUsize::new(0),
        shutdown: AtomicBool::new(false),
        idle: Mutex::new(()),
        idle_cv: Condvar::new(),
        panic: Mutex::new(None),
        external_cursor: AtomicUsize::new(0),
    };
    // If the scope closure itself panics (as opposed to a spawned task,
    // whose panics are caught in `run_job`), the unwind leaves
    // `std::thread::scope` joining workers that would otherwise loop
    // forever waiting for a shutdown nobody will signal. The drop guard
    // turns that deadlock back into rayon's behavior: workers stop, the
    // panic propagates.
    struct ShutdownGuard<'g, 's>(&'g Scope<'s>);
    impl Drop for ShutdownGuard<'_, '_> {
        fn drop(&mut self) {
            self.0.shutdown.store(true, Ordering::SeqCst);
            let _guard = self.0.idle.lock().expect("idle lock poisoned");
            self.0.idle_cv.notify_all();
        }
    }

    let result = std::thread::scope(|ts| {
        let guard = ShutdownGuard(&scope);
        for slot in 0..n {
            let scope_ref = &scope;
            ts.spawn(move || scope_ref.work(slot));
        }
        // The owning thread runs the closure, then helps drain the queues
        // (its deque slot is `n`, the injector).
        WORKER_INDEX.with(|w| w.set(n));
        let result = f(&scope);
        while self_pending(&scope) {
            if let Some(job) = scope.find_job(n) {
                scope.run_job(job);
            } else {
                let guard = scope.idle.lock().expect("idle lock poisoned");
                if scope.pending.load(Ordering::SeqCst) == 0 {
                    break;
                }
                if scope.queued.load(Ordering::SeqCst) > 0 {
                    continue;
                }
                let _ = scope
                    .idle_cv
                    .wait_timeout(guard, Duration::from_millis(1))
                    .expect("idle lock poisoned");
            }
        }
        WORKER_INDEX.with(|w| w.set(usize::MAX));
        drop(guard); // normal path: same shutdown broadcast as the panic path
        result
    });
    if let Some(payload) = scope.panic.lock().expect("panic slot poisoned").take() {
        resume_unwind(payload);
    }
    result
}

fn self_pending(scope: &Scope<'_>) -> bool {
    scope.pending.load(Ordering::SeqCst) > 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn scope_runs_all_tasks() {
        let sum = AtomicU64::new(0);
        scope(|s| {
            for i in 1..=100u64 {
                let sum = &sum;
                s.spawn(move |_| {
                    sum.fetch_add(i, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(sum.load(Ordering::Relaxed), 5050);
    }

    #[test]
    fn nested_spawns_complete() {
        let count = AtomicUsize::new(0);
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        pool.scope(|s| {
            for _ in 0..8 {
                let count = &count;
                s.spawn(move |s| {
                    for _ in 0..8 {
                        s.spawn(move |_| {
                            count.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        assert_eq!(count.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn scope_returns_closure_value() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let v = pool.scope(|_| 42);
        assert_eq!(v, 42);
    }

    #[test]
    fn borrows_outlive_scope() {
        let data = [1u64, 2, 3, 4];
        let total = AtomicU64::new(0);
        scope(|s| {
            for chunk in data.chunks(2) {
                let total = &total;
                s.spawn(move |_| {
                    total.fetch_add(chunk.iter().sum::<u64>(), Ordering::Relaxed);
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn panic_propagates() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|_| panic!("boom"));
                s.spawn(|_| {}); // sibling task still completes
            });
        }));
        assert!(result.is_err());
    }

    #[test]
    fn closure_panic_propagates_without_hanging() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|_| {});
                panic!("closure boom");
            })
        }));
        assert!(result.is_err());
    }

    #[test]
    fn single_thread_pool_works() {
        let pool = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let hits = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..10 {
                let hits = &hits;
                s.spawn(move |_| {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(hits.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn join_runs_both() {
        let (a, b) = join(|| 1 + 1, || "x".to_string() + "y");
        assert_eq!(a, 2);
        assert_eq!(b, "xy");
    }
}
