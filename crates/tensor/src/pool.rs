//! Persistent worker pool for deterministic data parallelism.
//!
//! Every data-parallel hot path in the workspace (f32/integer matmuls, the
//! decomposed requantizing matmul, perplexity evaluation, the experiment
//! scheduler) runs through one shared pool whose threads are spawned once
//! and reused, instead of paying `thread::spawn` on every call.
//!
//! # Determinism contract
//!
//! The pool only ever *partitions* work: each index in `0..n` is claimed by
//! exactly one thread and executed with the same intra-item operation order
//! as the serial loop. No reduction order crosses a partition boundary, so
//! results are **bit-identical** for every thread count, including 1. Any
//! cross-item aggregation (e.g. overflow counters) must be commutative and
//! exact (integer sums), which callers uphold.
//!
//! # Sizing
//!
//! Total parallelism (workers + the calling thread) defaults to
//! [`std::thread::available_parallelism`], overridable by the
//! `TENDER_THREADS` environment variable or programmatically with
//! [`set_threads`] (the CLI's `--threads` flag). `TENDER_THREADS=1` disables
//! the pool entirely: every operation runs inline on the caller.
//!
//! # Observability
//!
//! The pool records queue depth, batch latency, inline/parallel item counts,
//! and per-thread busy time into [`tender_metrics::pool`]. Collection is
//! relaxed atomic adds and wall-clock spans only — it cannot perturb the
//! determinism contract, and timing values never reach experiment stdout.
//!
//! # Safe code, one exception
//!
//! [`par_map`] and [`par_chunks_mut`] are safe code: each item (a result
//! slot, a disjoint `&mut` chunk) is moved into a slot of its own and taken
//! out by the thread that claimed its index. The crate denies `unsafe_code`;
//! the single allowed site is the lifetime erasure in `Pool::run_impl`,
//! which lets persistent workers call a closure borrowed from the
//! injector's stack frame and is sound because the injector blocks until
//! every call has returned (see the `SAFETY` comment there). Persistent
//! workers are what make a dispatch cost about a microsecond where a
//! `std::thread::scope` per call costs 55–270 µs (DESIGN §6).
//!
//! # Re-entrancy
//!
//! Nested calls from inside a pool worker execute inline and serially on
//! that worker. This keeps the outer level (e.g. one experiment per worker)
//! parallel while inner levels (matmuls inside the experiment) degrade to
//! the serial path, and makes deadlock impossible by construction.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use tender_metrics::pool as metrics;

thread_local! {
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Locks a mutex, recovering the guard if a previous holder panicked.
///
/// The pool's internal locks guard claim/completion bookkeeping whose
/// invariants are maintained by atomics, not by the critical sections, so a
/// poisoned lock carries no torn state — recovering keeps a panicking task
/// from wedging every subsequent batch.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A fault hook consulted before each pool task; may panic to inject a task
/// fault. Arguments are (batch size, item index).
pub type TaskFaultHook = Arc<dyn Fn(usize, usize) + Send + Sync>;

static FAULT_HOOK_SET: AtomicBool = AtomicBool::new(false);
static FAULT_HOOK: Mutex<Option<TaskFaultHook>> = Mutex::new(None);

/// Installs (or removes, with `None`) the process-global task fault hook.
///
/// The hook runs before every pool item — inline or parallel — and may panic
/// to simulate a faulting task. While a hook is installed, the inline path
/// adopts the parallel path's isolation semantics (every item executes, the
/// first panic is re-raised at the end), so injected panics leave counters
/// identical at any thread count. Defined here rather than in the faults
/// crate because the pool cannot depend on its own consumers.
pub fn set_task_fault_hook(hook: Option<TaskFaultHook>) {
    let set = hook.is_some();
    *lock_unpoisoned(&FAULT_HOOK) = hook;
    FAULT_HOOK_SET.store(set, Ordering::Release);
}

/// The installed task fault hook, if any (lock-free when absent).
fn task_fault_hook() -> Option<TaskFaultHook> {
    if !FAULT_HOOK_SET.load(Ordering::Acquire) {
        return None;
    }
    lock_unpoisoned(&FAULT_HOOK).clone()
}

/// Minimum scalar-op count (`rows * inner * cols` for a matmul) below which
/// the data-parallel kernels stay on the serial path: smaller products don't
/// amortize even the pool's dispatch cost. Public so the parity tests can
/// generate shapes straddling the threshold.
pub const PAR_THRESHOLD: usize = 1 << 21;

/// Requested size for the global pool before first use (0 = unset).
static REQUESTED_THREADS: AtomicUsize = AtomicUsize::new(0);

static GLOBAL: OnceLock<Pool> = OnceLock::new();

/// Sets the global pool's total thread count (workers + caller).
///
/// Must be called before the first parallel operation; once the global pool
/// has spawned its workers the size is fixed and later calls have no
/// effect. Takes precedence over `TENDER_THREADS`.
pub fn set_threads(n: usize) {
    REQUESTED_THREADS.store(n.max(1), Ordering::Relaxed);
}

/// The global pool, spawning its workers on first use.
pub fn global() -> &'static Pool {
    GLOBAL.get_or_init(|| {
        let n = match REQUESTED_THREADS.load(Ordering::Relaxed) {
            0 => threads_from_env(),
            n => n,
        };
        metrics::THREADS.set(n as u64);
        Pool::new(n)
    })
}

/// The pool size `TENDER_THREADS` asks for, or every core when it is unset.
/// A value that is not a positive integer is reported on stderr (stdout
/// carries results and is byte-compared) and replaced by every core, rather
/// than silently sizing a determinism run differently from what was typed.
fn threads_from_env() -> usize {
    let all_cores = || std::thread::available_parallelism().map_or(1, |p| p.get());
    let Some(raw) = std::env::var_os("TENDER_THREADS") else {
        return all_cores();
    };
    let parsed = raw.to_str().and_then(|v| v.parse::<usize>().ok());
    parsed.filter(|&n| n >= 1).unwrap_or_else(|| {
        let n = all_cores();
        eprintln!("warning: TENDER_THREADS={raw:?} is not a positive integer; using {n} threads");
        n
    })
}

/// The number of threads (workers + caller) the global pool uses.
pub fn current_threads() -> usize {
    global().threads()
}

/// Runs `f(i)` for every `i in 0..n` on the global pool.
///
/// See the module docs for the determinism contract. Panics in `f` are
/// propagated to the caller after all claimed items finish.
pub fn run(n: usize, f: impl Fn(usize) + Sync) {
    global().run(n, &f);
}

/// Splits `data` into consecutive chunks of `chunk_len` elements (the last
/// may be shorter) and runs `f(chunk_index, chunk)` for each on the global
/// pool. Chunks are disjoint, so this is safe to parallelize and the
/// determinism contract holds as long as `f` only writes through its chunk.
pub fn par_chunks_mut<T: Send>(
    data: &mut [T],
    chunk_len: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    if data.is_empty() {
        return;
    }
    assert!(chunk_len > 0, "chunk_len must be non-zero");
    run_owned(data.chunks_mut(chunk_len).collect(), f);
}

/// Computes `f(i)` for every `i in 0..n` on the global pool and returns the
/// results in index order.
pub fn par_map<R: Send>(n: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
    run_owned(results.iter_mut().collect(), |i, slot| *slot = Some(f(i)));
    // All n items completed (run would have propagated a panic otherwise).
    results
        .into_iter()
        .map(|r| r.expect("every item ran"))
        .collect()
}

/// Runs `f(i, items[i])` for every item on the global pool, handing item
/// `i` — by value — to the thread that claimed index `i`, so item ↔ index
/// stays fixed at any thread count. Each item waits in its own slot; the
/// lock is uncontended (one claimant per index) and exists so that sharing
/// the slots across threads is safe code.
fn run_owned<I: Send>(items: Vec<I>, f: impl Fn(usize, I) + Sync) {
    let slots: Vec<Mutex<Option<I>>> = items.into_iter().map(|x| Mutex::new(Some(x))).collect();
    run(slots.len(), |i| {
        let item = lock_unpoisoned(&slots[i]).take();
        f(i, item.expect("the pool runs each index exactly once"));
    });
}

/// One injected unit of fan-out work: a lifetime-erased task plus claim and
/// completion counters.
struct Batch {
    /// The task, its lifetime erased by `Pool::run_impl`: callable only
    /// while `completed < total` (the injector blocks until then, keeping
    /// the underlying closure alive) and never touched afterwards.
    task: &'static (dyn Fn(usize) + Sync),
    /// Next unclaimed item index.
    next: AtomicUsize,
    /// Number of items fully executed (or panicked).
    completed: AtomicUsize,
    total: usize,
    /// First panic payload observed while executing items.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// Lock + condvar pair the injector waits on for completion.
    wait_lock: Mutex<()>,
    done: Condvar,
}

impl Batch {
    /// Claims and executes items until none remain. Returns whether this
    /// thread executed at least one item.
    fn work(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.total {
                return;
            }
            // i < total, so the injector is still blocked in `wait_done` and
            // the closure behind `task` is alive.
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (self.task)(i))) {
                let mut slot = lock_unpoisoned(&self.panic);
                slot.get_or_insert(payload);
            }
            // Release pairs with the injector's Acquire load: all writes
            // made by item i happen-before the injector observes completion.
            if self.completed.fetch_add(1, Ordering::AcqRel) + 1 == self.total {
                let _guard = lock_unpoisoned(&self.wait_lock);
                self.done.notify_all();
            }
        }
    }

    fn exhausted(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= self.total
    }

    fn wait_done(&self) {
        let mut guard = lock_unpoisoned(&self.wait_lock);
        while self.completed.load(Ordering::Acquire) < self.total {
            guard = self
                .done
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

struct State {
    queue: VecDeque<Arc<Batch>>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    available: Condvar,
}

/// A persistent pool of worker threads executing injected batches.
///
/// The workspace shares one instance via [`global`]; standalone pools exist
/// for tests. Dropping a pool signals shutdown and joins every worker.
pub struct Pool {
    shared: Arc<Shared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    threads: usize,
}

impl Pool {
    /// Creates a pool with `threads` total parallelism: `threads - 1`
    /// workers are spawned and the calling thread participates in every
    /// [`Pool::run`]. `threads <= 1` spawns nothing and runs inline.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            available: Condvar::new(),
        });
        let handles = (1..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("tender-pool-{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    .expect("spawn pool worker")
            })
            .collect();
        Self {
            shared,
            handles: Mutex::new(handles),
            threads,
        }
    }

    /// Total parallelism (workers + caller).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f(i)` for every `i in 0..n`, partitioned across the pool.
    ///
    /// Blocks until all items complete; propagates the first panic. Nested
    /// calls from worker threads run inline (see module docs).
    pub fn run(&self, n: usize, f: &(dyn Fn(usize) + Sync)) {
        if n == 0 {
            return;
        }
        if let Some(hook) = task_fault_hook() {
            // Fault-injection mode: consult the hook before each item (it
            // may panic to simulate a faulting task). The wrapper lives on
            // this frame, which outlives run_impl's wait.
            let faulty = move |i: usize| {
                hook(n, i);
                f(i);
            };
            self.run_impl(n, &faulty, true);
            return;
        }
        self.run_impl(n, f, false);
    }

    /// The body of [`Pool::run`]. `isolate_inline` makes the inline path
    /// mirror the parallel path's panic semantics (execute every item,
    /// re-raise the first panic afterwards) so injected faults cannot make
    /// counters diverge between thread counts.
    #[allow(unsafe_code)] // the lifetime erasure below, and nothing else
    fn run_impl(&self, n: usize, f: &(dyn Fn(usize) + Sync), isolate_inline: bool) {
        if n == 1 || self.threads == 1 || IN_WORKER.with(|w| w.get()) {
            // One relaxed atomic add total — the inline path stays as close
            // to free as observation allows (nested kernel calls land here).
            metrics::INLINE_ITEMS.add(n as u64);
            if isolate_inline {
                let mut first: Option<Box<dyn std::any::Any + Send>> = None;
                for i in 0..n {
                    if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(i))) {
                        first.get_or_insert(payload);
                    }
                }
                if let Some(payload) = first {
                    resume_unwind(payload);
                }
            } else {
                for i in 0..n {
                    f(i);
                }
            }
            return;
        }
        metrics::PARALLEL_BATCHES.incr();
        metrics::PARALLEL_ITEMS.add(n as u64);
        let batch_span = metrics::BATCH_LATENCY.span();
        // SAFETY: the transmute only erases the closure's lifetime so workers
        // can hold the batch. `Batch::work` calls `task` solely for claimed
        // indices `i < total`, each such call finishes before it bumps
        // `completed`, and `wait_done` below does not return until
        // `completed == total` — so every call happens while `f` (borrowed
        // for this whole function) is alive. A worker may still hold the
        // `Arc<Batch>` afterwards, but then every index is claimed and the
        // reference is never called, copied or read again; `Batch` is
        // private to this module, so no other code can reach it.
        let task: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(f) };
        let batch = Arc::new(Batch {
            task,
            next: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
            total: n,
            panic: Mutex::new(None),
            wait_lock: Mutex::new(()),
            done: Condvar::new(),
        });
        {
            let mut state = lock_unpoisoned(&self.shared.state);
            state.queue.push_back(Arc::clone(&batch));
            metrics::QUEUE_DEPTH_MAX.observe(state.queue.len() as u64);
        }
        self.shared.available.notify_all();
        // The injector works too, so a saturated pool still makes progress.
        let busy = Instant::now();
        batch.work();
        metrics::THREAD_BUSY_NS.add(0, busy.elapsed().as_nanos() as u64);
        batch.wait_done();
        drop(batch_span);
        {
            let mut state = lock_unpoisoned(&self.shared.state);
            state.queue.retain(|b| !Arc::ptr_eq(b, &batch));
        }
        let payload = lock_unpoisoned(&batch.panic).take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut state = lock_unpoisoned(&self.shared.state);
            state.shutdown = true;
        }
        self.shared.available.notify_all();
        for handle in lock_unpoisoned(&self.handles).drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared, index: usize) {
    IN_WORKER.with(|w| w.set(true));
    loop {
        let batch = {
            let mut state = lock_unpoisoned(&shared.state);
            loop {
                while state.queue.front().is_some_and(|b| b.exhausted()) {
                    state.queue.pop_front();
                }
                if let Some(batch) = state.queue.front() {
                    break Arc::clone(batch);
                }
                if state.shutdown {
                    return;
                }
                state = shared
                    .available
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let busy = Instant::now();
        batch.work();
        metrics::THREAD_BUSY_NS.add(index, busy.elapsed().as_nanos() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn runs_every_index_exactly_once() {
        let pool = Pool::new(4);
        let hits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        pool.run(1000, &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn zero_items_is_a_noop() {
        let pool = Pool::new(4);
        pool.run(0, &|_| panic!("must not run"));
    }

    #[test]
    fn single_item_runs_inline() {
        let pool = Pool::new(4);
        let caller = std::thread::current().id();
        pool.run(1, &|i| {
            assert_eq!(i, 0);
            assert_eq!(std::thread::current().id(), caller);
        });
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = Pool::new(1);
        let caller = std::thread::current().id();
        let count = AtomicUsize::new(0);
        pool.run(64, &|_| {
            assert_eq!(std::thread::current().id(), caller);
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn nested_use_is_safe_and_complete() {
        let pool = Pool::new(4);
        let total = AtomicU64::new(0);
        pool.run(8, &|i| {
            // Nested run on the *global* pool from a worker of a local pool
            // is inline only when the thread is marked as a worker; local
            // nesting exercises the same IN_WORKER path.
            pool.run(8, &|j| {
                total.fetch_add((i * 8 + j) as u64, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), (0..64).sum::<u64>());
    }

    #[test]
    fn panics_propagate_to_the_caller() {
        let pool = Pool::new(4);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(100, &|i| {
                if i == 37 {
                    panic!("item 37 exploded");
                }
            });
        }));
        let payload = result.expect_err("panic must propagate");
        let message = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(message.contains("exploded"), "unexpected payload");
        // The pool must remain usable after a propagated panic.
        let count = AtomicUsize::new(0);
        pool.run(50, &|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn drop_joins_workers_cleanly() {
        for _ in 0..8 {
            let pool = Pool::new(4);
            pool.run(16, &|_| {});
            drop(pool); // must not hang or leak threads
        }
    }

    #[test]
    fn par_map_preserves_index_order() {
        let squares = par_map(257, |i| i * i);
        assert_eq!(squares.len(), 257);
        assert!(squares.iter().enumerate().all(|(i, &s)| s == i * i));
    }

    #[test]
    fn par_map_zero_and_one() {
        assert_eq!(par_map(0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map(1, |i| i + 10), vec![10]);
    }

    #[test]
    fn par_map_returns_owned_non_copy_results() {
        // `String` is neither `Copy` nor cheaply defaulted: each result is
        // built on the thread that ran the item and moved out exactly once.
        let names = par_map(130, |i| format!("item-{i}"));
        assert_eq!(names.len(), 130);
        assert!(names
            .iter()
            .enumerate()
            .all(|(i, s)| *s == format!("item-{i}")));
    }

    #[test]
    fn par_map_panic_propagates_and_the_pool_stays_usable() {
        let result = std::panic::catch_unwind(|| {
            par_map(64, |i| {
                if i == 19 {
                    panic!("item 19 exploded");
                }
                format!("ok-{i}")
            })
        });
        let payload = result.expect_err("panic must propagate");
        let message = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(message.contains("exploded"), "unexpected payload");
        assert_eq!(par_map(64, |i| i + 1), (1..=64).collect::<Vec<_>>());
    }

    #[test]
    fn par_chunks_mut_hands_out_owned_element_types() {
        let mut data: Vec<String> = (0..23).map(|i| i.to_string()).collect();
        par_chunks_mut(&mut data, 4, |ci, chunk| {
            for s in chunk.iter_mut() {
                s.push_str(&format!("@{ci}"));
            }
        });
        for (i, s) in data.iter().enumerate() {
            assert_eq!(*s, format!("{i}@{}", i / 4));
        }
    }

    #[test]
    fn par_chunks_mut_covers_ragged_tail() {
        let mut data = vec![0_u32; 103];
        par_chunks_mut(&mut data, 10, |ci, chunk| {
            for x in chunk.iter_mut() {
                *x = ci as u32 + 1;
            }
        });
        for (i, &x) in data.iter().enumerate() {
            assert_eq!(x, (i / 10) as u32 + 1);
        }
    }

    #[test]
    fn par_chunks_mut_empty_input() {
        let mut data: Vec<u32> = vec![];
        par_chunks_mut(&mut data, 8, |_, _| panic!("must not run"));
    }

    #[test]
    fn fault_hook_panics_are_deterministic_across_thread_counts() {
        // The hook is process-global and this crate's tests share a process,
        // so key the injected fault on a batch size no other test uses.
        const N: usize = 977;
        let run_with = |threads: usize| {
            let pool = Pool::new(threads);
            let count = AtomicUsize::new(0);
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                pool.run(N, &|_| {
                    count.fetch_add(1, Ordering::Relaxed);
                });
            }));
            // A batch must still succeed after the panicked batch (the
            // poison-recovering locks are what make this reliable). Use a
            // batch size the hook does not match so it runs clean.
            let after = AtomicUsize::new(0);
            pool.run(N + 1, &|_| {
                after.fetch_add(1, Ordering::Relaxed);
            });
            (
                outcome.is_err(),
                count.load(Ordering::Relaxed),
                after.load(Ordering::Relaxed),
            )
        };
        set_task_fault_hook(Some(Arc::new(|n, i| {
            if n == N && (i == 5 || i == 700) {
                panic!("injected pool task fault");
            }
        })));
        let serial = run_with(1);
        let parallel = run_with(4);
        set_task_fault_hook(None);
        // Both thread counts: the batch panics, every non-faulted item still
        // executed, and the follow-up batch ran to completion.
        assert_eq!(serial, (true, N - 2, N + 1));
        assert_eq!(parallel, serial);
        // With the hook gone the same batch size runs clean.
        let pool = Pool::new(2);
        let clean = AtomicUsize::new(0);
        pool.run(N, &|_| {
            clean.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(clean.load(Ordering::Relaxed), N);
    }

    #[test]
    fn set_threads_clamps_to_one() {
        // Only exercises the clamp; the global pool may already be running.
        set_threads(0);
        assert!(REQUESTED_THREADS.load(Ordering::Relaxed) >= 1);
    }
}
