//! # tender-metrics
//!
//! A std-only observability layer for the whole workspace: atomic counters,
//! gauges, and span timers with **zero hot-path allocation**, plus a
//! structured JSON report (`tender-cli --metrics-json <path>`,
//! `all_experiments --metrics-json <path>`).
//!
//! # Design
//!
//! Every metric is a `static` with interior atomicity, declared centrally in
//! this crate under a module named for the subsystem that records it
//! ([`pool`], [`kernel`], [`model`], [`sim`], [`faults`], [`runner`]).
//! Instrumented crates update
//! them with relaxed atomic adds — one instruction on the hot path, no
//! locks, no allocation, no registration handshake. The report walks the
//! same statics, so collection and export cannot drift apart.
//!
//! # Determinism contract
//!
//! Instrumentation must never perturb computed results: counters are
//! commutative integer sums (exact under any thread interleaving, so the
//! *counts* printed to stdout are bit-identical at every pool size, matching
//! the worker pool's determinism guarantee), and timers measure wall clock
//! only — timing values appear exclusively in the JSON report, never in
//! experiment stdout.
//!
//! # Example
//!
//! ```
//! use tender_metrics as metrics;
//!
//! metrics::kernel::OVERFLOW_EVENTS.add(3);
//! let t = metrics::model::LAYER_FORWARD.span(0);
//! drop(t); // records the elapsed time for layer 0
//! let json = metrics::report().to_json();
//! assert!(json.contains("\"overflow_events\""));
//! ```

#![warn(missing_docs)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

mod report;

pub use report::{Report, Section, Value};

/// A monotone event counter (relaxed atomic `u64`).
///
/// Adds are commutative and exact, so totals are independent of thread
/// interleaving — the property the workspace's determinism contract needs.
#[derive(Debug)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter, usable in `static` position.
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Adds `n` events. `n == 0` is free (no atomic traffic).
    #[inline]
    pub fn add(&self, n: u64) {
        if n != 0 {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one event.
    #[inline]
    pub fn incr(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Resets to zero (tests and multi-run harnesses).
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

impl Default for Counter {
    fn default() -> Self {
        Self::new()
    }
}

/// A last-written-value gauge (e.g. the pool's thread count).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A zeroed gauge, usable in `static` position.
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Sets the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n` to the value (aggregate gauges summed across owners).
    /// `n == 0` is free (no atomic traffic).
    #[inline]
    pub fn add(&self, n: u64) {
        if n != 0 {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Subtracts `n` from the value, saturating at zero so a reset while
    /// contributors are still live cannot wrap the gauge around.
    #[inline]
    pub fn sub(&self, n: u64) {
        if n != 0 {
            let _ = self
                .0
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                    Some(v.saturating_sub(n))
                });
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Resets to zero.
    pub fn reset(&self) {
        self.set(0);
    }
}

/// A running-maximum gauge (e.g. deepest observed pool queue).
#[derive(Debug, Default)]
pub struct MaxGauge(AtomicU64);

impl MaxGauge {
    /// A zeroed gauge, usable in `static` position.
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Folds `v` into the maximum.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Largest observed value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Resets to zero.
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A span timer: event count, total and maximum duration in nanoseconds.
///
/// Record either with an RAII [`Span`] (see [`Timer::span`]) or directly
/// with [`Timer::record_ns`]. All fields are relaxed atomics; recording is
/// three `fetch_*` instructions and never allocates.
#[derive(Debug, Default)]
pub struct Timer {
    count: AtomicU64,
    total_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Timer {
    /// A zeroed timer, usable in `static` position.
    pub const fn new() -> Self {
        Self {
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }

    /// Records one span of `ns` nanoseconds.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Starts an RAII span that records its elapsed time when dropped.
    pub fn span(&self) -> Span<'_> {
        Span {
            timer: self,
            start: Instant::now(),
        }
    }

    /// Number of recorded spans.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Total nanoseconds across all spans.
    pub fn total_ns(&self) -> u64 {
        self.total_ns.load(Ordering::Relaxed)
    }

    /// Longest single span in nanoseconds.
    pub fn max_ns(&self) -> u64 {
        self.max_ns.load(Ordering::Relaxed)
    }

    /// Mean span duration in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.total_ns().checked_div(self.count()).unwrap_or(0)
    }

    /// Resets all fields to zero.
    pub fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.total_ns.store(0, Ordering::Relaxed);
        self.max_ns.store(0, Ordering::Relaxed);
    }
}

/// RAII guard returned by [`Timer::span`]; records on drop.
#[must_use = "a span records its duration when dropped"]
pub struct Span<'a> {
    timer: &'a Timer,
    start: Instant,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.timer
            .record_ns(self.start.elapsed().as_nanos().min(u64::MAX as u128) as u64);
    }
}

/// A fixed bank of timers indexed by a small id (e.g. layer index).
///
/// Indices past the bank size fold into the last slot, so recording is
/// always in-bounds and allocation-free regardless of model depth.
#[derive(Debug)]
pub struct TimerBank<const N: usize>([Timer; N]);

impl<const N: usize> TimerBank<N> {
    /// A zeroed bank, usable in `static` position.
    pub const fn new() -> Self {
        Self([const { Timer::new() }; N])
    }

    /// The timer for `idx` (clamped to the last slot).
    pub fn slot(&self, idx: usize) -> &Timer {
        &self.0[idx.min(N - 1)]
    }

    /// Starts an RAII span on slot `idx`.
    pub fn span(&self, idx: usize) -> Span<'_> {
        self.slot(idx).span()
    }

    /// Records `ns` nanoseconds on slot `idx`.
    #[inline]
    pub fn record_ns(&self, idx: usize, ns: u64) {
        self.slot(idx).record_ns(ns);
    }

    /// All slots, for report export.
    pub fn slots(&self) -> &[Timer; N] {
        &self.0
    }

    /// Resets every slot.
    pub fn reset(&self) {
        for t in &self.0 {
            t.reset();
        }
    }
}

impl<const N: usize> Default for TimerBank<N> {
    fn default() -> Self {
        Self::new()
    }
}

/// A fixed bank of counters indexed by a small id (e.g. group index).
#[derive(Debug)]
pub struct CounterBank<const N: usize>([Counter; N]);

impl<const N: usize> CounterBank<N> {
    /// A zeroed bank, usable in `static` position.
    pub const fn new() -> Self {
        Self([const { Counter::new() }; N])
    }

    /// Adds `n` to slot `idx` (clamped to the last slot).
    #[inline]
    pub fn add(&self, idx: usize, n: u64) {
        self.0[idx.min(N - 1)].add(n);
    }

    /// Value of slot `idx` (clamped to the last slot).
    pub fn get(&self, idx: usize) -> u64 {
        self.0[idx.min(N - 1)].get()
    }

    /// All slots, for report export.
    pub fn slots(&self) -> &[Counter; N] {
        &self.0
    }

    /// Resets every slot.
    pub fn reset(&self) {
        for c in &self.0 {
            c.reset();
        }
    }
}

impl<const N: usize> Default for CounterBank<N> {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-thread slots tracked for the worker pool (slot 0 is the injecting
/// caller; workers occupy 1..). Larger pools fold into the last slot.
pub const MAX_POOL_THREADS: usize = 64;

/// Per-layer timing slots; deeper models fold into the last slot.
pub const MAX_LAYERS: usize = 64;

/// Per-group counter slots; higher group indices fold into the last slot.
pub const MAX_GROUPS: usize = 16;

/// Worker-pool metrics (`tender_tensor::pool`).
pub mod pool {
    use super::*;

    /// Total parallelism of the global pool (workers + caller).
    pub static THREADS: Gauge = Gauge::new();
    /// Batches dispatched to the parallel path.
    pub static PARALLEL_BATCHES: Counter = Counter::new();
    /// Work items executed through the parallel path.
    pub static PARALLEL_ITEMS: Counter = Counter::new();
    /// Work items executed inline (serial path, nested calls, 1-thread pool).
    pub static INLINE_ITEMS: Counter = Counter::new();
    /// Deepest injection queue observed (batches waiting at enqueue time).
    pub static QUEUE_DEPTH_MAX: MaxGauge = MaxGauge::new();
    /// Injector-side latency of one parallel batch: enqueue → all items done.
    pub static BATCH_LATENCY: Timer = Timer::new();
    /// Busy time per thread (slot 0 = the injecting caller, 1.. = workers).
    pub static THREAD_BUSY_NS: CounterBank<MAX_POOL_THREADS> = CounterBank::new();
}

/// Tender kernel metrics (`tender_quant::tender`).
pub mod kernel {
    use super::*;

    /// Implicit-requantization matmul invocations.
    pub static IMPLICIT_MATMULS: Counter = Counter::new();
    /// Explicit-requantization matmul invocations.
    pub static EXPLICIT_MATMULS: Counter = Counter::new();
    /// Activation values quantized by the decomposed kernels.
    pub static QUANTIZED_VALUES: Counter = Counter::new();
    /// Quantized values that clipped at ±qmax (saturation events).
    pub static SATURATED_VALUES: Counter = Counter::new();
    /// Values quantized per channel group (group 0 = largest scale).
    pub static GROUP_QUANTIZED: CounterBank<MAX_GROUPS> = CounterBank::new();
    /// Accumulator excursions beyond the hardware's 32-bit range, observed
    /// after **every** accumulation step (MAC or α-shift) — the
    /// hardware-faithful count (see `DESIGN.md`).
    pub static OVERFLOW_EVENTS: Counter = Counter::new();
    /// Chunks proven overflow-free a priori (per-step checks skipped).
    pub static CHUNKS_FAST_PATH: Counter = Counter::new();
    /// Chunks run with per-step overflow checks.
    pub static CHUNKS_CHECKED: Counter = Counter::new();
}

/// GEMM metrics (`tender_tensor::gemm`).
pub mod gemm {
    use super::*;

    /// `Matrix`/`IMatrix` products dispatched (the kernels are the reference
    /// loops, hence the name the benchmark reads).
    pub static REFERENCE_GEMMS: Counter = Counter::new();
    /// Never incremented; read only by the frozen `benchmark/` crate.
    pub static BLOCKED_GEMMS: Counter = Counter::new();
    /// Never incremented; read only by the frozen `benchmark/` crate.
    pub static TILES_FAST_PATH: Counter = Counter::new();
    /// Never incremented; read only by the frozen `benchmark/` crate.
    pub static TILES_CHECKED: Counter = Counter::new();
}

/// Model forward-pass metrics (`tender_model`).
pub mod model {
    use super::*;

    /// Complete forward passes (reference + quantized).
    pub static FORWARD_PASSES: Counter = Counter::new();
    /// Wall-clock per transformer layer, by layer index.
    pub static LAYER_FORWARD: TimerBank<MAX_LAYERS> = TimerBank::new();
}

/// Decode-engine metrics (`tender_model::engine`): prefill vs decode
/// spans, token counters, KV-cache footprint.
pub mod engine {
    use super::*;

    /// Prefill calls (one per session prompt).
    pub static PREFILLS: Counter = Counter::new();
    /// Tokens ingested by prefill passes.
    pub static PREFILL_TOKENS: Counter = Counter::new();
    /// Tokens ingested against a non-empty cache: one per `step`, one per
    /// row of a multi-token `extend`.
    pub static DECODE_STEPS: Counter = Counter::new();
    /// Multiply-accumulates executed for those tokens (per-layer GEMMs,
    /// attention against the cache included; LM head excluded).
    pub static DECODE_MACS: Counter = Counter::new();
    /// Wall-clock per prefill pass.
    pub static PREFILL_TIME: Timer = Timer::new();
    /// Wall-clock per cached forward: one span per `step` / `extend` call,
    /// however many tokens it ingests.
    pub static DECODE_STEP_TIME: Timer = Timer::new();
    /// Resident KV-cache bytes summed across live sessions (each session
    /// adds/subtracts its delta, so the gauge is the aggregate, not the
    /// last writer's value).
    pub static KV_CACHE_BYTES: Gauge = Gauge::new();
    /// Allocated (preallocated-capacity) KV-cache bytes summed across live
    /// sessions.
    pub static KV_CACHE_ALLOCATED_BYTES: Gauge = Gauge::new();
    /// Largest aggregate resident KV-cache footprint observed, bytes.
    pub static KV_CACHE_PEAK_BYTES: MaxGauge = MaxGauge::new();
    /// Runtime KV-cache requantization events: appends whose row maximum
    /// exceeded the head's running `TMax`, forcing stored rows through the
    /// group-index / 1-bit-shift requantization path.
    pub static KV_REQUANTS: Counter = Counter::new();
    /// Integer-domain KV dot products: attention score/value rows computed
    /// directly on packed cache codes (no dequantize-on-read).
    pub static KV_INT_DOTS: Counter = Counter::new();
    /// Multiply-accumulates executed by integer-domain KV dots (a subset
    /// of `DECODE_MACS`, cross-checked against the simulator's
    /// `kv_int_dot_macs` model).
    pub static KV_INT_DOT_MACS: Counter = Counter::new();
    /// Greedy rollouts truncated at a `StepError` (typically the context
    /// window) instead of completing their requested step budget.
    pub static DECODE_TRUNCATED: Counter = Counter::new();
}

/// Paged KV-arena metrics (`tender_tensor::arena`): per-tier page and
/// byte gauges plus demotion / copy-on-write / eviction counters. Shared
/// pages are counted exactly once regardless of how many forked sessions
/// retain them.
pub mod kv_arena {
    use super::*;

    /// Live arenas (every decode session owns or shares one).
    pub static ARENAS: Gauge = Gauge::new();
    /// Pages handed out over the process lifetime.
    pub static PAGE_ALLOCS: Counter = Counter::new();
    /// Pages freed when their last owner released them.
    pub static PAGE_FREES: Counter = Counter::new();
    /// Live pages at the exact f32 tier.
    pub static PAGES_F32: Gauge = Gauge::new();
    /// Live pages at the int8 tier.
    pub static PAGES_INT8: Gauge = Gauge::new();
    /// Live pages at the int4 tier (the demotion floor).
    pub static PAGES_INT4: Gauge = Gauge::new();
    /// Resident bytes held by f32 pages.
    pub static RESIDENT_F32: Gauge = Gauge::new();
    /// Resident bytes held by int8 pages.
    pub static RESIDENT_INT8: Gauge = Gauge::new();
    /// Resident bytes held by int4 pages.
    pub static RESIDENT_INT4: Gauge = Gauge::new();
    /// Allocated (full-page-granularity) bytes held by f32 pages.
    pub static ALLOCATED_F32: Gauge = Gauge::new();
    /// Allocated bytes held by int8 pages.
    pub static ALLOCATED_INT8: Gauge = Gauge::new();
    /// Allocated bytes held by int4 pages.
    pub static ALLOCATED_INT4: Gauge = Gauge::new();
    /// Cold pages requantized in place to int8 under memory pressure.
    pub static DEMOTED_INT8: Counter = Counter::new();
    /// Cold pages requantized in place to int4 (the last rung before a
    /// typed `EvictError`).
    pub static DEMOTED_INT4: Counter = Counter::new();
    /// Copy-on-write page copies triggered by divergent appends onto
    /// shared prefix pages.
    pub static COW_COPIES: Counter = Counter::new();
    /// *Terminal* allocation refusals at the arena's hard byte cap: the
    /// caller's demotion ladder reached its floor and the append failed.
    pub static EVICT_FAILURES: Counter = Counter::new();
    /// Interim cap refusals answered by demoting cold pages and retrying
    /// — requantization work, not failures.
    pub static ALLOC_RETRIES: Counter = Counter::new();
    /// Page lock acquisitions that found the lock held the other way (a
    /// `try_read`/`try_write` that would have blocked). The name predates
    /// per-page locks — the arena used to lock shards of a page table —
    /// and is kept because `benchmark/` reads it.
    pub static SHARD_CONTENTION: Counter = Counter::new();
    /// Demotion candidates currently queued for the boundary drain.
    pub static DEMOTION_QUEUE_DEPTH: Gauge = Gauge::new();
    /// Deepest the demotion queue has been.
    pub static DEMOTION_QUEUE_PEAK: MaxGauge = MaxGauge::new();
    /// Pages requantized by the off-critical-path boundary drain (as
    /// opposed to evict-on-append demotions on the appending thread).
    pub static ASYNC_DEMOTED_PAGES: Counter = Counter::new();
    /// Allocated bytes freed by boundary-drain demotions.
    pub static ASYNC_DEMOTED_BYTES: Counter = Counter::new();
}

/// Hardware-simulator metrics (`tender_sim`).
pub mod sim {
    use super::*;

    /// DRAM bursts that hit an open row.
    pub static DRAM_ROW_HITS: Counter = Counter::new();
    /// DRAM bursts that paid precharge + activate.
    pub static DRAM_ROW_MISSES: Counter = Counter::new();
    /// Bytes moved through the HBM model.
    pub static DRAM_BYTES: Counter = Counter::new();
    /// Bursts delayed by an in-progress refresh.
    pub static DRAM_REFRESH_STALLS: Counter = Counter::new();
    /// Accelerator workload runs.
    pub static ACCEL_RUNS: Counter = Counter::new();
    /// Total modeled cycles across accelerator runs.
    pub static ACCEL_CYCLES: Counter = Counter::new();
    /// Total modeled DRAM traffic across accelerator runs (bytes).
    pub static ACCEL_DRAM_BYTES: Counter = Counter::new();
    /// Multi-Scale Systolic Array tile executions.
    pub static MSA_RUNS: Counter = Counter::new();
    /// Total MSA cycles across tile executions.
    pub static MSA_CYCLES: Counter = Counter::new();
}

/// Fault-injection and degradation metrics (`tender_faults` and its
/// consumers). Injection counters are pure functions of the fault plan's
/// decisions, so they are identical at any thread count.
pub mod faults {
    use super::*;

    /// Calibration blobs bit-flipped by the fault plan.
    pub static INJECTED_BLOB: Counter = Counter::new();
    /// NaNs planted in synthetic weights.
    pub static INJECTED_WEIGHT_NAN: Counter = Counter::new();
    /// NaNs planted in captured calibration activations.
    pub static INJECTED_ACT_NAN: Counter = Counter::new();
    /// DRAM burst reads that suffered an injected bit-error.
    pub static INJECTED_DRAM: Counter = Counter::new();
    /// Pool tasks made to panic by the fault plan.
    pub static INJECTED_POOL: Counter = Counter::new();
    /// Experiment attempts made to panic by the fault plan.
    pub static INJECTED_EXP: Counter = Counter::new();
    /// Scheduler iterations stalled (work dropped for one iteration) by
    /// the fault plan's `sched` site.
    pub static INJECTED_SCHED: Counter = Counter::new();
    /// Matmul sites degraded off the primary scheme (any rung).
    pub static DEGRADED_SITES: Counter = Counter::new();
    /// Sites that settled on the per-tensor INT8 fallback rung.
    pub static FALLBACK_INT8: Counter = Counter::new();
    /// Sites that fell through to the FP16 fallback rung.
    pub static FALLBACK_FP16: Counter = Counter::new();
    /// Forwards rerouted to the FP16 path by the runtime overflow threshold.
    pub static RUNTIME_FALLBACKS: Counter = Counter::new();
    /// Decode-step activations sanitized after an injected NaN channel.
    pub static DECODE_SANITIZED: Counter = Counter::new();
    /// Greedy-argmax rows with no finite logit (e.g. NaN-poisoned weights),
    /// replaced by the deterministic fallback token instead of token 0.
    pub static DECODE_ARGMAX_SANITIZED: Counter = Counter::new();
}

/// Serving-layer metrics (`tender_serve`): admission control, the
/// continuous-batching iteration loop, and per-request outcomes. The
/// counters, max-gauges, and logical-latency percentiles are pure
/// functions of the scheduler's seeded inputs, so they are identical at
/// any thread count; the wall-clock latency/throughput values vary run to
/// run and appear only in the JSON report, never on stdout.
pub mod serve {
    use super::*;

    /// Requests offered to the scheduler by the traffic generator.
    pub static SUBMITTED: Counter = Counter::new();
    /// Requests accepted past admission control.
    pub static ADMITTED: Counter = Counter::new();
    /// Requests rejected because the waiting queue was at capacity.
    pub static REJECTED_QUEUE_FULL: Counter = Counter::new();
    /// Requests rejected because the KV-byte budget could not cover them.
    pub static REJECTED_KV_BUDGET: Counter = Counter::new();
    /// Admitted requests that reached their full decode target (window
    /// truncations included; see `engine::DECODE_TRUNCATED`).
    pub static COMPLETED: Counter = Counter::new();
    /// Admitted requests whose deadline expired before completion.
    pub static EXPIRED: Counter = Counter::new();
    /// Admitted requests that failed in isolation (a `StepError` other
    /// than window exhaustion, or an injected/organic panic).
    pub static FAILED: Counter = Counter::new();
    /// Scheduler iterations executed.
    pub static ITERATIONS: Counter = Counter::new();
    /// Iterations whose work was dropped by an injected `sched` fault.
    pub static STALLED_ITERATIONS: Counter = Counter::new();
    /// Prompt tokens ingested through chunked prefill.
    pub static PREFILL_CHUNK_TOKENS: Counter = Counter::new();
    /// Decode tokens emitted across all requests.
    pub static DECODE_TOKENS: Counter = Counter::new();
    /// Deepest waiting queue observed.
    pub static QUEUE_DEPTH_MAX: MaxGauge = MaxGauge::new();
    /// Most sessions simultaneously active in the batch.
    pub static BATCH_OCCUPANCY_MAX: MaxGauge = MaxGauge::new();
    /// Peak KV bytes reserved under the admission budget.
    pub static KV_RESERVED_PEAK_BYTES: MaxGauge = MaxGauge::new();
    /// p50 per-request latency in scheduler iterations (admission →
    /// terminal; logical time, deterministic).
    pub static LATENCY_ITERS_P50: Gauge = Gauge::new();
    /// p99 per-request latency in scheduler iterations.
    pub static LATENCY_ITERS_P99: Gauge = Gauge::new();
    /// p50 per-request wall-clock latency, ns (JSON report only).
    pub static LATENCY_P50_NS: Gauge = Gauge::new();
    /// p99 per-request wall-clock latency, ns (JSON report only).
    pub static LATENCY_P99_NS: Gauge = Gauge::new();
    /// Decode throughput over the run, tokens/s × 1000 (JSON report only).
    pub static TOKENS_PER_SEC_MILLI: Gauge = Gauge::new();
    /// Wall-clock per admitted request, admission → terminal status.
    pub static REQUEST_LATENCY: Timer = Timer::new();
}

/// Experiment-runner metrics (`tender_bench::runner`).
pub mod runner {
    use super::*;

    /// Experiments executed to completion this process.
    pub static EXPERIMENTS_RUN: Counter = Counter::new();
    /// Experiment attempts that panicked (injected or genuine).
    pub static EXPERIMENTS_PANICKED: Counter = Counter::new();
    /// Retry attempts issued by the bounded-retry policy.
    pub static EXPERIMENTS_RETRIED: Counter = Counter::new();
    /// Experiments abandoned by the wall-clock watchdog.
    pub static EXPERIMENTS_TIMED_OUT: Counter = Counter::new();
    /// Experiments skipped because the resume journal marked them done.
    pub static EXPERIMENTS_SKIPPED: Counter = Counter::new();
}

/// Snapshot of every metric, ready for JSON export.
pub fn report() -> Report {
    report::build()
}

/// Resets every metric to zero (tests and multi-run harnesses).
pub fn reset_all() {
    pool::THREADS.reset();
    pool::PARALLEL_BATCHES.reset();
    pool::PARALLEL_ITEMS.reset();
    pool::INLINE_ITEMS.reset();
    pool::QUEUE_DEPTH_MAX.reset();
    pool::BATCH_LATENCY.reset();
    pool::THREAD_BUSY_NS.reset();
    kernel::IMPLICIT_MATMULS.reset();
    kernel::EXPLICIT_MATMULS.reset();
    kernel::QUANTIZED_VALUES.reset();
    kernel::SATURATED_VALUES.reset();
    kernel::GROUP_QUANTIZED.reset();
    kernel::OVERFLOW_EVENTS.reset();
    kernel::CHUNKS_FAST_PATH.reset();
    kernel::CHUNKS_CHECKED.reset();
    gemm::REFERENCE_GEMMS.reset();
    model::FORWARD_PASSES.reset();
    model::LAYER_FORWARD.reset();
    engine::PREFILLS.reset();
    engine::PREFILL_TOKENS.reset();
    engine::DECODE_STEPS.reset();
    engine::DECODE_MACS.reset();
    engine::PREFILL_TIME.reset();
    engine::DECODE_STEP_TIME.reset();
    engine::KV_CACHE_BYTES.reset();
    engine::KV_CACHE_ALLOCATED_BYTES.reset();
    engine::KV_CACHE_PEAK_BYTES.reset();
    engine::KV_REQUANTS.reset();
    engine::KV_INT_DOTS.reset();
    engine::KV_INT_DOT_MACS.reset();
    engine::DECODE_TRUNCATED.reset();
    kv_arena::ARENAS.reset();
    kv_arena::PAGE_ALLOCS.reset();
    kv_arena::PAGE_FREES.reset();
    kv_arena::PAGES_F32.reset();
    kv_arena::PAGES_INT8.reset();
    kv_arena::PAGES_INT4.reset();
    kv_arena::RESIDENT_F32.reset();
    kv_arena::RESIDENT_INT8.reset();
    kv_arena::RESIDENT_INT4.reset();
    kv_arena::ALLOCATED_F32.reset();
    kv_arena::ALLOCATED_INT8.reset();
    kv_arena::ALLOCATED_INT4.reset();
    kv_arena::DEMOTED_INT8.reset();
    kv_arena::DEMOTED_INT4.reset();
    kv_arena::COW_COPIES.reset();
    kv_arena::EVICT_FAILURES.reset();
    kv_arena::ALLOC_RETRIES.reset();
    kv_arena::SHARD_CONTENTION.reset();
    kv_arena::DEMOTION_QUEUE_DEPTH.reset();
    kv_arena::DEMOTION_QUEUE_PEAK.reset();
    kv_arena::ASYNC_DEMOTED_PAGES.reset();
    kv_arena::ASYNC_DEMOTED_BYTES.reset();
    sim::DRAM_ROW_HITS.reset();
    sim::DRAM_ROW_MISSES.reset();
    sim::DRAM_BYTES.reset();
    sim::DRAM_REFRESH_STALLS.reset();
    sim::ACCEL_RUNS.reset();
    sim::ACCEL_CYCLES.reset();
    sim::ACCEL_DRAM_BYTES.reset();
    sim::MSA_RUNS.reset();
    sim::MSA_CYCLES.reset();
    faults::INJECTED_BLOB.reset();
    faults::INJECTED_WEIGHT_NAN.reset();
    faults::INJECTED_ACT_NAN.reset();
    faults::INJECTED_DRAM.reset();
    faults::INJECTED_POOL.reset();
    faults::INJECTED_EXP.reset();
    faults::INJECTED_SCHED.reset();
    faults::DEGRADED_SITES.reset();
    faults::FALLBACK_INT8.reset();
    faults::FALLBACK_FP16.reset();
    faults::RUNTIME_FALLBACKS.reset();
    faults::DECODE_SANITIZED.reset();
    faults::DECODE_ARGMAX_SANITIZED.reset();
    serve::SUBMITTED.reset();
    serve::ADMITTED.reset();
    serve::REJECTED_QUEUE_FULL.reset();
    serve::REJECTED_KV_BUDGET.reset();
    serve::COMPLETED.reset();
    serve::EXPIRED.reset();
    serve::FAILED.reset();
    serve::ITERATIONS.reset();
    serve::STALLED_ITERATIONS.reset();
    serve::PREFILL_CHUNK_TOKENS.reset();
    serve::DECODE_TOKENS.reset();
    serve::QUEUE_DEPTH_MAX.reset();
    serve::BATCH_OCCUPANCY_MAX.reset();
    serve::KV_RESERVED_PEAK_BYTES.reset();
    serve::LATENCY_ITERS_P50.reset();
    serve::LATENCY_ITERS_P99.reset();
    serve::LATENCY_P50_NS.reset();
    serve::LATENCY_P99_NS.reset();
    serve::TOKENS_PER_SEC_MILLI.reset();
    serve::REQUEST_LATENCY.reset();
    runner::EXPERIMENTS_RUN.reset();
    runner::EXPERIMENTS_PANICKED.reset();
    runner::EXPERIMENTS_RETRIED.reset();
    runner::EXPERIMENTS_TIMED_OUT.reset();
    runner::EXPERIMENTS_SKIPPED.reset();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_add_and_reset() {
        let c = Counter::new();
        c.add(0); // free path
        c.add(5);
        c.incr();
        assert_eq!(c.get(), 6);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn max_gauge_keeps_maximum() {
        let g = MaxGauge::new();
        g.observe(3);
        g.observe(1);
        g.observe(7);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn timer_records_spans() {
        let t = Timer::new();
        t.record_ns(10);
        t.record_ns(30);
        assert_eq!(t.count(), 2);
        assert_eq!(t.total_ns(), 40);
        assert_eq!(t.max_ns(), 30);
        assert_eq!(t.mean_ns(), 20);
        {
            let _s = t.span();
        }
        assert_eq!(t.count(), 3);
    }

    #[test]
    fn banks_clamp_out_of_range_indices() {
        let b: CounterBank<4> = CounterBank::new();
        b.add(2, 5);
        b.add(99, 7); // folds into slot 3
        assert_eq!(b.get(2), 5);
        assert_eq!(b.get(3), 7);
        let t: TimerBank<4> = TimerBank::new();
        t.record_ns(99, 1);
        assert_eq!(t.slot(3).count(), 1);
    }

    #[test]
    fn counters_are_exact_under_concurrency() {
        static C: Counter = Counter::new();
        C.reset();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..10_000 {
                        C.incr();
                    }
                });
            }
        });
        assert_eq!(C.get(), 40_000);
    }
}
