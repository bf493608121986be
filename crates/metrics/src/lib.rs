//! # tender-metrics
//!
//! A std-only observability layer for the whole workspace: atomic counters,
//! gauges, and span timers with **zero hot-path allocation**, plus a
//! structured JSON report (`tender-cli --metrics-json <path>`,
//! `all_experiments --metrics-json <path>`).
//!
//! # Design
//!
//! Every metric is a `static` with interior atomicity, declared exactly once:
//! as one line of the table at the bottom of this file, under the section
//! named for the subsystem that records it (each section is one of the
//! modules listed below, e.g. [`pool`] or [`kernel`]). The table expands to
//! the `pub static`, to its field in [`report`] (key = the lower-cased name,
//! in table order) and to its line in [`reset_all`], so a metric cannot exist
//! without being exported and reset.
//! Instrumented crates update the statics with relaxed atomic adds — one
//! instruction on the hot path, no locks, no allocation, no registration
//! handshake.
//!
//! The metric's *type* says what it means and what a reset does to it:
//! [`Counter`], [`MaxGauge`], [`Timer`] and the banks accumulate since the
//! last reset; a [`Gauge`] holds the last result a run published; a
//! [`Level`] mirrors live state (threads spawned, bytes held by live caches)
//! and is therefore left alone by [`reset_all`].
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
#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

mod report;

pub use report::{Report, Section, Value};

/// What the table needs from a metric *type*: the zero its `static` starts
/// from, the [`Value`] [`report`] exports, and what [`reset_all`] does.
trait Metric {
    const ZERO: Self;
    fn value(&self) -> Value;
    fn reset(&self);
}

/// The metric types that are one resettable `u64`.
macro_rules! scalar_metric {
    ($($ty:ty),+) => {$(
        impl Metric for $ty {
            const ZERO: Self = Self::new();
            fn value(&self) -> Value {
                Value::U64(self.get())
            }
            fn reset(&self) {
                <$ty>::reset(self);
            }
        }
    )+};
}
scalar_metric!(Counter, Gauge, MaxGauge);

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

/// A last-written-value gauge: a result one run publishes with
/// [`set`](Gauge::set) (e.g. serve's latency percentiles), zeroed by
/// [`reset_all`] before the next run. State that outlives a run — thread
/// counts, bytes held by live caches — is a [`Level`] instead.
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

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Resets to zero.
    pub fn reset(&self) {
        self.set(0);
    }
}

/// A gauge that mirrors live state: either published once with
/// [`set`](Level::set) (the pool's thread count) or summed by
/// [`add`](Level::add)/[`sub`](Level::sub) deltas from every owner (bytes and
/// pages held by live KV caches).
///
/// It has no `reset`, and [`reset_all`] leaves it alone: zeroing it would
/// make the report under-count whatever is still alive, until the process
/// exits. An array `[Level; N]` is a bank of levels (one per KV page tier)
/// and is exported as an array of all `N` values.
#[derive(Debug, Default)]
pub struct Level(AtomicU64);

impl Level {
    /// A zeroed level, usable in `static` position.
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Sets the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n` to the value. `n == 0` is free (no atomic traffic).
    #[inline]
    pub fn add(&self, n: u64) {
        if n != 0 {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Subtracts `n` from the value, saturating at zero.
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
}

impl Metric for Level {
    const ZERO: Self = Self::new();
    fn value(&self) -> Value {
        Value::U64(self.get())
    }
    fn reset(&self) {}
}

impl<const N: usize> Metric for [Level; N] {
    const ZERO: Self = [Level::ZERO; N];
    fn value(&self) -> Value {
        Value::Array(self.iter().map(Level::get).collect())
    }
    fn reset(&self) {}
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

impl Metric for Timer {
    const ZERO: Self = Self::new();
    fn value(&self) -> Value {
        Value::Object(vec![
            ("count".into(), Value::U64(self.count())),
            ("total_ns".into(), Value::U64(self.total_ns())),
            ("mean_ns".into(), Value::U64(self.mean_ns())),
            ("max_ns".into(), Value::U64(self.max_ns())),
        ])
    }
    fn reset(&self) {
        Timer::reset(self);
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

    /// All slots, in index order.
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

/// Exported as an object holding one `layer_<i>` timer per slot that ran.
impl<const N: usize> Metric for TimerBank<N> {
    const ZERO: Self = Self::new();
    fn value(&self) -> Value {
        let ran = self.0.iter().enumerate().filter(|(_, t)| t.count() > 0);
        Value::Object(
            ran.map(|(i, t)| (format!("layer_{i}"), t.value()))
                .collect(),
        )
    }
    fn reset(&self) {
        TimerBank::reset(self);
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

    /// All slots, in index order.
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

/// Exported as an array with trailing zero slots trimmed (at least one
/// entry is kept).
impl<const N: usize> Metric for CounterBank<N> {
    const ZERO: Self = Self::new();
    fn value(&self) -> Value {
        let mut vals: Vec<u64> = self.0.iter().map(Counter::get).collect();
        let used = vals.iter().rposition(|&v| v != 0).map_or(1, |i| i + 1);
        vals.truncate(used);
        Value::Array(vals)
    }
    fn reset(&self) {
        CounterBank::reset(self);
    }
}

/// Per-thread slots tracked for the worker pool (slot 0 is the injecting
/// caller; workers occupy 1..). Larger pools fold into the last slot.
pub const MAX_POOL_THREADS: usize = 64;

/// Per-layer timing slots; deeper models fold into the last slot.
pub const MAX_LAYERS: usize = 64;

/// Per-group counter slots; higher group indices fold into the last slot.
pub const MAX_GROUPS: usize = 16;

/// The only metric statics outside the table: nothing ticks them, and they
/// are neither reported nor reset. They keep the frozen `benchmark/` crate
/// compiling and go when it thaws (ROADMAP item 5b).
mod frozen {
    use super::Counter;

    /// Never incremented; read only by the frozen `benchmark/` crate.
    pub static BLOCKED_GEMMS: Counter = Counter::new();
    /// Never incremented; read only by the frozen `benchmark/` crate.
    pub static TILES_FAST_PATH: Counter = Counter::new();
    /// Never incremented; read only by the frozen `benchmark/` crate.
    pub static TILES_CHECKED: Counter = Counter::new();
}

/// Expands the one table below into everything that has to agree about it:
/// per section a `pub mod` of `pub static`s, plus [`report`] and
/// [`reset_all`] walking the same names in the same order. `section + module`
/// additionally re-exports `module`'s items from the section's module
/// without registering them.
macro_rules! metrics_table {
    ($(
        $(#[$section_doc:meta])+
        $section:ident $(+ $unlisted:ident)? {
            $( $(#[$doc:meta])+ $name:ident: $ty:ty, )+
        }
    )+) => {
        $(
            $(#[$section_doc])+
            pub mod $section {
                use super::*;
                $( pub use super::$unlisted::*; )?
                $( $(#[$doc])+ pub static $name: $ty = <$ty as Metric>::ZERO; )+
            }
        )+

        /// Snapshot of every metric, ready for JSON export: one [`Section`]
        /// per table section, one field per metric, in table order.
        pub fn report() -> Report {
            Report {
                sections: vec![$( Section {
                    name: stringify!($section),
                    fields: vec![$( (
                        stringify!($name).to_ascii_lowercase(),
                        $section::$name.value(),
                    ) ),+],
                } ),+],
            }
        }

        /// Resets every metric that accumulates (tests and multi-run
        /// harnesses). [`Level`]s mirror live state and keep their value.
        pub fn reset_all() {
            $($( Metric::reset(&$section::$name); )+)+
        }
    };
}

metrics_table! {
    /// Worker-pool metrics (`tender_tensor::pool`).
    pool {
        /// Total parallelism of the global pool (workers + caller).
        THREADS: Level,
        /// Batches dispatched to the parallel path.
        PARALLEL_BATCHES: Counter,
        /// Work items executed through the parallel path.
        PARALLEL_ITEMS: Counter,
        /// Work items executed inline (serial path, nested calls, 1-thread pool).
        INLINE_ITEMS: Counter,
        /// Deepest injection queue observed (batches waiting at enqueue time).
        QUEUE_DEPTH_MAX: MaxGauge,
        /// Injector-side latency of one parallel batch: enqueue → all items done.
        BATCH_LATENCY: Timer,
        /// Busy time per thread (slot 0 = the injecting caller, 1.. = workers).
        THREAD_BUSY_NS: CounterBank<MAX_POOL_THREADS>,
    }

    /// Tender kernel metrics (`tender_quant::tender`).
    kernel {
        /// Implicit-requantization matmul invocations.
        IMPLICIT_MATMULS: Counter,
        /// Explicit-requantization matmul invocations.
        EXPLICIT_MATMULS: Counter,
        /// Activation values quantized by the decomposed kernels.
        QUANTIZED_VALUES: Counter,
        /// Quantized values that clipped at ±qmax (saturation events).
        SATURATED_VALUES: Counter,
        /// Values quantized per channel group (group 0 = largest scale).
        GROUP_QUANTIZED: CounterBank<MAX_GROUPS>,
        /// Accumulator excursions beyond the hardware's 32-bit range, observed
        /// after **every** accumulation step (MAC or α-shift) — the
        /// hardware-faithful count (see `DESIGN.md`).
        OVERFLOW_EVENTS: Counter,
        /// Chunks proven overflow-free a priori (per-step checks skipped).
        CHUNKS_FAST_PATH: Counter,
        /// Chunks run with per-step overflow checks.
        CHUNKS_CHECKED: Counter,
    }

    /// GEMM metrics (`tender_tensor::gemm`).
    gemm + frozen {
        /// `Matrix`/`IMatrix` products dispatched (the kernels are the reference
        /// loops, hence the name the benchmark reads).
        REFERENCE_GEMMS: Counter,
    }

    /// Model forward-pass metrics (`tender_model`).
    model {
        /// Complete forward passes (reference + quantized).
        FORWARD_PASSES: Counter,
        /// Wall-clock per transformer layer, by layer index.
        LAYER_FORWARD: TimerBank<MAX_LAYERS>,
    }

    /// Decode-engine metrics (`tender_model::engine`): prefill vs decode
    /// spans, token counters, KV-cache footprint.
    engine {
        /// Prefill calls (one per session prompt).
        PREFILLS: Counter,
        /// Tokens ingested by prefill passes.
        PREFILL_TOKENS: Counter,
        /// Tokens ingested against a non-empty cache: one per `step`, one per
        /// row of a multi-token `extend`.
        DECODE_STEPS: Counter,
        /// Multiply-accumulates executed for those tokens (per-layer GEMMs,
        /// attention against the cache included; LM head excluded).
        DECODE_MACS: Counter,
        /// Wall-clock per prefill pass.
        PREFILL_TIME: Timer,
        /// Wall-clock per cached forward: one span per `step` / `extend` /
        /// `step_stacked` call, however many tokens or sessions it carries.
        DECODE_STEP_TIME: Timer,
        /// `step_stacked` calls (the batch iteration and the serving loop step
        /// their sessions through it; a solo `step` / `extend` does not count).
        STACKED_STEPS: Counter,
        /// Decode rows those calls carried, one per session that passed its
        /// pre-checks: `STACKED_ROWS / STACKED_STEPS` is the mean stack width,
        /// i.e. how many rows shared each pass over the weights.
        STACKED_ROWS: Counter,
        /// Resident KV-cache bytes summed across live sessions (each session
        /// adds/subtracts its delta, so the gauge is the aggregate, not the
        /// last writer's value).
        KV_CACHE_BYTES: Level,
        /// Allocated (preallocated-capacity) KV-cache bytes summed across live
        /// sessions.
        KV_CACHE_ALLOCATED_BYTES: Level,
        /// Largest aggregate resident KV-cache footprint observed, bytes.
        KV_CACHE_PEAK_BYTES: MaxGauge,
        /// Runtime KV-cache requantization events: appends whose row maximum
        /// exceeded the head's running `TMax`, forcing stored rows through the
        /// group-index / 1-bit-shift requantization path.
        KV_REQUANTS: Counter,
        /// Integer-domain KV dot products: attention score/value rows computed
        /// directly on packed cache codes (no dequantize-on-read).
        KV_INT_DOTS: Counter,
        /// Multiply-accumulates executed by integer-domain KV dots (a subset
        /// of `DECODE_MACS`, cross-checked against the simulator's
        /// `kv_int_dot_macs` model).
        KV_INT_DOT_MACS: Counter,
        /// f32 pages the in-place read of an f32-mode cache dotted where they
        /// lie (no copy).
        KV_F32_PAGE_READS: Counter,
        /// Demoted (int8 / int4) pages that read dequantized into its
        /// page-sized scratch — with `KV_F32_PAGE_READS`, how much of a run's
        /// f32-mode attention re-dequantized demoted pages.
        KV_DEQUANT_PAGE_READS: Counter,
        /// Greedy rollouts truncated at a `StepError` (typically the context
        /// window) instead of completing their requested step budget.
        DECODE_TRUNCATED: Counter,
    }

    /// Paged KV-arena metrics (`tender_tensor::arena`): per-tier page and
    /// byte gauges plus demotion / copy-on-write / eviction counters. Shared
    /// pages are counted exactly once regardless of how many forked sessions
    /// retain them.
    kv_arena {
        /// Live arenas (every decode session owns or shares one).
        ARENAS: Level,
        /// Pages handed out over the process lifetime.
        PAGE_ALLOCS: Counter,
        /// Pages freed when their last owner released them.
        PAGE_FREES: Counter,
        /// Live pages per tier, in `PageTier::index` order: exact f32, int8,
        /// int4 (the demotion floor).
        PAGES: [Level; 3],
        /// Resident bytes held by the pages of each tier.
        RESIDENT_BYTES: [Level; 3],
        /// Allocated (full-page-granularity) bytes held by the pages of each
        /// tier.
        ALLOCATED_BYTES: [Level; 3],
        /// Cold pages requantized in place to int8 under memory pressure.
        DEMOTED_INT8: Counter,
        /// Cold pages requantized in place to int4 (the last rung before a
        /// typed `EvictError`).
        DEMOTED_INT4: Counter,
        /// Copy-on-write page copies triggered by divergent appends onto
        /// shared prefix pages.
        COW_COPIES: Counter,
        /// *Terminal* allocation refusals at the arena's hard byte cap: the
        /// caller's demotion ladder reached its floor and the append failed.
        EVICT_FAILURES: Counter,
        /// Interim cap refusals answered by demoting cold pages and retrying
        /// — requantization work, not failures.
        ALLOC_RETRIES: Counter,
        /// Page lock acquisitions that found the lock held the other way (a
        /// `try_read`/`try_write` that would have blocked). The name predates
        /// per-page locks — the arena used to lock shards of a page table —
        /// and is kept because `benchmark/` reads it.
        SHARD_CONTENTION: Counter,
        /// Demotion candidates currently queued for the boundary drain.
        DEMOTION_QUEUE_DEPTH: Level,
        /// Deepest the demotion queue has been.
        DEMOTION_QUEUE_PEAK: MaxGauge,
        /// Pages requantized by the off-critical-path boundary drain (as
        /// opposed to demote-and-retry at the hard cap, on the appending
        /// thread).
        ASYNC_DEMOTED_PAGES: Counter,
        /// Allocated bytes freed by boundary-drain demotions.
        ASYNC_DEMOTED_BYTES: Counter,
    }

    /// Hardware-simulator metrics (`tender_sim`).
    sim {
        /// DRAM bursts that hit an open row.
        DRAM_ROW_HITS: Counter,
        /// DRAM bursts that paid precharge + activate.
        DRAM_ROW_MISSES: Counter,
        /// Bytes moved through the HBM model.
        DRAM_BYTES: Counter,
        /// Bursts delayed by an in-progress refresh.
        DRAM_REFRESH_STALLS: Counter,
        /// Accelerator workload runs.
        ACCEL_RUNS: Counter,
        /// Total modeled cycles across accelerator runs.
        ACCEL_CYCLES: Counter,
        /// Total modeled DRAM traffic across accelerator runs (bytes).
        ACCEL_DRAM_BYTES: Counter,
        /// Multi-Scale Systolic Array tile executions.
        MSA_RUNS: Counter,
        /// Total MSA cycles across tile executions.
        MSA_CYCLES: Counter,
    }

    /// Fault-injection and degradation metrics (`tender_faults` and its
    /// consumers). Injection counters are pure functions of the fault plan's
    /// decisions, so they are identical at any thread count.
    faults {
        /// Calibration blobs bit-flipped by the fault plan.
        INJECTED_BLOB: Counter,
        /// NaNs planted in synthetic weights.
        INJECTED_WEIGHT_NAN: Counter,
        /// NaNs planted in captured calibration activations.
        INJECTED_ACT_NAN: Counter,
        /// DRAM burst reads that suffered an injected bit-error.
        INJECTED_DRAM: Counter,
        /// Pool tasks made to panic by the fault plan.
        INJECTED_POOL: Counter,
        /// Experiment attempts made to panic by the fault plan.
        INJECTED_EXP: Counter,
        /// Scheduler iterations stalled (work dropped for one iteration) by
        /// the fault plan's `sched` site.
        INJECTED_SCHED: Counter,
        /// Matmul sites degraded off the primary scheme (any rung).
        DEGRADED_SITES: Counter,
        /// Sites that settled on the per-tensor INT8 fallback rung.
        FALLBACK_INT8: Counter,
        /// Sites that fell through to the FP16 fallback rung.
        FALLBACK_FP16: Counter,
        /// Decode-step activations sanitized after an injected NaN channel.
        DECODE_SANITIZED: Counter,
        /// Greedy-argmax rows with no finite logit (e.g. NaN-poisoned weights),
        /// replaced by the deterministic fallback token instead of token 0.
        DECODE_ARGMAX_SANITIZED: Counter,
    }

    /// Serving-layer metrics (`tender_serve`): admission control, the
    /// continuous-batching iteration loop, and per-request outcomes. The
    /// counters, max-gauges, and logical-latency percentiles are pure
    /// functions of the scheduler's seeded inputs, so they are identical at
    /// any thread count; the wall-clock latency/throughput values vary run to
    /// run and appear only in the JSON report, never on stdout.
    serve {
        /// Requests offered to the scheduler by the traffic generator.
        SUBMITTED: Counter,
        /// Requests accepted past admission control.
        ADMITTED: Counter,
        /// Requests rejected because the waiting queue was at capacity.
        REJECTED_QUEUE_FULL: Counter,
        /// Requests rejected because the KV-byte budget could not cover them.
        REJECTED_KV_BUDGET: Counter,
        /// Admitted requests that reached their full decode target (window
        /// truncations included; see `engine::DECODE_TRUNCATED`).
        COMPLETED: Counter,
        /// Admitted requests whose deadline expired before completion.
        EXPIRED: Counter,
        /// Admitted requests that failed in isolation (a `StepError` other
        /// than window exhaustion, or an injected/organic panic).
        FAILED: Counter,
        /// Scheduler iterations executed.
        ITERATIONS: Counter,
        /// Iterations whose work was dropped by an injected `sched` fault.
        STALLED_ITERATIONS: Counter,
        /// Prompt tokens ingested through chunked prefill.
        PREFILL_CHUNK_TOKENS: Counter,
        /// Decode tokens emitted across all requests.
        DECODE_TOKENS: Counter,
        /// Deepest waiting queue observed.
        QUEUE_DEPTH_MAX: MaxGauge,
        /// Most sessions simultaneously active in the batch.
        BATCH_OCCUPANCY_MAX: MaxGauge,
        /// Peak KV bytes reserved under the admission budget.
        KV_RESERVED_PEAK_BYTES: MaxGauge,
        /// p50 per-request latency in scheduler iterations (admission →
        /// terminal; logical time, deterministic).
        LATENCY_ITERS_P50: Gauge,
        /// p99 per-request latency in scheduler iterations.
        LATENCY_ITERS_P99: Gauge,
        /// p50 per-request wall-clock latency, ns (JSON report only).
        LATENCY_P50_NS: Gauge,
        /// p99 per-request wall-clock latency, ns (JSON report only).
        LATENCY_P99_NS: Gauge,
        /// Decode throughput over the run, tokens/s × 1000 (JSON report only).
        TOKENS_PER_SEC_MILLI: Gauge,
        /// Wall-clock per admitted request, admission → terminal status.
        REQUEST_LATENCY: Timer,
    }

    /// Experiment-runner metrics (`tender_bench::runner`).
    runner {
        /// Experiments executed to completion this process.
        EXPERIMENTS_RUN: Counter,
        /// Experiment attempts that panicked (injected or genuine).
        EXPERIMENTS_PANICKED: Counter,
        /// Retry attempts issued by the bounded-retry policy.
        EXPERIMENTS_RETRIED: Counter,
        /// Experiments abandoned by the wall-clock watchdog.
        EXPERIMENTS_TIMED_OUT: Counter,
        /// Experiments skipped because the resume journal marked them done.
        EXPERIMENTS_SKIPPED: Counter,
    }
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
    fn level_sums_deltas_and_ignores_reset() {
        let l = Level::new();
        l.add(5);
        l.sub(2);
        Metric::reset(&l);
        assert_eq!(l.get(), 3);
        l.sub(9); // saturates
        assert_eq!(l.get(), 0);
        let bank = <[Level; 3]>::ZERO;
        bank[1].set(4);
        Metric::reset(&bank);
        assert_eq!(bank.value(), Value::Array(vec![0, 4, 0]));
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
    fn counter_bank_value_trims_trailing_zeros() {
        let bank: CounterBank<8> = CounterBank::new();
        assert_eq!(bank.value(), Value::Array(vec![0]));
        bank.add(0, 1);
        bank.add(2, 3);
        assert_eq!(bank.value(), Value::Array(vec![1, 0, 3]));
    }

    #[test]
    fn timer_bank_value_lists_only_slots_that_ran() {
        let bank: TimerBank<4> = TimerBank::new();
        assert_eq!(bank.value(), Value::Object(vec![]));
        bank.record_ns(2, 8);
        let Value::Object(fields) = bank.value() else {
            panic!("timer banks export an object");
        };
        assert_eq!(fields.len(), 1);
        assert_eq!(fields[0].0, "layer_2");
        assert_eq!(fields[0].1, bank.slot(2).value());
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
