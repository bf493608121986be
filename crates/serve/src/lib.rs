//! Continuous-batching serving layer over the decode engine.
//!
//! The [`Scheduler`] owns a request queue with admission control and runs
//! an iteration loop that mixes **chunked prefill** with in-flight decode
//! steps — the continuous-batching shape real serving systems use. A
//! prompt chunk is one multi-row forward: `try_prefill` on an empty
//! session, `extend` on one that already holds positions (a later chunk,
//! or any chunk of a shared-prefix fork).
//! Sessions join the batch the moment a slot frees up and leave the moment
//! they finish; the batch never drains to make room.
//!
//! **Admission control.** Two bounds, both enforced *before* a request
//! allocates anything: a queue-depth cap and a per-mode KV-byte budget.
//! Reservations are priced at **page granularity and grow per step**: a
//! request is admitted against its prompt pages plus one decode page
//! ([`kv_admit_bytes`]), and each decode step that opens a fresh page
//! grows the reservation by one page ([`kv_page_bytes`]) — not the
//! worst-case footprint of prompt + decode target. A request that would
//! exceed either bound at admission is rejected with a typed
//! [`AdmissionError`]; a request whose *growth* exceeds the budget
//! mid-decode completes as `Done { truncated: true }` with the tokens it
//! has. Pages demoted down the arena's quantization ladder shrink the
//! session's measured allocation, and the freed bytes are returned to the
//! budget at the session's next growth check.
//!
//! **Prefix sharing.** With `shared_prefix > 0` the scheduler prefills a
//! seeded system prompt once into a template session on the run's shared
//! [`KvArena`], then starts every request as a copy-on-write fork of the
//! template: the prefix pages are physically resident once, whatever the
//! batch size.
//!
//! **Deadlines.** Every admitted request carries a deadline in scheduler
//! iterations (logical time). Expiry is checked at the top of every
//! iteration — waiting or active, a request past its deadline completes
//! with [`TerminalStatus::DeadlineExceeded`] while the rest of the batch
//! keeps decoding.
//!
//! **One decode step per iteration.** The work phase is two passes. The
//! first walks the slots in order and settles whatever can be decided
//! before a decode step — page growth, a prompt chunk, emitting the pending
//! token, completing at the target or at the context window. The second
//! advances every slot that still owes a step with one
//! [`step_stacked`]: their decode rows
//! share one product per weight site, so an iteration streams the model's
//! weights once, not once per slot. A stacked row is bit-identical to a solo
//! step, so the transcript cannot tell.
//!
//! **Failure isolation.** Everything in the first pass runs per request
//! under `catch_unwind`: a typed refusal, an injected `pool` task fault (the
//! scheduler treats each per-session work item as a pool task and consults
//! the same `pool` fault site, so chaos plans bite even when the model is
//! too small for the inner GEMMs to dispatch pool items), or a panic inside
//! a prompt chunk retires *that* request as [`TerminalStatus::Failed`] —
//! never the batch. In the shared step, typed errors stay per request (a
//! session refused at the arena's floor fails alone); an *unwind* out of it
//! retires every request that was stacked, since all their caches were
//! mid-append. A `SequenceFull` mid-decode is not a failure: the rollout
//! truncates at the window (counted in `engine::decode_truncated`) and the
//! request completes as `Done`.
//!
//! **Determinism.** Traffic (arrivals, prompts, decode targets) comes from
//! a [`DetRng`] seeded by the config; scheduling decisions use logical
//! iteration time only; fault decisions are content-keyed. The transcript
//! is therefore byte-identical at any thread count for a fixed config and
//! fault seed. Wall-clock values (latency percentiles in ns, tokens/s) are
//! published to the `metrics::serve` bank for the JSON report and never
//! appear in the transcript.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::VecDeque;
use std::fmt;
use std::mem;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use tender_faults as faults;
use tender_metrics::engine as engine_metrics;
use tender_metrics::serve as metrics;
use tender_model::engine::{
    drain_demotions, step_stacked, DecodeSession, KvCacheMode, ModelRef, StepError,
};
use tender_model::shape::ModelShape;
use tender_tensor::arena::DEFAULT_PAGE_ROWS;
use tender_tensor::rng::DetRng;
use tender_tensor::{ArenaConfig, KvArena};

/// Everything the scheduler needs to generate and serve one synthetic run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Total synthetic requests the traffic generator submits.
    pub requests: usize,
    /// Seed for the arrival process, prompts, and decode targets.
    pub arrival_seed: u64,
    /// Per-request deadline in scheduler iterations, measured from
    /// admission. `0` expires everything instantly.
    pub deadline_steps: u64,
    /// Admission bound: maximum requests waiting for a batch slot.
    pub queue_cap: usize,
    /// Admission bound: total KV bytes reservable across waiting + active
    /// requests. Reservations are page-granular: a request reserves its
    /// prompt pages plus one decode page at admission
    /// ([`kv_admit_bytes`]) and one more page per decode step that opens
    /// one ([`kv_page_bytes`]).
    pub kv_budget_bytes: u64,
    /// Maximum sessions decoding concurrently (batch slots).
    pub max_batch: usize,
    /// Prompt tokens ingested per request per iteration during prefill.
    pub prefill_chunk: usize,
    /// KV-cache storage mode for every session.
    pub kv_mode: KvCacheMode,
    /// Inclusive prompt-length range for synthetic requests.
    pub prompt_len: (usize, usize),
    /// Inclusive decode-target range for synthetic requests.
    pub decode_len: (usize, usize),
    /// Maximum iterations between consecutive arrivals.
    pub max_arrival_gap: u64,
    /// Rows per KV arena page — the admission pricing unit.
    pub page_rows: usize,
    /// Tokens of seeded system prompt prefilled once and shared
    /// copy-on-write by every request's session (`0` disables sharing).
    pub shared_prefix: usize,
    /// Byte cap on the run's shared KV arena (`u64::MAX` = unbounded).
    /// Distinct from `kv_budget_bytes`: the budget is the admission
    /// bookkeeping bound, the cap is the arena's hard allocation wall
    /// behind the demotion ladder.
    pub kv_arena_bytes: u64,
    /// Demotion watermark on the shared arena, as a fraction of
    /// `kv_arena_bytes` (`1.0` = demote only at the hard cap). Cold
    /// sealed pages above the mark are requantized by the boundary
    /// drain, off the per-step critical path. Any value runs: at or below
    /// zero demotes whenever a page is sealed, above one (or NaN) only at
    /// the hard cap.
    pub kv_watermark: f64,
}

impl ServeConfig {
    /// A config with the serving defaults used by the CLI and the chaos
    /// experiment: small batch, chunked prefill, effectively-unbounded KV
    /// budget (callers set a real one to exercise admission).
    pub fn new(requests: usize, arrival_seed: u64) -> Self {
        Self {
            requests,
            arrival_seed,
            deadline_steps: 64,
            queue_cap: 8,
            kv_budget_bytes: u64::MAX,
            max_batch: 4,
            prefill_chunk: 4,
            kv_mode: KvCacheMode::F32,
            prompt_len: (4, 12),
            decode_len: (4, 16),
            max_arrival_gap: 2,
            page_rows: DEFAULT_PAGE_ROWS,
            shared_prefix: 0,
            kv_arena_bytes: u64::MAX,
            kv_watermark: 1.0,
        }
    }
}

/// One synthetic request produced by [`synthetic_traffic`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Stable identity (submission order).
    pub id: usize,
    /// Iteration at which the request reaches the scheduler.
    pub arrival: u64,
    /// Prompt token ids (all within the model's vocab).
    pub prompt: Vec<usize>,
    /// Decode tokens requested. May exceed the remaining context window —
    /// such rollouts truncate at the window and still complete.
    pub decode_target: usize,
}

/// Why admission control refused a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionError {
    /// The waiting queue is at its configured depth cap.
    QueueFull {
        /// The configured cap.
        cap: usize,
    },
    /// Admitting the request would exceed the KV-byte budget.
    KvBudgetExceeded {
        /// Bytes the request would reserve at admission.
        needed: u64,
        /// Bytes still unreserved under the budget.
        available: u64,
        /// The configured budget.
        budget: u64,
    },
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::QueueFull { cap } => write!(f, "queue full (cap {cap})"),
            Self::KvBudgetExceeded {
                needed,
                available,
                budget,
            } => write!(
                f,
                "kv budget (need {needed}, available {available}, budget {budget})"
            ),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// How a request ended. Every submitted request reaches exactly one of
/// these — the scheduler's liveness contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TerminalStatus {
    /// The request decoded its target (or as much as the context window
    /// allowed — `truncated` marks window-capped rollouts).
    Done {
        /// Decode tokens emitted.
        tokens: usize,
        /// True when the rollout hit `SequenceFull` before its target.
        truncated: bool,
    },
    /// Admission control refused the request; it never held a session.
    Rejected(AdmissionError),
    /// The per-request deadline passed before completion.
    DeadlineExceeded {
        /// Decode tokens emitted before expiry.
        decoded: usize,
    },
    /// The request's session failed in isolation (a `StepError` other than
    /// window exhaustion, or a panic caught at the session boundary).
    Failed {
        /// Deterministic description of the failure.
        reason: String,
    },
}

/// One request's final record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestOutcome {
    /// The request's id.
    pub id: usize,
    /// How it ended.
    pub status: TerminalStatus,
    /// Iteration of admission (`None` for rejected requests).
    pub admitted_at: Option<u64>,
    /// Iteration at which the terminal status was assigned.
    pub finished_at: u64,
}

/// Aggregate result of one scheduler run. All fields are pure functions of
/// the config and fault seed (wall-clock values go to the metrics bank
/// only), so two runs at any thread count produce identical reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeReport {
    /// The deterministic, line-oriented event log of the run.
    pub transcript: String,
    /// Per-request outcomes in id order.
    pub outcomes: Vec<RequestOutcome>,
    /// Scheduler iterations executed.
    pub iterations: u64,
    /// Iterations whose work was dropped by an injected `sched` fault.
    pub stalled_iterations: u64,
    /// Requests past admission control.
    pub admitted: u64,
    /// Requests refused for queue depth.
    pub rejected_queue: u64,
    /// Requests refused for KV budget.
    pub rejected_kv: u64,
    /// Admitted requests that completed (`Done`, truncations included).
    pub completed: u64,
    /// Completions that truncated at the context window.
    pub truncated: u64,
    /// Admitted requests that hit their deadline.
    pub expired: u64,
    /// Admitted requests that failed in isolation.
    pub failed: u64,
    /// Requests left unresolved by the safety cap (0 on any healthy run).
    pub unresolved: u64,
    /// Decode tokens emitted across all requests.
    pub decode_tokens: u64,
    /// Deepest waiting queue observed.
    pub queue_depth_max: u64,
    /// Most sessions simultaneously active.
    pub batch_occupancy_max: u64,
    /// Peak KV bytes reserved under the admission budget.
    pub kv_reserved_peak: u64,
    /// Pages requantized down the ladder by the boundary drain.
    pub kv_demoted_pages: u64,
    /// Arena bytes freed by boundary-drain demotion.
    pub kv_demoted_bytes: u64,
    /// p50 per-request latency, admission → terminal, in iterations.
    pub latency_iters_p50: u64,
    /// p99 per-request latency, admission → terminal, in iterations.
    pub latency_iters_p99: u64,
}

impl ServeReport {
    /// The pass/fail liveness verdict the chaos harness asserts on.
    pub fn verdict(&self) -> String {
        if self.unresolved == 0 {
            "all admitted requests reached a terminal status".into()
        } else {
            format!("STUCK ({} unresolved)", self.unresolved)
        }
    }
}

/// Worst-case KV-cache bytes a session holding `positions` cached
/// positions costs in `mode` — the *flat* (pre-paging) reservation model,
/// kept as the baseline the page-granular admission is measured against.
/// Mirrors the cache's row accounting: 2 planes (K and V) per layer per
/// head, each `position_bytes` per position plus a constant per-head
/// quantization-metadata overhead.
pub fn kv_reserve_bytes(shape: &ModelShape, mode: KvCacheMode, positions: usize) -> u64 {
    let dh = shape.head_dim();
    let planes = 2 * (shape.layers * shape.heads) as u64;
    planes * (mode.position_bytes(dh) * positions as u64 + mode.head_overhead_bytes(dh))
}

/// Allocated bytes of **one arena page per plane** across the whole model
/// (2 planes per layer per head), in `mode` at `page_rows` rows — the
/// admission-control pricing unit. Quantized pages carry one `f32` scale
/// snapshot per group.
pub fn kv_page_bytes(shape: &ModelShape, mode: KvCacheMode, page_rows: usize) -> u64 {
    let planes = 2 * (shape.layers * shape.heads) as u64;
    planes * mode.page_alloc_bytes(shape.head_dim(), page_rows)
}

/// Bytes a request reserves at admission: the pages its own prompt rows
/// occupy past the fully-sealed shared-prefix pages, plus one decode page
/// of headroom, plus the per-plane quantization constants its session
/// carries. Further decode pages are reserved as the rollout grows.
pub fn kv_admit_bytes(
    shape: &ModelShape,
    mode: KvCacheMode,
    page_rows: usize,
    shared_prefix: usize,
    prompt_len: usize,
) -> u64 {
    let page_rows = page_rows.max(1);
    // Sealed prefix pages are shared copy-on-write; the prefix tail page
    // (if partial) is copied by the fork's first append, so it bills to
    // the request.
    let shared_pages = shared_prefix / page_rows;
    let own_pages = (shared_prefix + prompt_len).div_ceil(page_rows) - shared_pages;
    kv_reserve_bytes(shape, mode, 0)
        + kv_page_bytes(shape, mode, page_rows) * (own_pages as u64 + 1)
}

/// The arena watermark a configured [`ServeConfig::kv_watermark`] stands
/// for. The arena asserts a fraction in `(0, 1]`; a library caller may
/// hand the scheduler anything, and every value must be a run, never a
/// panic: at or below zero becomes the smallest positive mark, above one
/// or NaN becomes 1.0.
fn arena_watermark(configured: f64) -> f64 {
    if configured.is_nan() {
        1.0
    } else {
        configured.clamp(f64::MIN_POSITIVE, 1.0)
    }
}

/// Generates the run's synthetic traffic: a seeded arrival process with
/// bounded inter-arrival gaps, prompts drawn uniformly from the vocab, and
/// decode targets in the configured range. Every 8th request deliberately
/// overshoots the context window so window truncation is exercised under
/// load. Pure function of (config, shape) — byte-identical at any thread
/// count.
pub fn synthetic_traffic(cfg: &ServeConfig, shape: &ModelShape) -> Vec<Request> {
    let mut rng = DetRng::new(cfg.arrival_seed);
    let max_prompt = shape.max_seq.saturating_sub(2 + cfg.shared_prefix).max(1);
    let (plo, phi) = cfg.prompt_len;
    let (dlo, dhi) = cfg.decode_len;
    let mut arrival = 0u64;
    let mut out = Vec::with_capacity(cfg.requests);
    for id in 0..cfg.requests {
        if id > 0 {
            arrival += rng.below(cfg.max_arrival_gap as usize + 1) as u64;
        }
        let plen = (plo + rng.below(phi.saturating_sub(plo) + 1)).clamp(1, max_prompt);
        let prompt: Vec<usize> = (0..plen).map(|_| rng.below(shape.vocab)).collect();
        let mut decode_target = (dlo + rng.below(dhi.saturating_sub(dlo) + 1)).max(1);
        if id % 8 == 7 {
            decode_target = decode_target.max(shape.max_seq - plen + 2);
        }
        out.push(Request {
            id,
            arrival,
            prompt,
            decode_target,
        });
    }
    out
}

/// Runs `build` (typically scheme calibration + quantization) under
/// `catch_unwind` so an injected fault that panics mid-setup — e.g. a pool
/// task fault during calibration — degrades the serving stack to the
/// caller's fallback model instead of killing the server before it takes
/// a single request. A degraded setup counts one `degraded_sites` and one
/// `fallback_fp16` (the caller's fallback is the unquantized reference
/// model, the ladder's last rung).
pub fn build_or_degrade<T>(build: impl FnOnce() -> T) -> Option<T> {
    match catch_unwind(AssertUnwindSafe(build)) {
        Ok(v) => Some(v),
        Err(_) => {
            tender_metrics::faults::DEGRADED_SITES.incr();
            tender_metrics::faults::FALLBACK_FP16.incr();
            None
        }
    }
}

/// A request that passed admission and is waiting for or holding a slot.
struct Admitted {
    req: Request,
    admitted_at: u64,
    reserve: u64,
    clock: Instant,
}

/// An admitted request bound to a live decode session.
struct Active<'m> {
    adm: Admitted,
    session: DecodeSession<'m>,
    /// Prompt tokens ingested so far.
    fed: usize,
    /// The next token to emit + feed once prefill completes.
    pending: Option<usize>,
    /// Decode tokens emitted.
    emitted: usize,
}

/// The continuous-batching scheduler. See the crate docs for the contract.
pub struct Scheduler<'m> {
    model: ModelRef<'m>,
    cfg: ServeConfig,
}

impl<'m> Scheduler<'m> {
    /// A scheduler serving synthetic traffic against `model`.
    pub fn new(model: impl Into<ModelRef<'m>>, cfg: ServeConfig) -> Self {
        Self {
            model: model.into(),
            cfg,
        }
    }

    /// Runs the whole synthetic workload to completion and returns the
    /// deterministic report. `metrics::serve::ITERATIONS` ticks live; the
    /// rest of the `metrics::serve` bank is published from the finished
    /// report.
    pub fn run(&mut self) -> ServeReport {
        let run_start = Instant::now();
        let mut run = Run::new(self.model, self.cfg.clone());
        while !(run.pending.is_empty() && run.waiting.is_empty() && run.active.is_empty()) {
            if run.t > run.horizon {
                let unresolved = run.pending.len() + run.waiting.len() + run.active.len();
                run.report.unresolved = unresolved as u64;
                run.event(format!(
                    "safety horizon reached with {unresolved} unresolved"
                ));
                break;
            }
            run.report.iterations += 1;
            metrics::ITERATIONS.incr();
            run.drain_and_reprice();
            run.admit();
            run.join();
            run.expire();
            let plan = faults::plan();
            if !run.stall(plan.as_deref()) {
                run.work(plan.as_deref());
            }
            run.t += 1;
        }
        run.report(run_start)
    }
}

/// The state of one [`Scheduler::run`]: the queues a request moves
/// through, the KV-budget ledger, and the report being built — whose
/// counters are the run's only tally.
struct Run<'m> {
    model: ModelRef<'m>,
    cfg: ServeConfig,
    /// One shared page arena for every session in the run: forks share
    /// prefix pages, demotion (under a capped arena) frees budget.
    arena: KvArena,
    /// The prefilled shared prefix every request forks from, if any.
    template: Option<DecodeSession<'m>>,
    /// [`kv_page_bytes`] of the run's mode and page size.
    page_bytes: u64,
    /// Content-keyed run identity for the `sched` and serve-level `pool`
    /// fault streams: distinct configs fault independently.
    run_key: u64,
    /// Defensive iteration cap; see [`Run::new`].
    horizon: u64,
    /// The current iteration (logical time).
    t: u64,
    pending: VecDeque<Request>,
    waiting: VecDeque<Admitted>,
    active: Vec<Active<'m>>,
    /// KV bytes currently reserved under the admission budget.
    reserved: u64,
    latencies_iters: Vec<u64>,
    latencies_ns: Vec<u64>,
    report: ServeReport,
}

impl<'m> Run<'m> {
    fn new(model: ModelRef<'m>, cfg: ServeConfig) -> Self {
        let shape = model.shape();
        let header = format!(
            "serve: {} requests, arrival seed {}, deadline {} iters, queue cap {}, \
             kv budget {} bytes, batch {}, prefill chunk {}, kv {}, page rows {}, \
             shared prefix {}, kv watermark {}",
            cfg.requests,
            cfg.arrival_seed,
            cfg.deadline_steps,
            cfg.queue_cap,
            cfg.kv_budget_bytes,
            cfg.max_batch,
            cfg.prefill_chunk,
            cfg.kv_mode.label(),
            cfg.page_rows,
            cfg.shared_prefix,
            cfg.kv_watermark,
        );
        // Appends only *enqueue* demotion candidates; `drain_and_reprice`
        // requantizes them in clock order — off the per-step critical
        // path, independent of slot interleaving.
        let arena = KvArena::new(ArenaConfig {
            page_rows: cfg.page_rows.max(1),
            capacity_bytes: (cfg.kv_arena_bytes != u64::MAX).then_some(cfg.kv_arena_bytes),
            watermark: arena_watermark(cfg.kv_watermark),
            ..ArenaConfig::default()
        });
        let traffic = synthetic_traffic(&cfg, shape);
        // Defensive horizon: admission resolves by the last arrival and
        // deadlines bound every admitted request, so a healthy run always
        // exits well inside this cap. Breaching it marks the leftovers
        // unresolved (a STUCK verdict) instead of hanging.
        let work_bound: u64 = traffic
            .iter()
            .map(|r| (r.prompt.len().div_ceil(cfg.prefill_chunk.max(1)) + r.decode_target) as u64)
            .sum();
        let last_arrival = traffic.last().map_or(0, |r| r.arrival);
        let mut run = Self {
            model,
            template: None,
            page_bytes: kv_page_bytes(shape, cfg.kv_mode, cfg.page_rows.max(1)),
            run_key: faults::hash_bytes(header.as_bytes()),
            horizon: last_arrival + cfg.deadline_steps.min(1_000_000) + work_bound * 4 + 16,
            t: 0,
            pending: traffic.into(),
            waiting: VecDeque::new(),
            active: Vec::new(),
            reserved: 0,
            latencies_iters: Vec::new(),
            latencies_ns: Vec::new(),
            report: ServeReport::default(),
            arena,
            cfg,
        };
        run.line(header);
        run.prefill_shared_prefix();
        run
    }

    fn line(&mut self, s: String) {
        self.report.transcript.push_str(&s);
        self.report.transcript.push('\n');
    }

    /// A transcript line stamped with the current iteration.
    fn event(&mut self, s: String) {
        self.line(format!("[iter {}] {s}", self.t));
    }

    fn prefill_shared_prefix(&mut self) {
        if self.cfg.shared_prefix == 0 {
            return;
        }
        let take = self
            .cfg
            .shared_prefix
            .min(self.model.shape().max_seq.saturating_sub(2))
            .max(1);
        let mut rng = DetRng::new(self.cfg.arrival_seed ^ 0x5eed_caf3);
        let prefix: Vec<usize> = (0..take)
            .map(|_| rng.below(self.model.shape().vocab))
            .collect();
        let mut s = DecodeSession::with_arena(self.model, self.cfg.kv_mode, &self.arena);
        match s.try_prefill(&prefix) {
            Ok(_) => {
                self.line(format!(
                    "shared prefix: {} tokens, {} pages/plane",
                    take,
                    s.cache().capacity() / self.cfg.page_rows.max(1)
                ));
                self.template = Some(s);
            }
            // A full arena is worded as it was when it was the only refusal.
            Err(StepError::KvExhausted(e)) => self.line(format!("shared prefix: disabled ({e})")),
            Err(e) => self.line(format!("shared prefix: disabled ({e})")),
        }
    }

    /// Adds `bytes` to the reserved total and tracks its peak.
    fn reserve(&mut self, bytes: u64) {
        self.reserved += bytes;
        self.report.kv_reserved_peak = self.report.kv_reserved_peak.max(self.reserved);
    }

    /// Boundary drain: advance the demotion clock and requantize queued
    /// cold pages in clock order (off the per-step critical path), then
    /// re-price every fully-fed session's reservation from the *measured*
    /// arena so demotion-freed bytes flow back into the admission budget
    /// before this iteration's arrivals are priced. The pre-demotion
    /// reservation floor keeps one decode page of headroom plus the
    /// per-plane quantization constants the session carries outside the
    /// arena.
    fn drain_and_reprice(&mut self) {
        self.arena.advance_clock();
        let drained = drain_demotions(&self.arena, 0);
        let session_const = kv_reserve_bytes(self.model.shape(), self.cfg.kv_mode, 0);
        let mut reclaimed = 0u64;
        for slot in self.active.iter_mut() {
            if slot.fed < slot.adm.req.prompt.len() {
                continue; // footprint not yet measurable
            }
            let floor = slot.session.cache().allocated_bytes() + self.page_bytes + session_const;
            if slot.adm.reserve > floor {
                reclaimed += slot.adm.reserve - floor;
                slot.adm.reserve = floor;
            }
        }
        self.reserved -= self.reserved.min(reclaimed);
        if drained.demoted > 0 {
            self.report.kv_demoted_pages += drained.demoted as u64;
            self.report.kv_demoted_bytes += drained.freed_bytes;
            self.event(format!(
                "kv drain: {} pages demoted, {} bytes freed, {} bytes reclaimed",
                drained.demoted, drained.freed_bytes, reclaimed
            ));
        }
    }

    /// Arrivals → admission control. A request is admitted or rejected
    /// the iteration it arrives; rejection is typed and immediate, never
    /// a silent drop. Pricing is page-granular — prompt pages plus one
    /// decode page ([`kv_admit_bytes`]); later decode pages are reserved
    /// as the rollout grows.
    fn admit(&mut self) {
        let prefix_len = self.template.as_ref().map_or(0, |s| s.len());
        let budget = self.cfg.kv_budget_bytes;
        while self.pending.front().is_some_and(|r| r.arrival <= self.t) {
            let req = self.pending.pop_front().expect("checked non-empty");
            let need = kv_admit_bytes(
                self.model.shape(),
                self.cfg.kv_mode,
                self.cfg.page_rows,
                prefix_len,
                req.prompt.len(),
            );
            let available = budget - budget.min(self.reserved);
            if self.waiting.len() >= self.cfg.queue_cap {
                self.report.rejected_queue += 1;
                self.reject(
                    req,
                    AdmissionError::QueueFull {
                        cap: self.cfg.queue_cap,
                    },
                );
            } else if need > available {
                self.report.rejected_kv += 1;
                self.reject(
                    req,
                    AdmissionError::KvBudgetExceeded {
                        needed: need,
                        available,
                        budget,
                    },
                );
            } else {
                self.report.admitted += 1;
                self.reserve(need);
                self.event(format!(
                    "admit r{} (prompt {}, decode {}, kv {})",
                    req.id,
                    req.prompt.len(),
                    req.decode_target,
                    need
                ));
                self.waiting.push_back(Admitted {
                    req,
                    admitted_at: self.t,
                    reserve: need,
                    clock: Instant::now(),
                });
            }
        }
        self.report.queue_depth_max = self.report.queue_depth_max.max(self.waiting.len() as u64);
    }

    fn reject(&mut self, req: Request, e: AdmissionError) {
        self.event(format!("reject r{}: {e}", req.id));
        self.report.outcomes.push(RequestOutcome {
            id: req.id,
            status: TerminalStatus::Rejected(e),
            admitted_at: None,
            finished_at: self.t,
        });
    }

    /// Fills free batch slots from the queue — sessions join mid-flight,
    /// the batch never drains first.
    fn join(&mut self) {
        while self.active.len() < self.cfg.max_batch {
            let Some(adm) = self.waiting.pop_front() else {
                break;
            };
            self.event(format!("start r{}", adm.req.id));
            let session = match &self.template {
                Some(tpl) => tpl.fork(),
                None => DecodeSession::with_arena(self.model, self.cfg.kv_mode, &self.arena),
            };
            self.active.push(Active {
                adm,
                session,
                fed: 0,
                pending: None,
                emitted: 0,
            });
        }
        let occupancy = self.active.len() as u64;
        self.report.batch_occupancy_max = self.report.batch_occupancy_max.max(occupancy);
    }

    /// Watchdog: expires deadlines, waiting and active alike.
    fn expire(&mut self) {
        let (t, deadline) = (self.t, self.cfg.deadline_steps);
        let overdue = |adm: &Admitted| t - adm.admitted_at >= deadline;
        let (expired, waiting) = mem::take(&mut self.waiting)
            .into_iter()
            .partition(|adm| overdue(adm));
        self.waiting = waiting;
        for adm in expired {
            self.finish(adm, TerminalStatus::DeadlineExceeded { decoded: 0 }, "");
        }
        let (expired, active) = mem::take(&mut self.active)
            .into_iter()
            .partition(|slot| overdue(&slot.adm));
        self.active = active;
        for slot in expired {
            let decoded = slot.emitted;
            self.finish(slot.adm, TerminalStatus::DeadlineExceeded { decoded }, "");
        }
    }

    /// Injected scheduler stall: drops this iteration's work. Deadlines
    /// (absolute time) keep ticking, so a stalled server degrades to
    /// slower service, never to a hang.
    fn stall(&mut self, plan: Option<&faults::FaultPlan>) -> bool {
        let stalled =
            !self.active.is_empty() && plan.is_some_and(|p| p.sched_stall(self.run_key, self.t));
        if stalled {
            self.report.stalled_iterations += 1;
            self.event("sched stall (injected)".into());
        }
        stalled
    }

    /// Advances every active session one quantum — a prefill chunk or one
    /// decode step — in two passes.
    ///
    /// Pass one walks the slots in order and settles everything that is
    /// decidable before a decode step: page growth against the budget, the
    /// serve-level fault consult, a prompt chunk, emitting the pending token
    /// and completing at the target or at the context window. Every slot is
    /// isolated under `catch_unwind` here, so a panic (the injected consult,
    /// or a pool fault inside a prompt chunk's GEMMs) retires that request
    /// alone.
    ///
    /// Pass two advances the slots that still owe a decode step with **one**
    /// [`step_stacked`]: their rows share one product per weight site, so
    /// an iteration streams the weights once, not once per slot. A typed
    /// failure is still one slot's own; an unwind out of the shared step
    /// retires every slot that was in it. `AssertUnwindSafe` is sound
    /// because a slot whose work unwound is retired immediately — its
    /// possibly-inconsistent session is dropped, never re-stepped.
    fn work(&mut self, plan: Option<&faults::FaultPlan>) {
        let chunk = self.cfg.prefill_chunk.max(1);
        let max_seq = self.model.shape().max_seq;
        // Per slot pass one leaves active, in order: the token it must now
        // be fed through a decode step, if it owes one.
        let mut owed: Vec<Option<usize>> = Vec::new();
        let mut idx = 0;
        while idx < self.active.len() {
            if !self.grow_reservation(idx) {
                let slot = self.active.remove(idx);
                let status = TerminalStatus::Done {
                    tokens: slot.emitted,
                    truncated: true,
                };
                self.finish(slot.adm, status, " (truncated at kv budget)");
                continue;
            }
            let slot = &mut self.active[idx];
            let injected = plan
                .is_some_and(|p| p.pool_panic((self.run_key ^ self.t) as usize, slot.adm.req.id));
            let result = catch_unwind(AssertUnwindSafe(|| {
                if injected {
                    panic!("injected pool task fault (serve)");
                }
                advance(slot, chunk, max_seq)
            }));
            let quantum = result.unwrap_or_else(|payload| {
                Quantum::Terminal(TerminalStatus::Failed {
                    reason: panic_reason(payload.as_ref()),
                })
            });
            match quantum {
                Quantum::Terminal(status) => {
                    let slot = self.active.remove(idx);
                    self.finish(slot.adm, status, " (truncated at window)");
                    continue;
                }
                Quantum::Step(token) => owed.push(Some(token)),
                Quantum::Fed => owed.push(None),
            }
            idx += 1;
        }
        let stepping: Vec<usize> = (0..owed.len()).filter(|&i| owed[i].is_some()).collect();
        if stepping.is_empty() {
            return;
        }

        let tokens: Vec<usize> = owed.iter().flatten().copied().collect();
        let mut stack: Vec<&mut DecodeSession<'m>> = self
            .active
            .iter_mut()
            .zip(&owed)
            .filter(|(_, owes)| owes.is_some())
            .map(|(slot, _)| &mut slot.session)
            .collect();
        let stepped = catch_unwind(AssertUnwindSafe(|| step_stacked(&mut stack, &tokens)));
        let mut retired = 0;
        match stepped {
            Ok(results) => {
                for (&idx, result) in stepping.iter().zip(results) {
                    let slot = &mut self.active[idx - retired];
                    let status = match result {
                        Ok(logits) => {
                            slot.pending = Some(slot.session.greedy_next(&logits));
                            continue;
                        }
                        Err(StepError::SequenceFull { .. }) => window_truncation(slot),
                        Err(e) => TerminalStatus::Failed {
                            reason: format!("step failed: {e}"),
                        },
                    };
                    let slot = self.active.remove(idx - retired);
                    retired += 1;
                    self.finish(slot.adm, status, " (truncated at window)");
                }
            }
            Err(payload) => {
                let reason = panic_reason(payload.as_ref());
                for &idx in &stepping {
                    let slot = self.active.remove(idx - retired);
                    retired += 1;
                    let status = TerminalStatus::Failed {
                        reason: reason.clone(),
                    };
                    self.finish(slot.adm, status, "");
                }
            }
        }
    }

    /// Page-growth check for `active[idx]`: a decode step whose append
    /// would open a fresh page must grow the reservation first. The grant
    /// is re-synced to the session's *measured* allocation, so bytes freed
    /// by arena demotion flow back into the budget here. Returns `false`
    /// when the budget cannot cover the growth — the request then
    /// completes with the tokens it has: truncation, not failure.
    fn grow_reservation(&mut self, idx: usize) -> bool {
        let slot = &self.active[idx];
        let needs_step = slot.fed >= slot.adm.req.prompt.len()
            && slot.pending.is_some()
            && slot.emitted + 1 < slot.adm.req.decode_target;
        let opens_page = !slot.session.is_empty()
            && slot.session.len().is_multiple_of(self.cfg.page_rows.max(1))
            && slot.session.len() < self.model.shape().max_seq;
        if !(needs_step && opens_page) {
            return true;
        }
        let wanted = slot.session.cache().allocated_bytes() + self.page_bytes;
        let extra = wanted.saturating_sub(slot.adm.reserve);
        if self.reserved + extra > self.cfg.kv_budget_bytes {
            return false;
        }
        self.active[idx].adm.reserve += extra;
        self.reserve(extra);
        true
    }

    /// Gives an admitted request its terminal status: counts it, logs it
    /// (`note` qualifies a truncated completion), returns its reservation
    /// to the budget and records its latency.
    fn finish(&mut self, adm: Admitted, status: TerminalStatus, note: &str) {
        let id = adm.req.id;
        let iters = self.t - adm.admitted_at;
        let line = match &status {
            TerminalStatus::Done { tokens, truncated } => {
                self.report.completed += 1;
                self.report.truncated += u64::from(*truncated);
                self.report.decode_tokens += *tokens as u64;
                let note = if *truncated { note } else { "" };
                format!("r{id} done: {tokens} tokens in {iters} iters{note}")
            }
            TerminalStatus::DeadlineExceeded { decoded } => {
                self.report.expired += 1;
                self.report.decode_tokens += *decoded as u64;
                format!("r{id} deadline exceeded after {decoded} tokens")
            }
            TerminalStatus::Failed { reason } => {
                self.report.failed += 1;
                format!("r{id} failed: {reason}")
            }
            TerminalStatus::Rejected(_) => unreachable!("a rejected request was never admitted"),
        };
        self.event(line);
        self.reserved -= adm.reserve;
        self.latencies_iters.push(iters);
        let ns = adm.clock.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        self.latencies_ns.push(ns);
        metrics::REQUEST_LATENCY.record_ns(ns);
        self.report.outcomes.push(RequestOutcome {
            id,
            status,
            admitted_at: Some(adm.admitted_at),
            finished_at: self.t,
        });
    }

    /// The deterministic summary. Latency percentiles in *iterations* are
    /// logical time, so they belong in the transcript; wall-clock
    /// percentiles go to the metrics bank only.
    fn report(mut self, run_start: Instant) -> ServeReport {
        self.latencies_iters.sort_unstable();
        self.latencies_ns.sort_unstable();
        let r = &mut self.report;
        r.latency_iters_p50 = percentile(&self.latencies_iters, 50);
        r.latency_iters_p99 = percentile(&self.latencies_iters, 99);
        r.outcomes.sort_by_key(|o| o.id);

        metrics::SUBMITTED.add(self.cfg.requests as u64);
        metrics::ADMITTED.add(r.admitted);
        metrics::REJECTED_QUEUE_FULL.add(r.rejected_queue);
        metrics::REJECTED_KV_BUDGET.add(r.rejected_kv);
        metrics::COMPLETED.add(r.completed);
        metrics::EXPIRED.add(r.expired);
        metrics::FAILED.add(r.failed);
        metrics::STALLED_ITERATIONS.add(r.stalled_iterations);
        metrics::QUEUE_DEPTH_MAX.observe(r.queue_depth_max);
        metrics::BATCH_OCCUPANCY_MAX.observe(r.batch_occupancy_max);
        metrics::KV_RESERVED_PEAK_BYTES.observe(r.kv_reserved_peak);
        metrics::LATENCY_ITERS_P50.set(r.latency_iters_p50);
        metrics::LATENCY_ITERS_P99.set(r.latency_iters_p99);
        metrics::LATENCY_P50_NS.set(percentile(&self.latencies_ns, 50));
        metrics::LATENCY_P99_NS.set(percentile(&self.latencies_ns, 99));
        let elapsed_ns = run_start.elapsed().as_nanos().max(1);
        metrics::TOKENS_PER_SEC_MILLI.set(
            ((r.decode_tokens as u128 * 1_000_000_000_000) / elapsed_ns).min(u64::MAX as u128)
                as u64,
        );

        let summary = format!(
            "summary: submitted {} admitted {} rejected {} (queue {}, kv {}) done {} \
             (truncated {}) expired {} failed {}\n\
             latency iters p50 {} p99 {}, max queue depth {}, max batch {}, \
             kv reserved peak {}, kv drain demoted {} pages ({} bytes), \
             iterations {} (stalled {})\n\
             verdict: {}",
            self.cfg.requests,
            r.admitted,
            r.rejected_queue + r.rejected_kv,
            r.rejected_queue,
            r.rejected_kv,
            r.completed,
            r.truncated,
            r.expired,
            r.failed,
            r.latency_iters_p50,
            r.latency_iters_p99,
            r.queue_depth_max,
            r.batch_occupancy_max,
            r.kv_reserved_peak,
            r.kv_demoted_pages,
            r.kv_demoted_bytes,
            r.iterations,
            r.stalled_iterations,
            r.verdict(),
        );
        self.line(summary);
        self.report
    }
}

/// What pass one of [`Run::work`] left of one request's quantum.
enum Quantum {
    /// A prompt chunk went in; nothing more this iteration.
    Fed,
    /// The request completed or failed.
    Terminal(TerminalStatus),
    /// The pending token was emitted and must now be fed through a decode
    /// step to produce the next one.
    Step(usize),
}

/// The completion of a rollout that ran into the context window — a
/// truncation, not a failure.
fn window_truncation(slot: &Active<'_>) -> TerminalStatus {
    engine_metrics::DECODE_TRUNCATED.incr();
    TerminalStatus::Done {
        tokens: slot.emitted,
        truncated: true,
    }
}

/// Advances one active request by everything a scheduling quantum decides
/// before a decode step: a prompt chunk, or emitting the pending token and
/// completing at the target or at the window.
fn advance(slot: &mut Active<'_>, chunk: usize, max_seq: usize) -> Quantum {
    let prompt_len = slot.adm.req.prompt.len();
    if slot.fed < prompt_len {
        // Chunked prefill: up to `chunk` prompt tokens this iteration. A
        // session forked from a shared-prefix template is already
        // prefilled, so its own prompt extends it from the first chunk.
        let take = chunk.min(prompt_len - slot.fed);
        let tokens = &slot.adm.req.prompt[slot.fed..slot.fed + take];
        let ingested = if slot.session.is_empty() {
            slot.session.try_prefill(tokens).map_err(|e| match e {
                StepError::KvExhausted(e) => format!("kv arena exhausted during prefill: {e}"),
                e => format!("prompt refused: {e}"),
            })
        } else {
            slot.session
                .extend(tokens)
                .map_err(|e| format!("prompt ingestion failed: {e}"))
        };
        let logits = match ingested {
            Ok(logits) => logits,
            Err(reason) => return Quantum::Terminal(TerminalStatus::Failed { reason }),
        };
        slot.fed += take;
        metrics::PREFILL_CHUNK_TOKENS.add(take as u64);
        if slot.fed == prompt_len {
            slot.pending = Some(slot.session.greedy_next(&logits));
        }
        return Quantum::Fed;
    }

    // Decode: emit the pending token, then (if more are needed) the session
    // owes a step to produce the next one. A session at the window has no
    // position left to embed it at: `step` would refuse `SequenceFull`, so
    // the rollout truncates here, where the iteration's other completions
    // are decided.
    let tok = slot.pending.expect("decode phase has a pending token");
    slot.emitted += 1;
    metrics::DECODE_TOKENS.incr();
    if slot.emitted >= slot.adm.req.decode_target {
        return Quantum::Terminal(TerminalStatus::Done {
            tokens: slot.emitted,
            truncated: false,
        });
    }
    if slot.session.len() >= max_seq {
        return Quantum::Terminal(window_truncation(slot));
    }
    Quantum::Step(tok)
}

/// Stable panic description: injected pool faults collapse to a fixed
/// string because the payload that wins an inner batch's first-panic race
/// can differ across thread counts; everything else keeps its message.
fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic".into());
    if msg.starts_with("injected pool task fault") {
        "injected pool task fault".into()
    } else {
        msg
    }
}

/// Nearest-rank percentile over a sorted slice (0 for an empty slice).
fn percentile(sorted: &[u64], pct: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let n = sorted.len() as u64;
    let rank = (pct * n).div_ceil(100).clamp(1, n);
    sorted[(rank - 1) as usize]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;
    use tender_faults::{FaultPlan, PlanGuard};
    use tender_model::synthetic::SyntheticLlm;
    use tender_model::ReferenceModel;

    /// Serializes tests: the fault plan and the metrics bank are global.
    static LOCK: Mutex<()> = Mutex::new(());

    fn tiny() -> ReferenceModel {
        let shape = ModelShape::tiny_test();
        SyntheticLlm::generate(&shape, 11).reference()
    }

    #[test]
    fn same_config_runs_are_byte_identical() {
        let _lock = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let model = tiny();
        let cfg = ServeConfig::new(12, 42);
        let a = Scheduler::new(&model, cfg.clone()).run();
        let b = Scheduler::new(&model, cfg).run();
        assert_eq!(a.transcript, b.transcript);
        assert_eq!(a, b);
        assert_eq!(a.unresolved, 0);
        assert_eq!(
            a.verdict(),
            "all admitted requests reached a terminal status"
        );
        assert_eq!(a.outcomes.len(), 12, "every request reaches a terminal");
        // The byte-equality above is also the wall-clock guard: the two
        // runs took different real time, so any leaked timing would have
        // already diverged the transcripts.
    }

    #[test]
    fn queue_cap_rejections_are_typed_and_immediate() {
        let _lock = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let model = tiny();
        let mut cfg = ServeConfig::new(6, 7);
        cfg.queue_cap = 1;
        cfg.max_batch = 1;
        cfg.max_arrival_gap = 0; // everyone arrives at iteration 0
        let report = Scheduler::new(&model, cfg).run();
        assert_eq!(report.admitted, 1);
        assert_eq!(report.rejected_queue, 5);
        assert_eq!(report.unresolved, 0);
        let rejected: Vec<_> = report
            .outcomes
            .iter()
            .filter(|o| {
                matches!(
                    o.status,
                    TerminalStatus::Rejected(AdmissionError::QueueFull { cap: 1 })
                )
            })
            .collect();
        assert_eq!(rejected.len(), 5);
        assert!(rejected.iter().all(|o| o.admitted_at.is_none()));
        assert!(rejected.iter().all(|o| o.finished_at == 0), "immediate");
    }

    #[test]
    fn kv_budget_rejections_are_typed() {
        let _lock = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let model = tiny();
        let mut cfg = ServeConfig::new(4, 9);
        cfg.kv_budget_bytes = 1; // nothing fits
        let report = Scheduler::new(&model, cfg).run();
        assert_eq!(report.admitted, 0);
        assert_eq!(report.rejected_kv, 4);
        assert_eq!(report.unresolved, 0);
        assert!(report.outcomes.iter().all(|o| matches!(
            o.status,
            TerminalStatus::Rejected(AdmissionError::KvBudgetExceeded { budget: 1, .. })
        )));
    }

    #[test]
    fn a_zero_byte_arena_fails_requests_without_unwinding() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static PANICS: AtomicUsize = AtomicUsize::new(0);
        let _lock = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let model = tiny();
        let mut cfg = ServeConfig::new(6, 9);
        cfg.kv_arena_bytes = 0; // admission passes, the first page does not
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {
            PANICS.fetch_add(1, Ordering::Relaxed);
        }));
        let report = Scheduler::new(&model, cfg).run();
        std::panic::set_hook(prev);
        assert_eq!(
            PANICS.load(Ordering::Relaxed),
            0,
            "a typed refusal went through catch_unwind"
        );
        assert_eq!(report.admitted, 6);
        assert_eq!(report.failed, 6);
        assert_eq!(report.unresolved, 0);
        for o in &report.outcomes {
            let TerminalStatus::Failed { reason } = &o.status else {
                panic!("r{} ended as {:?}", o.id, o.status);
            };
            assert!(
                reason.starts_with("kv arena exhausted during prefill: kv arena exhausted (need "),
                "{reason}"
            );
        }
    }

    #[test]
    fn out_of_range_watermarks_are_runs_not_panics() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static PANICS: AtomicUsize = AtomicUsize::new(0);
        let _lock = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let model = tiny();
        let shape = ModelShape::tiny_test();
        // What a run decided, minus the header line echoing the config.
        let run = |watermark: f64| {
            let mut cfg = ServeConfig::new(6, 9);
            cfg.page_rows = 4;
            cfg.kv_arena_bytes = 32 * kv_page_bytes(&shape, cfg.kv_mode, cfg.page_rows);
            cfg.kv_watermark = watermark;
            let report = Scheduler::new(&model, cfg).run();
            assert_eq!((report.completed, report.unresolved), (6, 0));
            (report.outcomes, report.kv_demoted_pages)
        };
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {
            PANICS.fetch_add(1, Ordering::Relaxed);
        }));
        // At or below zero is the smallest mark: whatever is sealed goes
        // down the ladder at the next boundary. NaN and > 1 wait for the cap.
        let (smallest, at_cap) = (run(f64::MIN_POSITIVE), run(1.0));
        let low = [0.0, -1.0, f64::NEG_INFINITY].map(run);
        let high = [f64::NAN, 7.0].map(run);
        std::panic::set_hook(prev);
        assert_eq!(PANICS.load(Ordering::Relaxed), 0, "a watermark panicked");
        assert!(low.iter().all(|r| *r == smallest));
        assert!(high.iter().all(|r| *r == at_cap));
        assert!(smallest.1 > 0 && at_cap.1 == 0);
    }

    /// ROADMAP 4(f): every degenerate `ServeConfig` is a run — each request
    /// reaches a terminal status and nothing unwinds, typed refusals
    /// included.
    #[test]
    fn degenerate_configs_are_runs_not_panics() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static PANICS: AtomicUsize = AtomicUsize::new(0);
        type Tweak = fn(&mut ServeConfig);
        let sweep: [(&str, Tweak); 17] = [
            ("max_batch 0", |c| c.max_batch = 0),
            ("prefill_chunk 0", |c| c.prefill_chunk = 0),
            ("page_rows 0, f32", |c| c.page_rows = 0),
            ("page_rows 0, int4", |c| {
                (c.page_rows, c.kv_mode) = (0, KvCacheMode::Int4);
            }),
            ("page_rows 1, f32", |c| c.page_rows = 1),
            ("page_rows 1, int4", |c| {
                (c.page_rows, c.kv_mode) = (1, KvCacheMode::Int4);
            }),
            ("kv_budget_bytes 0", |c| c.kv_budget_bytes = 0),
            ("kv_arena_bytes 0", |c| c.kv_arena_bytes = 0),
            ("queue_cap 0", |c| c.queue_cap = 0),
            ("prompts past max_seq", |c| c.prompt_len = (300, 400)),
            ("inverted ranges", |c| {
                (c.prompt_len, c.decode_len) = ((12, 4), (16, 4));
            }),
            ("decode_len (0, 0)", |c| c.decode_len = (0, 0)),
            ("prompt_len (0, 0)", |c| c.prompt_len = (0, 0)),
            ("max_arrival_gap 0", |c| c.max_arrival_gap = 0),
            ("requests 0", |c| c.requests = 0),
            ("shared_prefix 1000", |c| c.shared_prefix = 1000),
            ("deadline_steps 0", |c| c.deadline_steps = 0),
        ];
        let _lock = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let model = tiny();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {
            PANICS.fetch_add(1, Ordering::Relaxed);
        }));
        let reports = sweep.map(|(what, tweak)| {
            let mut cfg = ServeConfig::new(6, 9);
            tweak(&mut cfg);
            let requests = cfg.requests;
            let run = std::panic::catch_unwind(|| Scheduler::new(&model, cfg).run());
            (what, requests, run)
        });
        std::panic::set_hook(prev);
        for (what, requests, run) in reports {
            let report = run.unwrap_or_else(|_| panic!("{what}: the run itself panicked"));
            assert_eq!(report.outcomes.len(), requests, "{what}");
            assert_eq!(report.unresolved, 0, "{what}: {}", report.verdict());
            let terminal = report.rejected_queue
                + report.rejected_kv
                + report.completed
                + report.expired
                + report.failed;
            assert_eq!(terminal, requests as u64, "{what}: a request has no status");
        }
        assert_eq!(
            PANICS.load(Ordering::Relaxed),
            0,
            "a degenerate config panicked"
        );
    }

    #[test]
    fn uncapped_arena_never_queues() {
        use tender_metrics::kv_arena::{DEMOTION_QUEUE_DEPTH, DEMOTION_QUEUE_PEAK};
        use tender_model::engine::BatchEngine;
        let _lock = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let model = tiny();
        let shape = ModelShape::tiny_test();
        // No cap means no drain could ever pop a candidate, whatever the
        // watermark says: sealing pages must leave the queue alone.
        tender_metrics::reset_all();
        let mut cfg = ServeConfig::new(8, 42);
        cfg.page_rows = 2;
        cfg.kv_watermark = 0.25;
        let report = Scheduler::new(&model, cfg).run();
        assert_eq!(report.completed, 8);
        assert_eq!(report.kv_demoted_pages, 0);

        let arena = KvArena::new(ArenaConfig {
            page_rows: 2,
            watermark: 0.25,
            ..ArenaConfig::default()
        });
        let sessions = (0..3)
            .map(|_| DecodeSession::with_arena(&model, KvCacheMode::F32, &arena))
            .collect();
        let prompts: Vec<Vec<usize>> = (0..3)
            .map(|s| (0..6).map(|i| (i * 5 + s) % shape.vocab).collect())
            .collect();
        let mut engine = BatchEngine::new(sessions);
        let outs = engine.generate_greedy(&prompts, 6).expect("three prompts");
        assert!(outs.iter().all(|o| o.len() == 6));
        assert!(
            arena.stats().pages_total() > 3 * 2,
            "pages must have sealed"
        );
        assert_eq!(arena.demotion_queue_len(), 0);
        assert_eq!(DEMOTION_QUEUE_PEAK.get(), 0, "an uncapped arena queued");
        assert_eq!(DEMOTION_QUEUE_DEPTH.get(), 0);
    }

    #[test]
    fn page_granular_admission_prices_pages_and_truncates_growth_at_budget() {
        let _lock = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let model = tiny();
        let shape = ModelShape::tiny_test();
        let mut cfg = ServeConfig::new(1, 9);
        cfg.prompt_len = (4, 4);
        cfg.decode_len = (10, 10);
        cfg.page_rows = 4;
        cfg.deadline_steps = 500;
        let req = synthetic_traffic(&cfg, &shape).remove(0);

        // One 4-row prompt page + one decode page, vs the flat worst case
        // of prompt + full decode target.
        let admit = kv_admit_bytes(&shape, KvCacheMode::F32, 4, 0, req.prompt.len());
        let worst = kv_reserve_bytes(
            &shape,
            KvCacheMode::F32,
            req.prompt.len() + req.decode_target,
        );
        assert!(
            admit < worst,
            "page pricing {admit} must undercut worst-case {worst}"
        );

        // A budget of exactly the page-granular price admits the request
        // the worst-case pricing would have rejected…
        cfg.kv_budget_bytes = admit;
        let report = Scheduler::new(&model, cfg).run();
        assert_eq!(report.admitted, 1);
        assert_eq!(report.rejected_kv, 0);
        // …and the rollout completes as a truncation when its page growth
        // outruns the budget — never a failure, never unresolved.
        assert_eq!(report.completed, 1);
        assert_eq!(report.truncated, 1);
        assert_eq!(report.failed, 0);
        assert_eq!(report.unresolved, 0);
        assert!(report.transcript.contains("truncated at kv budget"));
    }

    #[test]
    fn shared_prefix_runs_are_deterministic_and_terminal() {
        let _lock = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let model = tiny();
        let mut cfg = ServeConfig::new(8, 42);
        cfg.shared_prefix = 8;
        cfg.page_rows = 4;
        cfg.deadline_steps = 500;
        let a = Scheduler::new(&model, cfg.clone()).run();
        let b = Scheduler::new(&model, cfg).run();
        assert_eq!(a, b, "shared-prefix forking broke determinism");
        assert_eq!(a.unresolved, 0);
        assert!(a.transcript.contains("shared prefix: 8 tokens"));
        assert!(a.admitted > 0);
        assert_eq!(a.completed + a.expired + a.failed, a.admitted);
    }

    #[test]
    fn kv_reserve_bytes_shrinks_with_quantized_modes() {
        let shape = ModelShape::tiny_test();
        let f32b = kv_reserve_bytes(&shape, KvCacheMode::F32, 32);
        let i8b = kv_reserve_bytes(&shape, KvCacheMode::Int8, 32);
        let i4b = kv_reserve_bytes(&shape, KvCacheMode::Int4, 32);
        assert!(f32b > i8b, "f32 {f32b} vs int8 {i8b}");
        assert!(i8b > i4b, "int8 {i8b} vs int4 {i4b}");
    }

    #[test]
    fn deadlines_expire_but_every_request_is_terminal() {
        let _lock = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let model = tiny();
        let mut cfg = ServeConfig::new(8, 3);
        cfg.deadline_steps = 1; // nothing can finish in one iteration
        cfg.decode_len = (30, 30);
        let report = Scheduler::new(&model, cfg).run();
        assert!(report.admitted > 0);
        assert_eq!(report.expired, report.admitted);
        assert_eq!(report.completed, 0);
        assert_eq!(report.unresolved, 0);
        assert_eq!(report.outcomes.len(), 8);
    }

    #[test]
    fn injected_pool_faults_fail_requests_in_isolation() {
        let _lock = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let model = tiny();
        let _guard = PlanGuard::install(FaultPlan::parse(5, "pool=1").unwrap());
        let report = Scheduler::new(&model, ServeConfig::new(6, 21)).run();
        assert!(report.admitted > 0);
        assert_eq!(report.failed, report.admitted, "every work item faults");
        assert_eq!(report.completed, 0);
        assert_eq!(report.unresolved, 0, "failures never wedge the loop");
        assert!(report.transcript.contains("injected pool task fault"));
        assert!(report.outcomes.iter().all(|o| matches!(
            &o.status,
            TerminalStatus::Failed { reason } if reason == "injected pool task fault"
        ) || matches!(
            o.status,
            TerminalStatus::Rejected(_)
        )));
    }

    #[test]
    fn injected_sched_stalls_slow_service_without_hanging_it() {
        let _lock = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let model = tiny();
        let _guard = PlanGuard::install(FaultPlan::parse(5, "sched=1").unwrap());
        let mut cfg = ServeConfig::new(6, 33);
        cfg.deadline_steps = 4;
        let report = Scheduler::new(&model, cfg).run();
        assert!(report.stalled_iterations > 0);
        assert!(report.admitted > 0);
        // A total stall means no request can make progress, so deadlines
        // are the only exit — and they fire.
        assert_eq!(report.expired, report.admitted);
        assert_eq!(report.unresolved, 0);
        assert!(report.transcript.contains("sched stall (injected)"));
    }

    #[test]
    fn window_overshoot_truncates_as_done_not_failed() {
        let _lock = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let model = tiny();
        let before = engine_metrics::DECODE_TRUNCATED.get();
        let mut cfg = ServeConfig::new(8, 64); // request id 7 overshoots
        cfg.deadline_steps = 500;
        let report = Scheduler::new(&model, cfg).run();
        assert_eq!(report.unresolved, 0);
        assert!(report.truncated >= 1, "the overshoot request truncated");
        assert_eq!(report.completed, report.admitted);
        assert_eq!(report.failed, 0);
        assert!(engine_metrics::DECODE_TRUNCATED.get() > before);
        assert!(report.transcript.contains("(truncated at window)"));
    }

    #[test]
    fn build_or_degrade_counts_the_fallback() {
        let _lock = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let before = tender_metrics::faults::DEGRADED_SITES.get();
        assert_eq!(build_or_degrade(|| 7), Some(7));
        assert_eq!(tender_metrics::faults::DEGRADED_SITES.get(), before);
        let degraded: Option<u32> = build_or_degrade(|| panic!("setup blew up"));
        assert_eq!(degraded, None);
        assert_eq!(tender_metrics::faults::DEGRADED_SITES.get(), before + 1);
    }

    #[test]
    fn traffic_is_deterministic_and_in_vocab() {
        let shape = ModelShape::tiny_test();
        let cfg = ServeConfig::new(32, 5);
        let a = synthetic_traffic(&cfg, &shape);
        let b = synthetic_traffic(&cfg, &shape);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        assert!(a.iter().all(|r| r.prompt.iter().all(|&t| t < shape.vocab)));
        assert!(a
            .iter()
            .all(|r| !r.prompt.is_empty() && r.decode_target > 0));
        // Every 8th request overshoots the window on purpose.
        let r7 = &a[7];
        assert!(r7.prompt.len() + r7.decode_target > shape.max_seq);
    }
}
