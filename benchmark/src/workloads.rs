//! The four workloads, their fixed operation counts, and one repetition of
//! each, driven through the public API of `tender` only.
//!
//! Why these four (the short form; `README.md` has the long one):
//!
//! * `prefill_heavy` — M=160 row-chunked `quant.tender` matmuls over the
//!   GEMM do almost all the work; KV reads, arena and scheduler do
//!   almost none.
//! * `decode_ctx` — the same matmul layers used the other way (M=1, inline)
//!   plus integer attention over packed INT4 codes at growing context.
//! * `serve_mixed` — `Scheduler::run` bookkeeping and token-by-token prompt
//!   ingestion on top of the engine; demotion is bypassed.
//! * `serve_pressure` — the only workload where the arena, the demotion
//!   drain, copy-on-write forks and KV-budget admission do real work.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use tender::metrics as m;
use tender::model::calibration::{token_batches, CorpusKind};
use tender::model::{
    greedy_token, ArenaConfig, BatchEngine, DecodeSession, KvArena, KvCacheMode, ModelRef,
    ModelShape, QuantizedModel,
};
use tender::serve::{kv_page_bytes, synthetic_traffic, Scheduler, ServeConfig, ServeReport};
use tender::serve::{RequestOutcome, TerminalStatus};
use tender::{scheme_by_name, Experiment, ExperimentOptions};

use crate::trace::Tracer;

/// Workload names, in the order every report lists them.
pub const WORKLOADS: [&str; 4] = [
    "prefill_heavy",
    "decode_ctx",
    "serve_mixed",
    "serve_pressure",
];

/// The traffic seed of the serve workloads. The arrival process and the
/// request lengths are part of the workload's *definition*, like the
/// session counts of the generate workloads: one affordable run serves
/// about 30 requests, and re-drawing that few from `--seed` moves tokens/s
/// by ±10 % and p50 latency by ±30 % — several times any regression bound.
pub const TRAFFIC_SEED: u64 = 42;

/// Which weights a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Weights {
    Tender4,
    Tender8,
    Fp32,
}

impl Weights {
    /// Registry name of the scheme (`None` for the FP32 reference).
    pub fn scheme(self) -> Option<&'static str> {
        match self {
            Weights::Tender4 => Some("Tender@4"),
            Weights::Tender8 => Some("Tender@8"),
            Weights::Fp32 => None,
        }
    }

    pub fn label(self) -> &'static str {
        self.scheme().unwrap_or("FP32")
    }
}

/// Static description of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub weights: Weights,
    pub kv: KvCacheMode,
    pub serve: bool,
}

/// Looks a workload up by name.
pub fn spec(name: &str) -> Option<Spec> {
    let (weights, kv, serve) = match name {
        "prefill_heavy" => (Weights::Tender4, KvCacheMode::Int8, false),
        "decode_ctx" => (Weights::Tender8, KvCacheMode::Int4, false),
        "serve_mixed" => (Weights::Tender8, KvCacheMode::Int8, true),
        "serve_pressure" => (Weights::Fp32, KvCacheMode::F32, true),
        _ => return None,
    };
    let name = WORKLOADS.iter().find(|w| **w == name)?;
    Some(Spec {
        name,
        weights,
        kv,
        serve,
    })
}

/// Fixed operation counts of one repetition. They are not time-boxed: a
/// run repeats whole repetitions until its time is up, so two commits
/// always execute the same operations per repetition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// `prefill_heavy`: sessions per repetition, prompt length, decode steps.
    pub prefill_sessions: usize,
    pub prefill_prompt: usize,
    pub prefill_steps: usize,
    /// `decode_ctx`: sessions in the batch, prompt length and `step_all`
    /// calls per round (one round per repetition).
    pub decode_sessions: usize,
    pub decode_prompt: usize,
    pub decode_steps: usize,
    /// Requests per `Scheduler::run`.
    pub mixed_requests: usize,
    pub pressure_requests: usize,
    /// Sessions, prompt positions and teacher-forced decode steps of the
    /// argmax-agreement pass.
    pub agree_sessions: usize,
    pub agree_prompt: usize,
    pub agree_steps: usize,
}

impl Sizes {
    /// The counts every committed number is measured with.
    pub fn full() -> Self {
        Self {
            prefill_sessions: 2,
            prefill_prompt: 160,
            prefill_steps: 8,
            decode_sessions: 2,
            decode_prompt: 32,
            decode_steps: 220,
            mixed_requests: 6,
            pressure_requests: 16,
            agree_sessions: 2,
            agree_prompt: 64,
            agree_steps: 64,
        }
    }

    /// Counts ÷ 10 (rounded up to something that still runs every code
    /// path) for `--smoke`.
    pub fn smoke() -> Self {
        Self {
            prefill_sessions: 1,
            prefill_prompt: 16,
            prefill_steps: 2,
            decode_sessions: 2,
            decode_prompt: 8,
            decode_steps: 22,
            mixed_requests: 2,
            pressure_requests: 3,
            agree_sessions: 1,
            agree_prompt: 8,
            agree_steps: 6,
        }
    }

    /// `(name, value)` pairs for the result stamp.
    pub fn pairs(&self) -> Vec<(&'static str, usize)> {
        vec![
            ("prefill_sessions", self.prefill_sessions),
            ("prefill_prompt", self.prefill_prompt),
            ("prefill_steps", self.prefill_steps),
            ("decode_sessions", self.decode_sessions),
            ("decode_prompt", self.decode_prompt),
            ("decode_steps", self.decode_steps),
            ("mixed_requests", self.mixed_requests),
            ("pressure_requests", self.pressure_requests),
            ("agree_sessions", self.agree_sessions),
            ("agree_prompt", self.agree_prompt),
            ("agree_steps", self.agree_steps),
        ]
    }
}

/// The model under test: one `Experiment` plus the quantized models the
/// selected workloads need, with the wall time of every build.
pub struct Env {
    pub shape: ModelShape,
    pub exp: Experiment,
    pub t4: Option<QuantizedModel>,
    pub t8: Option<QuantizedModel>,
    /// Wall seconds of each `Experiment::new`.
    pub new_s: Vec<f64>,
    /// Wall seconds of each `Experiment::quantize`, per weights kind.
    pub quantize_s: Vec<(Weights, Vec<f64>)>,
}

impl Env {
    /// Builds the experiment `builds` times (keeping the last) and each
    /// scheme in `needs` as often, timing every build. The model seed is
    /// `ExperimentOptions::standard()`'s: `--seed` never reaches the model.
    pub fn build(needs: &[Weights], builds: usize, tracer: &mut Tracer) -> Self {
        let shape = ModelShape::opt_6_7b().eval_preset();
        let mut new_s = Vec::new();
        let mut exp = None;
        for _ in 0..builds.max(1) {
            drop(exp.take());
            let t = Instant::now();
            exp = Some(tracer.call("Experiment::new", 0, || {
                Experiment::new(&shape, ExperimentOptions::standard())
            }));
            new_s.push(t.elapsed().as_secs_f64());
        }
        let exp = exp.expect("at least one build");
        let mut env = Self {
            shape,
            exp,
            t4: None,
            t8: None,
            new_s,
            quantize_s: Vec::new(),
        };
        for &w in needs {
            let Some(name) = w.scheme() else { continue };
            if env.quantize_s.iter().any(|(k, _)| *k == w) {
                continue;
            }
            let mut times = Vec::new();
            let mut model = None;
            for _ in 0..builds.max(1) {
                drop(model.take());
                let scheme = scheme_by_name(name).expect("registry knows the Tender schemes");
                let t = Instant::now();
                model = Some(tracer.call("Experiment::quantize", 0, || env.exp.quantize(scheme)));
                times.push(t.elapsed().as_secs_f64());
            }
            match w {
                Weights::Tender4 => env.t4 = model,
                Weights::Tender8 => env.t8 = model,
                Weights::Fp32 => unreachable!("FP32 has no scheme"),
            }
            env.quantize_s.push((w, times));
        }
        env
    }

    /// The model a workload decodes with.
    pub fn model(&self, w: Weights) -> ModelRef<'_> {
        match w {
            Weights::Tender4 => self.t4.as_ref().expect("Tender@4 built").into(),
            Weights::Tender8 => self.t8.as_ref().expect("Tender@8 built").into(),
            Weights::Fp32 => self.exp.reference().into(),
        }
    }

    /// Build times of `w`'s `quantize` (empty for FP32).
    pub fn quantize_times(&self, w: Weights) -> &[f64] {
        self.quantize_s
            .iter()
            .find(|(k, _)| *k == w)
            .map_or(&[], |(_, t)| t)
    }
}

/// What one repetition produced, for the K2 determinism check.
#[derive(Debug, Clone, PartialEq)]
pub enum Output {
    /// Generated tokens per session.
    Tokens(Vec<Vec<usize>>),
    /// The scheduler's report, transcript included.
    Serve(Box<ServeReport>),
}

/// Measurements of one repetition.
#[derive(Debug, Clone)]
pub struct Rep {
    pub wall_s: f64,
    /// Prompt tokens ingested + tokens generated.
    pub tokens: u64,
    pub ttft_ms: Vec<f64>,
    pub itl_ms: Vec<f64>,
    /// Request latency samples: one per session (generate) or the run's
    /// p50 gauge (serve).
    pub req_ms: Vec<f64>,
    pub peak_kv_bytes: u64,
    /// Sessions or requests attempted, how many ended in an error, and how
    /// many the system refused or cut short by design (serve only).
    pub attempted: u64,
    pub errored: u64,
    pub refused: u64,
    pub output: Output,
    /// Serve-only extras read from the metrics bank after the run.
    pub prefill_tokens: u64,
    pub req_p99_ms: f64,
    /// KV memory reserved against memory in use: allocated over resident
    /// cache bytes while the last session is still live (generate), or the
    /// peak admission reservation over the peak resident bytes (serve).
    pub reserved_over_used: f64,
    /// Serve only: wall of each consecutive block of [`ITER_BLOCK`]
    /// scheduler iterations, from [`watch_iterations`] (the first block
    /// starts with the run, the last one ends with it).
    pub blocks_ms: Vec<f64>,
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Allocated over resident KV bytes across live caches, from the engine's
/// aggregate gauges.
fn allocated_over_resident() -> f64 {
    let resident = m::engine::KV_CACHE_BYTES.get();
    if resident == 0 {
        0.0
    } else {
        m::engine::KV_CACHE_ALLOCATED_BYTES.get() as f64 / resident as f64
    }
}

/// Inputs of the generate workloads, drawn from `--seed`.
pub fn generate_prompts(spec: &Spec, sizes: &Sizes, vocab: usize, seed: u64) -> Vec<Vec<usize>> {
    let (n, len) = match spec.name {
        "prefill_heavy" => (sizes.prefill_sessions, sizes.prefill_prompt),
        _ => (sizes.decode_sessions, sizes.decode_prompt),
    };
    token_batches(CorpusKind::Wiki, vocab, n, len, seed)
}

/// `prefill_heavy`: closed loop, one client; each session is
/// construction → `prefill` → first greedy token → `steps` decode steps,
/// on a private uncapped arena.
pub fn prefill_heavy_rep(
    env: &Env,
    spec: &Spec,
    sizes: &Sizes,
    prompts: &[Vec<usize>],
    tr: &mut Tracer,
) -> Rep {
    let model = env.model(spec.weights);
    let vocab = env.shape.vocab;
    let mut rep = empty_rep(Output::Tokens(Vec::new()));
    let start = Instant::now();
    for (i, prompt) in prompts.iter().enumerate() {
        let req = i as u32;
        let t0 = Instant::now();
        let mut out = Vec::with_capacity(sizes.prefill_steps + 1);
        tr.scope("session", req, |tr| {
            let mut s = DecodeSession::with_cache_mode(model, spec.kv);
            let logits = tr.call("DecodeSession::prefill", req, || s.prefill(prompt));
            let mut tok = greedy_token(&logits, logits.rows() - 1, s.len(), vocab);
            rep.ttft_ms.push(ms(t0));
            out.push(tok);
            for _ in 0..sizes.prefill_steps {
                let t1 = Instant::now();
                match tr.call("DecodeSession::step", req, || s.step(tok)) {
                    Ok(logits) => tok = greedy_token(&logits, 0, s.len(), vocab),
                    Err(_) => {
                        rep.errored += 1;
                        break;
                    }
                }
                rep.itl_ms.push(ms(t1));
                out.push(tok);
            }
            rep.reserved_over_used = allocated_over_resident();
        });
        rep.req_ms.push(ms(t0));
        rep.tokens += (prompt.len() + out.len()) as u64;
        rep.attempted += 1;
        if let Output::Tokens(all) = &mut rep.output {
            all.push(out);
        }
    }
    rep.wall_s = start.elapsed().as_secs_f64();
    rep.peak_kv_bytes = m::engine::KV_CACHE_PEAK_BYTES.get();
    rep
}

/// `decode_ctx`: one round of a `BatchEngine` with one session per prompt
/// on a shared uncapped deferred-demotion arena: `prefill_all`, then
/// `steps` lockstep `step_all` calls with greedy feedback.
pub fn decode_ctx_rep(
    env: &Env,
    spec: &Spec,
    sizes: &Sizes,
    prompts: &[Vec<usize>],
    tr: &mut Tracer,
) -> Rep {
    let model = env.model(spec.weights);
    let vocab = env.shape.vocab;
    let b = prompts.len();
    let mut rep = empty_rep(Output::Tokens(vec![Vec::new(); b]));
    let start = Instant::now();
    tr.scope("round", 0, |tr| {
        let arena = KvArena::new(ArenaConfig {
            deferred_demotion: true,
            ..ArenaConfig::default()
        });
        let sessions = (0..b)
            .map(|_| DecodeSession::with_arena(model, spec.kv, &arena))
            .collect();
        let mut engine = BatchEngine::new(sessions);
        rep.attempted = b as u64;
        let Output::Tokens(outs) = &mut rep.output else {
            unreachable!("generate output")
        };
        let mut toks: Vec<usize> = match tr.call("BatchEngine::prefill_all", 0, || {
            engine.prefill_all(prompts)
        }) {
            Ok(logits) => logits
                .iter()
                .zip(prompts)
                .map(|(l, p)| greedy_token(l, l.rows() - 1, p.len(), vocab))
                .collect(),
            Err(_) => {
                rep.errored = b as u64;
                return;
            }
        };
        rep.ttft_ms.push(ms(start));
        for (o, &t) in outs.iter_mut().zip(&toks) {
            o.push(t);
        }
        for i in 0..sizes.decode_steps {
            let t1 = Instant::now();
            match tr.call("BatchEngine::step_all", 0, || engine.step_all(&toks)) {
                Ok(logits) => {
                    let len = sizes.decode_prompt + i + 1;
                    toks = logits
                        .iter()
                        .map(|l| greedy_token(l, 0, len, vocab))
                        .collect();
                }
                Err(_) => {
                    rep.errored = b as u64;
                    return;
                }
            }
            rep.itl_ms.push(ms(t1));
            for (o, &t) in outs.iter_mut().zip(&toks) {
                o.push(t);
            }
        }
        rep.reserved_over_used = allocated_over_resident();
    });
    rep.req_ms.push(ms(start));
    rep.wall_s = start.elapsed().as_secs_f64();
    if let Output::Tokens(outs) = &rep.output {
        rep.tokens = prompts.iter().map(Vec::len).sum::<usize>() as u64
            + outs.iter().map(Vec::len).sum::<usize>() as u64;
    }
    rep.peak_kv_bytes = m::engine::KV_CACHE_PEAK_BYTES.get();
    rep
}

/// The scheduler configuration of a serve workload.
pub fn serve_config(
    spec: &Spec,
    sizes: &Sizes,
    shape: &ModelShape,
    traffic_seed: u64,
) -> ServeConfig {
    match spec.name {
        "serve_mixed" => ServeConfig {
            prompt_len: (16, 96),
            decode_len: (16, 64),
            max_arrival_gap: 24,
            max_batch: 4,
            prefill_chunk: 16,
            queue_cap: 32,
            deadline_steps: 100_000,
            kv_mode: spec.kv,
            ..ServeConfig::new(sizes.mixed_requests, traffic_seed)
        },
        _ => {
            let arena = 24 * kv_page_bytes(shape, spec.kv, 16);
            ServeConfig {
                prompt_len: (8, 48),
                decode_len: (32, 96),
                max_arrival_gap: 12,
                max_batch: 8,
                queue_cap: 24,
                deadline_steps: 600,
                shared_prefix: 64,
                kv_mode: spec.kv,
                kv_arena_bytes: arena,
                kv_watermark: 0.5,
                kv_budget_bytes: 2 * arena,
                ..ServeConfig::new(sizes.pressure_requests, traffic_seed)
            }
        }
    }
}

/// Tokens cached ahead of every request's own prompt (the scheduler's
/// clamp of `shared_prefix`).
fn prefix_len(cfg: &ServeConfig, shape: &ModelShape) -> usize {
    if cfg.shared_prefix == 0 {
        0
    } else {
        cfg.shared_prefix
            .min(shape.max_seq.saturating_sub(2))
            .max(1)
    }
}

/// Requests the system refused or cut short by design: rejected at
/// admission, expired, or `Done { truncated }` short of the context window
/// — i.e. truncated at the KV budget, told apart from window truncation by
/// recomputing each request's window from the traffic generator.
pub fn refused_requests(cfg: &ServeConfig, shape: &ModelShape, report: &ServeReport) -> u64 {
    let traffic = synthetic_traffic(cfg, shape);
    let prefix = prefix_len(cfg, shape);
    let budget_truncated = report
        .outcomes
        .iter()
        .filter(|o: &&RequestOutcome| match o.status {
            TerminalStatus::Done {
                tokens,
                truncated: true,
            } => {
                let window_tokens = shape.max_seq + 1 - (prefix + traffic[o.id].prompt.len());
                tokens < window_tokens
            }
            _ => false,
        })
        .count() as u64;
    report.rejected_queue + report.rejected_kv + report.expired + budget_truncated
}

/// Scheduler iterations per timed block of a serve repetition.
pub const ITER_BLOCK: u64 = 8;
/// How often [`watch_iterations`] looks at the counter.
const WATCH_EVERY: Duration = Duration::from_micros(500);

/// Watches the public `serve::ITERATIONS` counter from a second thread
/// while `Scheduler::run` runs on the caller's, until `done`: for iteration
/// 0, [`ITER_BLOCK`], 2 × [`ITER_BLOCK`], … the last time (ms since `start`)
/// the counter was seen short of it and the first time it was seen at or
/// past it. The iteration began between the two. The watcher sleeps between
/// looks, so it costs the run two thousand wake-ups a second on the other
/// core.
fn watch_iterations(done: &AtomicBool, start: Instant) -> Vec<(f64, f64)> {
    let mut marks: Vec<(f64, f64)> = Vec::with_capacity(1 << 10);
    let mut short_of_next = 0.0;
    loop {
        // Pairs with the Release store after `Scheduler::run` returns: the
        // look that sees `done` also sees the run's last iteration.
        let last_look = done.load(Ordering::Acquire);
        let now = ms(start);
        let iterations = m::serve::ITERATIONS.get();
        while iterations > marks.len() as u64 * ITER_BLOCK {
            marks.push((short_of_next, now));
        }
        short_of_next = now;
        if last_look {
            return marks;
        }
        std::thread::sleep(WATCH_EVERY);
    }
}

/// Wall of the run's set-up (everything before iteration 0) and of each
/// block of [`ITER_BLOCK`] iterations after it, the last one running to the
/// end of the run. None is understated: a block is taken from the last look
/// before its first iteration to the first look after its last, so a
/// watcher that was held up lengthens the blocks around the hold-up and
/// shortens none.
fn block_walls(marks: &[(f64, f64)], wall_ms: f64) -> Vec<f64> {
    let starts = std::iter::once(0.0).chain(marks.iter().map(|m| m.0));
    let ends = marks.iter().map(|m| m.1).chain(std::iter::once(wall_ms));
    starts.zip(ends).map(|(a, b)| b - a).collect()
}

/// One `Scheduler::run` over `cfg`.
pub fn serve_rep(env: &Env, spec: &Spec, cfg: &ServeConfig, tr: &mut Tracer) -> Rep {
    let model = env.model(spec.weights);
    let done = AtomicBool::new(false);
    let start = Instant::now();
    let (report, wall_s, marks) = std::thread::scope(|scope| {
        let watcher = scope.spawn(|| watch_iterations(&done, start));
        let report = tr.call("Scheduler::run", 0, || {
            Scheduler::new(model, cfg.clone()).run()
        });
        let wall_s = start.elapsed().as_secs_f64();
        done.store(true, Ordering::Release);
        let marks = watcher.join().expect("the watcher only reads a counter");
        (report, wall_s, marks)
    });
    let prefill_tokens = m::serve::PREFILL_CHUNK_TOKENS.get();
    let mut rep = empty_rep(Output::Tokens(Vec::new()));
    rep.wall_s = wall_s;
    rep.blocks_ms = block_walls(&marks, wall_s * 1e3);
    rep.tokens = prefill_tokens + report.decode_tokens;
    rep.req_ms = vec![m::serve::LATENCY_P50_NS.get() as f64 / 1e6];
    rep.req_p99_ms = m::serve::LATENCY_P99_NS.get() as f64 / 1e6;
    rep.prefill_tokens = prefill_tokens;
    rep.peak_kv_bytes = m::engine::KV_CACHE_PEAK_BYTES.get();
    rep.attempted = cfg.requests as u64;
    rep.errored = report.failed + report.unresolved;
    rep.refused = refused_requests(cfg, &env.shape, &report);
    if rep.peak_kv_bytes > 0 {
        rep.reserved_over_used = report.kv_reserved_peak as f64 / rep.peak_kv_bytes as f64;
    }
    rep.output = Output::Serve(Box::new(report));
    rep
}

/// A lone request through the real scheduler: the workload's
/// configuration with one request whose prompt is the middle of the
/// workload's range and which asks for `decode` tokens. With `decode == 1`
/// the request completes on its first token, so the run's wall time is the
/// time to first token of an otherwise idle server (arena set-up,
/// shared-prefix prefill and fork, chunked prompt ingestion).
fn lone_request_ms(
    env: &Env,
    spec: &Spec,
    base: &ServeConfig,
    seed: u64,
    decode: usize,
    tr: &mut Tracer,
) -> Option<f64> {
    let mid = (base.prompt_len.0 + base.prompt_len.1) / 2;
    let cfg = ServeConfig {
        requests: 1,
        arrival_seed: seed,
        prompt_len: (mid, mid),
        decode_len: (decode, decode),
        ..base.clone()
    };
    let model = env.model(spec.weights);
    let t0 = Instant::now();
    let report = tr.call("Scheduler::run(lone)", decode as u32, || {
        Scheduler::new(model, cfg).run()
    });
    let wall = ms(t0);
    (report.completed == 1 && report.decode_tokens == decode as u64).then_some(wall)
}

/// Walls of two lone requests: one that completes on its first token (the
/// time to first token of an idle server) and one that asks for
/// [`probe_extra_tokens`] more. Their difference per extra token is the
/// inter-token gap. `None` if either request did not complete.
pub fn serve_probe(
    env: &Env,
    spec: &Spec,
    base: &ServeConfig,
    seed: u64,
    tr: &mut Tracer,
) -> Option<(f64, f64)> {
    let first = lone_request_ms(env, spec, base, seed, 1, tr)?;
    let long = lone_request_ms(env, spec, base, seed, 1 + probe_extra_tokens(base), tr)?;
    Some((first, long))
}

/// Tokens the long lone request decodes beyond the first: as many as the
/// workload's longest request.
pub fn probe_extra_tokens(base: &ServeConfig) -> usize {
    base.decode_len.1
}

fn empty_rep(output: Output) -> Rep {
    Rep {
        wall_s: 0.0,
        tokens: 0,
        ttft_ms: Vec::new(),
        itl_ms: Vec::new(),
        req_ms: Vec::new(),
        peak_kv_bytes: 0,
        attempted: 0,
        errored: 0,
        refused: 0,
        output,
        prefill_tokens: 0,
        req_p99_ms: 0.0,
        reserved_over_used: 0.0,
        blocks_ms: Vec::new(),
    }
}
