//! Per-layer probes: timed calls from the benchmark into each layer's
//! public functions at the workloads' shapes, and a decode step re-enacted
//! phase by phase from public functions.
//!
//! Everything here runs in the traced pass only and is informational —
//! no probe has a regression bound. A time is the median of `micro` calls
//! (µs-scale) or `milli` calls (ms-scale); MACs are *computed* from tensor
//! sizes.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

use tender::model::calibration::{token_batches, CorpusKind};
use tender::model::engine::{demote_payload, drain_demotions, KvCache};
use tender::model::{
    greedy_token, ArenaConfig, BatchEngine, DecodeSession, KvArena, KvCacheMode, Site, SyntheticLlm,
};
use tender::quant::QuantMatmul;
use tender::scheme_by_name;
use tender::serve::kv_page_bytes;
use tender::tensor::rng::DetRng;
use tender::tensor::{ops, IMatrix, Matrix, PagePayload};

use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{Env, Sizes, Weights};

/// Values of the probe-backed per-layer metrics, by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// How many calls a probe's median is taken over.
#[derive(Debug, Clone, Copy)]
pub struct Calls {
    /// µs-scale calls.
    pub micro: usize,
    /// ms-scale calls.
    pub milli: usize,
}

impl Calls {
    pub fn full() -> Self {
        Self {
            micro: 200,
            milli: 20,
        }
    }

    pub fn smoke() -> Self {
        Self {
            micro: 20,
            milli: 2,
        }
    }
}

/// Median wall time of `n` calls of `f`, in microseconds.
fn median_us(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let samples: Vec<f64> = (0..n.max(1))
        .map(|i| {
            let t = Instant::now();
            f(i);
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// Runs every probe. `env` must hold both Tender models.
pub fn run(env: &Env, sizes: &Sizes, calls: Calls, threads: usize, tr: &mut Tracer) -> Values {
    let mut v = Values::new();
    tr.scope("probe:core.setup", 0, |_| setup(env, &mut v));
    tr.scope("probe:tensor.gemm", 0, |_| gemm(env, sizes, calls, &mut v));
    tr.scope("probe:tensor.pool", 0, |_| pool(calls, threads, &mut v));
    let captured = tr.call("probe:core.setup.capture", 0, || {
        let t = Instant::now();
        let c = env
            .exp
            .reference()
            .capture_site_activations(env.exp.calibration_batches());
        v.insert("core.setup.capture_s", t.elapsed().as_secs_f64());
        c
    });
    tr.scope("probe:quant.tender", 0, |_| {
        tender_site(env, sizes, calls, &captured, &mut v)
    });
    tr.scope("probe:model.step", 0, |tr| {
        replay(env, calls, &captured, &mut v, tr)
    });
    tr.scope("probe:model.engine", 0, |_| {
        engine(env, sizes, calls, &mut v)
    });
    tr.scope("probe:model.kv", 0, |_| kv(env, calls, &mut v));
    tr.scope("probe:model.batch", 0, |_| {
        batch(env, sizes, calls, threads, &mut v)
    });
    v
}

/// `core.setup.*`: model generation re-timed through the public
/// constructor `Experiment::new` calls; `quantize` from the env's builds.
fn setup(env: &Env, v: &mut Values) {
    let t = Instant::now();
    black_box(SyntheticLlm::generate(&env.shape, env.exp.options().seed));
    v.insert("core.setup.model_gen_s", t.elapsed().as_secs_f64());
    let quantize: Vec<f64> = env
        .quantize_s
        .iter()
        .flat_map(|(_, t)| t.iter().copied())
        .collect();
    v.insert("core.setup.quantize_s", median(&quantize));
}

/// `tensor.gemm.*`: `Matrix::matmul` / `IMatrix::matmul` at the FC1 shape
/// (k = d_model, n = ffn_dim), M = 1 (decode) and M = prompt (prefill).
fn gemm(env: &Env, sizes: &Sizes, calls: Calls, v: &mut Values) {
    let (k, n, m) = (env.shape.d_model, env.shape.ffn_dim, sizes.prefill_prompt);
    let mut rng = DetRng::new(0x6e33);
    let w = rng.normal_matrix(k, n, 0.0, 0.05);
    let x1 = rng.normal_matrix(1, k, 0.0, 1.0);
    let xm = rng.normal_matrix(m, k, 0.0, 1.0);
    let iw = IMatrix::from_fn(k, n, |_, _| rng.below(15) as i32 - 7);
    let ix1 = IMatrix::from_fn(1, k, |_, _| rng.below(255) as i32 - 127);
    let ixm = IMatrix::from_fn(m, k, |_, _| rng.below(255) as i32 - 127);
    let f32_m1 = median_us(calls.micro, |_| {
        black_box(black_box(&x1).matmul(&w).expect("shapes agree"));
    });
    let f32_m = median_us(calls.milli, |_| {
        black_box(black_box(&xm).matmul(&w).expect("shapes agree"));
    });
    let i32_m1 = median_us(calls.micro, |_| {
        black_box(black_box(&ix1).matmul(&iw).expect("shapes agree"));
    });
    let i32_m = median_us(calls.milli, |_| {
        black_box(black_box(&ixm).matmul(&iw).expect("shapes agree"));
    });
    let macs = (m * k * n) as f64;
    v.insert("tensor.gemm.f32_m1_us", f32_m1);
    v.insert("tensor.gemm.f32_m160_us", f32_m);
    v.insert("tensor.gemm.i32_m1_us", i32_m1);
    v.insert("tensor.gemm.i32_m160_us", i32_m);
    // MACs per ns == GMAC/s; MACs computed from the operand shapes.
    v.insert("tensor.gemm.f32_m160_gmacs", macs / (f32_m * 1e3));
    v.insert("tensor.gemm.i32_m160_gmacs", macs / (i32_m * 1e3));
}

/// `tensor.pool.dispatch_us`: round trip of a `par_map` with one trivial
/// item per thread.
fn pool(calls: Calls, threads: usize, v: &mut Values) {
    let us = median_us(calls.micro, |_| {
        black_box(tender::pool::par_map(threads, black_box));
    });
    v.insert("tensor.pool.dispatch_us", us);
}

type Captured = HashMap<(usize, Site), Vec<Matrix>>;

/// `quant.tender.*`: `Scheme::prepare` and `QuantMatmul::forward_at` on
/// layer 0's FC1 site, calibrated on the reference model's captured
/// activations — M = 1 under Tender@8 (`decode_ctx`'s scheme), M = prompt
/// under Tender@4 (`prefill_heavy`'s).
fn tender_site(env: &Env, sizes: &Sizes, calls: Calls, captured: &Captured, v: &mut Values) {
    let acts = &captured[&(0, Site::Fc1)];
    let w = &env.exp.model().weights().layers[0].w_fc1;
    let t8 = scheme_by_name("Tender@8").expect("registry scheme");
    let t4 = scheme_by_name("Tender@4").expect("registry scheme");
    let prepare_us = median_us(calls.milli.min(5), |_| {
        black_box(t8.prepare(acts, w));
    });
    v.insert("quant.tender.prepare_ms", prepare_us / 1e3);
    let op8 = t8.prepare(acts, w);
    let op4 = t4.prepare(acts, w);
    let mut rows = acts[0].clone();
    for a in &acts[1..] {
        if rows.rows() >= sizes.prefill_prompt {
            break;
        }
        rows = rows.vstack(a).expect("same width");
    }
    let xm = rows.slice_rows(0, sizes.prefill_prompt.min(rows.rows()));
    let x1 = rows.slice_rows(0, 1);
    let m1 = median_us(calls.micro, |_| {
        black_box(op8.forward_at(black_box(&x1), 224));
    });
    let mm = median_us(calls.milli, |_| {
        black_box(op4.forward_at(black_box(&xm), 0));
    });
    v.insert("quant.tender.fwd_m1_us", m1);
    v.insert("quant.tender.fwd_m160_ms", mm / 1e3);
}

/// Phases of the replayed decode step, in report order: the per-layer
/// metric each feeds and the name of its span.
const PHASES: [(&str, &str); 9] = [
    ("model.step.norm_us", "replay:norm"),
    ("model.step.qkv_us", "replay:qkv"),
    ("model.step.kv_append_us", "replay:kv_append"),
    ("model.step.score_us", "replay:score"),
    ("model.step.softmax_us", "replay:softmax"),
    ("model.step.value_us", "replay:value"),
    ("model.step.out_proj_us", "replay:out_proj"),
    ("model.step.ffn_us", "replay:ffn"),
    ("model.step.lm_head_us", "replay:lm_head"),
];

/// One decode step rebuilt from public functions, charging each call to a
/// phase: `ops::{layer_norm, softmax_rows, relu}`, per-site `forward_at`,
/// `KvCache::{append, attn_scores_quant, attn_values_quant}` and
/// `Matrix::matmul` for the LM head — the same calls, in the same order,
/// as `DecodeSession::step` makes for this model family (LayerNorm, ReLU,
/// ungated FFN, integer KV read path).
struct Replay<'a> {
    env: &'a Env,
    ops: HashMap<(usize, Site), Box<dyn QuantMatmul>>,
    emb_t: Matrix,
    cache: KvCache,
}

impl Replay<'_> {
    fn step(&mut self, token: usize, tr: &mut Tracer, acc: &mut [f64; 9]) -> Matrix {
        let w = self.env.exp.model().weights();
        let shape = &w.shape;
        let pos = self.cache.len();
        let dh = shape.head_dim();
        let scale = 1.0 / (dh as f32).sqrt();
        let req = pos as u32;
        let mut phase = |i: usize, tr: &mut Tracer, f: &mut dyn FnMut()| {
            let t = Instant::now();
            tr.call(PHASES[i].1, req, f);
            acc[i] += t.elapsed().as_secs_f64() * 1e6;
        };
        let op = |li: usize, site: Site| &self.ops[&(li, site)];

        let mut h = Matrix::zeros(0, 0);
        phase(0, tr, &mut || {
            h = Matrix::from_fn(1, shape.d_model, |_, c| {
                w.tok_emb[(token, c)] + w.pos_emb[(pos, c)]
            });
        });
        for (li, layer) in w.layers.iter().enumerate() {
            let mut a = Matrix::zeros(0, 0);
            phase(0, tr, &mut || {
                a = ops::layer_norm(&h, &layer.ln1_gamma, &layer.ln1_beta, 1e-5);
            });
            let (mut q, mut k, mut val) = (
                Matrix::zeros(0, 0),
                Matrix::zeros(0, 0),
                Matrix::zeros(0, 0),
            );
            phase(1, tr, &mut || {
                q = op(li, Site::Q).forward_at(&a, pos);
                k = op(li, Site::K).forward_at(&a, pos);
                val = op(li, Site::V).forward_at(&a, pos);
            });
            let cache = &mut self.cache;
            phase(2, tr, &mut || {
                cache.append(li, &k, &val).expect("uncapped arena");
            });
            let cache = &self.cache;
            let mut ao = Matrix::zeros(1, shape.d_model);
            for head in 0..shape.heads {
                let (c0, c1) = (head * dh, (head + 1) * dh);
                let mut scores = Matrix::zeros(0, 0);
                phase(3, tr, &mut || {
                    let qh = q.slice_cols(c0, c1).scale(scale);
                    scores = cache
                        .attn_scores_quant(li, head, qh.row(0))
                        .expect("quantized cache on the integer read path");
                });
                let mut probs = Matrix::zeros(0, 0);
                phase(4, tr, &mut || probs = ops::softmax_rows(&scores));
                phase(5, tr, &mut || {
                    let attn = cache
                        .attn_values_quant(li, head, probs.row(0))
                        .expect("quantized cache on the integer read path");
                    ao.row_mut(0)[c0..c1].copy_from_slice(attn.row(0));
                });
            }
            phase(6, tr, &mut || {
                let o = op(li, Site::O).forward_at(&ao, pos);
                h = h.add(&o).expect("residual shapes");
            });
            let mut b = Matrix::zeros(0, 0);
            phase(0, tr, &mut || {
                b = ops::layer_norm(&h, &layer.ln2_gamma, &layer.ln2_beta, 1e-5);
            });
            phase(7, tr, &mut || {
                let f = ops::relu(&op(li, Site::Fc1).forward_at(&b, pos));
                let out = op(li, Site::Fc2).forward_at(&f, pos);
                h = h.add(&out).expect("residual shapes");
            });
        }
        let mut hidden = Matrix::zeros(0, 0);
        phase(0, tr, &mut || {
            hidden = ops::layer_norm(&h, &w.final_gamma, &w.final_beta, 1e-5);
        });
        let mut logits = Matrix::zeros(0, 0);
        phase(8, tr, &mut || {
            // `pipeline::LOGIT_SCALE` is crate-private; 2.5 is its value.
            let s = 2.5 / (shape.d_model as f32).sqrt();
            logits = hidden.matmul(&self.emb_t).expect("LM head shape").scale(s);
        });
        logits
    }
}

/// `model.step.*` and `model.engine.step_us_ctx224`: interleaves a real
/// `DecodeSession::step` with the replay of the same step on a
/// copy-on-write clone of the same cache, under `decode_ctx`'s scheme and
/// KV mode, starting at context 225 (one row into a fresh page, so no
/// replayed append opens a page more often than a real one would).
fn replay(env: &Env, calls: Calls, captured: &Captured, v: &mut Values, tr: &mut Tracer) {
    let shape = &env.shape;
    let vocab = shape.vocab;
    let w = env.exp.model().weights();
    let scheme = scheme_by_name("Tender@8").expect("registry scheme");
    let mut ops = HashMap::new();
    for (li, layer) in w.layers.iter().enumerate() {
        for (site, weight) in [
            (Site::Q, &layer.wq),
            (Site::K, &layer.wk),
            (Site::V, &layer.wv),
            (Site::O, &layer.wo),
            (Site::Fc1, &layer.w_fc1),
            (Site::Fc2, &layer.w_fc2),
        ] {
            let op = scheme
                .try_prepare(&captured[&(li, site)], weight)
                .expect("healthy calibration");
            ops.insert((li, site), op);
        }
    }
    let steps = calls.milli.min(shape.max_seq - 226);
    let start = shape.max_seq - 31;
    let prompt = token_batches(CorpusKind::Wiki, vocab, 1, start, 0x5e7).remove(0);
    let model = env.model(Weights::Tender8);
    let mut real = DecodeSession::with_cache_mode(model, KvCacheMode::Int4);
    let logits = real.prefill(&prompt);
    let mut tok = greedy_token(&logits, start - 1, start, vocab);
    // A second, identical prefill gives the replay its own exclusive pages.
    let cache = {
        let mut twin = DecodeSession::with_cache_mode(model, KvCacheMode::Int4);
        twin.prefill(&prompt);
        twin.cache().clone()
    };
    let mut rp = Replay {
        env,
        ops,
        emb_t: w.lm_head.transpose(),
        cache,
    };
    let mut measured = Vec::with_capacity(steps);
    let mut sums = Vec::with_capacity(steps);
    let mut per_phase: [Vec<f64>; 9] = Default::default();
    let mut exact = true;
    for _ in 0..steps {
        let t = Instant::now();
        let real_logits = tr
            .call("DecodeSession::step", real.len() as u32, || real.step(tok))
            .expect("inside the context window");
        measured.push(t.elapsed().as_secs_f64() * 1e6);
        let mut acc = [0.0f64; 9];
        let replay_logits = tr.scope("replay:step", rp.cache.len() as u32, |tr| {
            rp.step(tok, tr, &mut acc)
        });
        exact &= replay_logits == real_logits;
        sums.push(acc.iter().sum::<f64>());
        for (samples, a) in per_phase.iter_mut().zip(acc) {
            samples.push(a);
        }
        tok = greedy_token(&real_logits, 0, real.len(), vocab);
    }
    for ((name, _), samples) in PHASES.iter().zip(&per_phase) {
        v.insert(name, median(samples));
    }
    let (sum, real_us) = (median(&sums), median(&measured));
    v.insert("model.step.replay_sum_us", sum);
    v.insert("model.step.measured_us", real_us);
    v.insert("model.step.coverage", sum / real_us);
    v.insert("model.step.replay_exact", f64::from(u8::from(exact)));
    v.insert("model.step.macs", real.last_step_macs() as f64);
    v.insert(
        "model.step.kv_int_macs",
        real.last_step_kv_int_macs() as f64,
    );
    v.insert("model.engine.step_us_ctx224", real_us);
}

/// `model.engine.*`: whole-call timings of `prefill` (per prompt token,
/// `prefill_heavy`'s configuration) and `step` at a short context
/// (`decode_ctx`'s configuration).
fn engine(env: &Env, sizes: &Sizes, calls: Calls, v: &mut Values) {
    let vocab = env.shape.vocab;
    let prompt = token_batches(CorpusKind::Wiki, vocab, 1, sizes.prefill_prompt, 0xe61).remove(0);
    let t4 = env.model(Weights::Tender4);
    let prefill_us = median_us(calls.milli.min(6), |_| {
        let mut s = DecodeSession::with_cache_mode(t4, KvCacheMode::Int8);
        black_box(s.prefill(&prompt));
    });
    v.insert(
        "model.engine.prefill_ms_per_tok",
        prefill_us / 1e3 / prompt.len() as f64,
    );

    let ctx = 64.min(env.shape.max_seq / 2);
    let short = token_batches(CorpusKind::Wiki, vocab, 1, ctx, 0xe62).remove(0);
    let mut s = DecodeSession::with_cache_mode(env.model(Weights::Tender8), KvCacheMode::Int4);
    let logits = s.prefill(&short);
    let mut tok = greedy_token(&logits, ctx - 1, ctx, vocab);
    let step_us = median_us(calls.milli, |_| {
        let logits = s.step(tok).expect("inside the context window");
        tok = greedy_token(&logits, 0, s.len(), vocab);
    });
    v.insert("model.engine.step_us_ctx64", step_us);
}

/// `model.kv.*`: the cache's public entry points per storage mode at
/// context 224, page demotion, a boundary drain of a pre-queued arena, and
/// a copy-on-write fork of a 64-token template.
fn kv(env: &Env, calls: Calls, v: &mut Values) {
    let shape = &env.shape;
    let (d, dh, layers) = (shape.d_model, shape.head_dim(), shape.layers);
    let mut rng = DetRng::new(0x6b76);
    let rows: Vec<(Matrix, Matrix)> = (0..16)
        .map(|_| {
            (
                rng.normal_matrix(1, d, 0.0, 1.0),
                rng.normal_matrix(1, d, 0.0, 1.0),
            )
        })
        .collect();
    for (mode, name) in [
        (KvCacheMode::F32, "model.kv.append_us_f32"),
        (KvCacheMode::Int8, "model.kv.append_us_int8"),
        (KvCacheMode::Int4, "model.kv.append_us_int4"),
    ] {
        let mut cache = KvCache::with_mode(shape, mode);
        let us = median_us(calls.micro, |i| {
            let (k, val) = &rows[i % rows.len()];
            cache.append(i % layers, k, val).expect("uncapped arena");
        });
        v.insert(name, us);
    }

    let ctx = 224.min(shape.max_seq - 32);
    let q: Vec<f32> = (0..dh).map(|_| rng.normal(0.0, 1.0)).collect();
    let probs = ops::softmax_rows(&rng.normal_matrix(1, ctx, 0.0, 1.0));
    for (mode, score, value) in [
        (
            KvCacheMode::Int8,
            "model.kv.score_us_int8",
            "model.kv.value_us_int8",
        ),
        (
            KvCacheMode::Int4,
            "model.kv.score_us_int4",
            "model.kv.value_us_int4",
        ),
    ] {
        let mut cache = KvCache::with_mode(shape, mode);
        let k = rng.normal_matrix(ctx, d, 0.0, 1.0);
        let val = rng.normal_matrix(ctx, d, 0.0, 1.0);
        cache.append(0, &k, &val).expect("uncapped arena");
        let us = median_us(calls.micro, |i| {
            black_box(cache.attn_scores_quant(0, i % shape.heads, black_box(&q)));
        });
        v.insert(score, us);
        let us = median_us(calls.micro, |i| {
            black_box(cache.attn_values_quant(0, i % shape.heads, black_box(probs.row(0))));
        });
        v.insert(value, us);
    }

    let page_rows = 16;
    let f32_page = PagePayload::F32(rng.normal_matrix(page_rows, dh, 0.0, 1.0));
    let int8_page = demote_payload(&f32_page, KvCacheMode::Int8);
    let us = median_us(calls.micro, |_| {
        black_box(demote_payload(black_box(&f32_page), KvCacheMode::Int8));
    });
    v.insert("model.kv.demote_page_us_f32_int8", us);
    let us = median_us(calls.micro, |_| {
        black_box(demote_payload(black_box(&int8_page), KvCacheMode::Int4));
    });
    v.insert("model.kv.demote_page_us_int8_int4", us);

    // Drain: fill an f32 cache to four sealed pages per plane under a cap
    // it sits 60 % into, so every sealed page is queued and the watermark
    // (0.5) is exceeded; then time one boundary drain.
    let filled = 4 * kv_page_bytes(shape, KvCacheMode::F32, page_rows);
    let block_k = rng.normal_matrix(4 * page_rows, d, 0.0, 1.0);
    let block_v = rng.normal_matrix(4 * page_rows, d, 0.0, 1.0);
    let mut drain_ms = Vec::new();
    let mut rate = Vec::new();
    for _ in 0..calls.milli.min(5) {
        let arena = KvArena::new(ArenaConfig {
            capacity_bytes: Some(filled * 5 / 3),
            watermark: 0.5,
            deferred_demotion: true,
            ..ArenaConfig::default()
        });
        let mut cache = KvCache::with_arena(shape, KvCacheMode::F32, &arena);
        for li in 0..layers {
            cache.append(li, &block_k, &block_v).expect("under the cap");
        }
        arena.advance_clock();
        let t = Instant::now();
        let stats = drain_demotions(&arena, 0);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        drain_ms.push(ms);
        rate.push(stats.demoted as f64 / ms);
    }
    v.insert("model.kv.drain_ms", median(&drain_ms));
    v.insert("model.kv.drain_pages_per_ms", median(&rate));

    let arena = KvArena::new(ArenaConfig::default());
    let mut template = DecodeSession::with_arena(env.exp.reference(), KvCacheMode::F32, &arena);
    let prefix = token_batches(
        CorpusKind::Wiki,
        shape.vocab,
        1,
        64.min(shape.max_seq / 2),
        0xf04,
    )
    .remove(0);
    template.prefill(&prefix);
    let mut forks = Vec::with_capacity(calls.micro);
    let us = median_us(calls.micro, |_| forks.push(template.fork()));
    v.insert("model.kv.fork_us", us);
}

/// `model.batch.*`: one `step_all` at batch 1, 2 and 4 (`decode_ctx`'s
/// configuration, short context), and how close batch 2 on up to two threads
/// comes to the time of batch 1.
fn batch(env: &Env, sizes: &Sizes, calls: Calls, threads: usize, v: &mut Values) {
    let vocab = env.shape.vocab;
    let model = env.model(Weights::Tender8);
    let mut times = [0.0f64; 3];
    for (slot, (b, name)) in [
        (1, "model.batch.step_all_us_b1"),
        (2, "model.batch.step_all_us_b2"),
        (4, "model.batch.step_all_us_b4"),
    ]
    .into_iter()
    .enumerate()
    {
        let prompts = token_batches(CorpusKind::Wiki, vocab, b, sizes.decode_prompt, 0xba7c);
        let arena = KvArena::new(ArenaConfig {
            deferred_demotion: true,
            ..ArenaConfig::default()
        });
        let sessions = (0..b)
            .map(|_| DecodeSession::with_arena(model, KvCacheMode::Int4, &arena))
            .collect();
        let mut engine = BatchEngine::new(sessions);
        let logits = engine
            .prefill_all(&prompts)
            .expect("one prompt per session");
        let mut toks: Vec<usize> = logits
            .iter()
            .map(|l| greedy_token(l, l.rows() - 1, sizes.decode_prompt, vocab))
            .collect();
        times[slot] = median_us(calls.milli, |i| {
            let logits = engine.step_all(&toks).expect("inside the context window");
            toks = logits
                .iter()
                .map(|l| greedy_token(l, 0, sizes.decode_prompt + i + 1, vocab))
                .collect();
        });
        v.insert(name, times[slot]);
    }
    let lanes = threads.min(2) as f64;
    v.insert(
        "model.batch.parallel_efficiency",
        2.0 * times[0] / (lanes * times[1]),
    );
}
