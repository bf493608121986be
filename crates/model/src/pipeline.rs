//! The shared layer pipeline behind both inference paths.
//!
//! [`block`] is the one Transformer block, over `rows ≥ 1` hidden rows
//! starting at an absolute position. Its attention reads from one of two
//! sources ([`Attend`]): the call's own fresh K/V — [`forward_internal`],
//! the full-sequence pass behind [`crate::ReferenceModel::forward`],
//! [`crate::QuantizedModel::forward`], calibration capture and
//! [`crate::engine::DecodeSession::prefill`] — or the KV cache, row by row
//! — [`crate::engine::DecodeSession::extend`] and `step`, its one-token
//! case. Everything else (norms, projections, the FFN match, residuals,
//! MAC counting) exists once, so the cached path cannot drift from the
//! reference semantics.
//!
//! **Parity invariant.** Every op in the pipeline is per-row independent
//! with a fixed accumulation order: embeddings and norms are row-local,
//! weight matmuls accumulate over `k` in ascending order per row, the
//! causal softmax ([`ops::causal_softmax_rows`]) reduces row `r` over its
//! live columns `0..=r` in order — the masked columns would only add exact
//! `+0.0` terms after them — and `probs × V` skips exact zeros. Decoding
//! position `p` against a KV cache of length `p` therefore reproduces row
//! `p` of the full-sequence pass bit-for-bit, provided row-chunked schemes
//! are asked for the chunk covering absolute row `p` — which is what
//! [`Exec::mm_at`] forwards via `QuantMatmul::forward_at`. The same
//! independence makes the cached path indifferent to how a token run is
//! cut into calls: `rows` tokens in one [`block`] call per layer leave the
//! cache and the hidden rows exactly as `rows` one-token calls do.

use std::collections::HashMap;

use tender_metrics::model as metrics;
use tender_quant::scheme::{QuantMatmul, Scheme};
use tender_tensor::{ops, EvictError, Matrix};

use crate::forward::Site;
use crate::kv::KvCache;
use crate::shape::{Activation, ModelKind, NormKind};
use crate::weights::{LayerWeights, TransformerWeights};

pub(crate) type SiteKey = (usize, Site);
pub(crate) type CaptureMap = HashMap<SiteKey, Vec<Matrix>>;

/// LM-head logit gain. With a random (untied) head, logits ≈ N(0, σ²) with
/// σ ≈ `LOGIT_SCALE`; the value is chosen so the reference model's proxy
/// perplexity sits far below vocabulary size (a confidently-predicting
/// model, like a trained LLM) while leaving orders of magnitude of headroom
/// for catastrophically quantized models to degrade into.
pub(crate) const LOGIT_SCALE: f32 = 2.5;

/// How matmul sites execute: exact reference, or calibrated operators.
pub(crate) enum Exec<'a> {
    /// Exact `f32` matmuls everywhere.
    Reference,
    /// Calibrated per-site operators plus the scheme's act×act rule.
    Quantized {
        /// One calibrated operator per (layer, site).
        ops: &'a HashMap<SiteKey, Box<dyn QuantMatmul>>,
        /// The scheme, for activation×activation products.
        scheme: &'a dyn Scheme,
    },
}

impl Exec<'_> {
    /// The weight matmul at `(li, site)` for activation rows whose first
    /// row sits at absolute sequence position `row0` (`forward_at(x, 0)` is
    /// `forward(x)` bit for bit, by `QuantMatmul`'s contract).
    pub(crate) fn mm_at(
        &self,
        li: usize,
        site: Site,
        x: &Matrix,
        weight: &Matrix,
        row0: usize,
    ) -> Matrix {
        match self {
            Exec::Reference => x.matmul(weight).expect("weight shapes validated"),
            Exec::Quantized { ops, .. } => ops
                .get(&(li, site))
                .unwrap_or_else(|| panic!("missing operator for layer {li} site {site:?}"))
                .forward_at(x, row0),
        }
    }

    /// Activation×activation product (`X_Q × X_K^T`, `X_S × X_V`).
    pub(crate) fn act_act(&self, a: &Matrix, b: &Matrix) -> Matrix {
        match self {
            Exec::Reference => a.matmul(b).expect("attention shapes"),
            Exec::Quantized { scheme, .. } => scheme.act_act_matmul(a, b),
        }
    }

    /// Whether [`Exec::act_act`] is the plain f32 matmul (the scheme does
    /// not quantize activation×activation products). When true, the
    /// transpose-free [`ops::row_dot_nt`] may substitute for
    /// `act_act(q, kᵀ)` bit-for-bit.
    pub(crate) fn act_act_is_exact(&self) -> bool {
        match self {
            Exec::Reference => true,
            Exec::Quantized { scheme, .. } => !scheme.quantizes_act_act(),
        }
    }
}

pub(crate) fn apply_norm(x: &Matrix, gamma: &[f32], beta: &[f32], norm: NormKind) -> Matrix {
    match norm {
        NormKind::LayerNorm => ops::layer_norm(x, gamma, beta, 1e-5),
        NormKind::RmsNorm => ops::rms_norm(x, gamma, 1e-5),
    }
}

pub(crate) fn elementwise_mul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.shape(), b.shape(), "elementwise product shape mismatch");
    Matrix::from_fn(a.rows(), a.cols(), |r, c| a[(r, c)] * b[(r, c)])
}

/// Content hash identifying one captured activation matrix (layer mixed in
/// so identical data at different layers still faults independently).
pub(crate) fn capture_key(li: usize, m: &Matrix) -> u64 {
    let mut bytes = Vec::with_capacity(8 + m.rows() * m.cols() * 4);
    bytes.extend_from_slice(&(li as u64).to_le_bytes());
    for r in 0..m.rows() {
        for c in 0..m.cols() {
            bytes.extend_from_slice(&m[(r, c)].to_bits().to_le_bytes());
        }
    }
    tender_faults::hash_bytes(&bytes)
}

/// Returns a calibration-capture clone of `m`, poisoned per the installed
/// fault plan: every channel the plan selects gets a NaN in row 0.
///
/// Only *captured* clones pass through here — runtime forwards never do —
/// so activation faults stress the calibration/degradation path while
/// evaluation forwards stay finite. The per-channel verdict is a pure
/// function of (seed, capture content, channel): content-keyed like blob
/// corruption, so it is identical at any thread count yet independent
/// across the distinct captures that revisit one layer.
pub(crate) fn capture_clone(li: usize, m: &Matrix) -> Matrix {
    let mut out = m.clone();
    if !tender_faults::active() {
        return out;
    }
    let Some(plan) = tender_faults::plan() else {
        return out;
    };
    let key = capture_key(li, m);
    let mut hits = 0u64;
    for c in 0..out.cols() {
        if plan.act_nan(key, c) {
            out[(0, c)] = f32::NAN;
            hits += 1;
        }
    }
    if hits > 0 {
        plan.injected_act_nan(hits);
    }
    out
}

/// Embeds `tokens` starting at absolute sequence position `pos0`.
pub(crate) fn embed(w: &TransformerWeights, tokens: &[usize], pos0: usize) -> Matrix {
    Matrix::from_fn(tokens.len(), w.shape.d_model, |r, c| {
        w.tok_emb[(tokens[r], c)] + w.pos_emb[(pos0 + r, c)]
    })
}

/// Projects final hidden states through the (transposed) LM head.
pub(crate) fn lm_head(w: &TransformerWeights, emb_t: &Matrix, hidden: &Matrix) -> Matrix {
    let scale = LOGIT_SCALE / (w.shape.d_model as f32).sqrt();
    hidden.matmul(emb_t).expect("LM head shape").scale(scale)
}

/// Runtime guard of the cached path: routes each live activation row
/// through the fault plan's `act_nan` site and sanitizes whatever it
/// poisoned, so a corrupted row degrades (zeroed channels, counted) instead
/// of propagating NaN through the cache. The verdict is keyed on the bytes
/// of the single `1 × d` row, so it is the same whether the row arrives
/// alone or inside a chunk. Inert when no plan is installed.
fn guard_rows(li: usize, mut a: Matrix) -> Matrix {
    if !tender_faults::active() {
        return a;
    }
    for r in 0..a.rows() {
        let row = a.slice_rows(r, r + 1);
        let poisoned = capture_clone(li, &row);
        if poisoned == row {
            continue;
        }
        tender_metrics::faults::DECODE_SANITIZED.incr();
        for (dst, &v) in a.row_mut(r).iter_mut().zip(poisoned.row(0)) {
            *dst = if v.is_finite() { v } else { 0.0 };
        }
    }
    a
}

/// Where a [`block`]'s attention reads K/V from.
pub(crate) enum Attend<'a> {
    /// Causal self-attention over the call's own K/V rows — the
    /// full-sequence pass. `capture` records calibration activations;
    /// `record` appends the K/V rows to a cache (prefill). Neither changes
    /// the returned hidden states.
    Fresh {
        capture: Option<&'a mut CaptureMap>,
        record: Option<&'a mut KvCache>,
    },
    /// Row by row against the cache, which already holds every earlier
    /// position: row `i`'s K/V are appended, then row `i` attends to the
    /// whole cache — no mask needed, every cached position is in the past.
    /// Append and read must alternate per row: appending a later row can
    /// raise a quantized plane's `TMax` and `requant_shift` the tail page,
    /// which an earlier row must read as it was when that row was the
    /// newest. `int_macs` accrues the multiply-accumulates executed in the
    /// integer domain on packed KV codes.
    Cached {
        cache: &'a mut KvCache,
        int_macs: &'a mut u64,
    },
}

impl Attend<'_> {
    /// Calibration path: records a fault-plan clone of `m` under `sites`.
    fn capture(&mut self, li: usize, sites: &[Site], m: &Matrix) {
        if let Attend::Fresh {
            capture: Some(cap), ..
        } = self
        {
            let clone = capture_clone(li, m);
            let (&last, rest) = sites.split_last().expect("at least one site");
            for &site in rest {
                cap.entry((li, site)).or_default().push(clone.clone());
            }
            cap.entry((li, last)).or_default().push(clone);
        }
    }

    /// Cached path: the fault guard over each row of a normed activation.
    fn guard(&self, li: usize, m: Matrix) -> Matrix {
        match self {
            Attend::Fresh { .. } => m,
            Attend::Cached { .. } => guard_rows(li, m),
        }
    }
}

/// One Transformer block — attention + FFN with residuals — over the
/// `rows ≥ 1` hidden rows `h`, the first at absolute position `row0`.
/// `macs` accrues the multiply-accumulates actually executed, measured
/// from the operand shapes of each matmul performed.
///
/// **Attention read paths** ([`Attend::Cached`]). The cache is read in
/// place, page by page: quantized planes dot the query and probability rows
/// against the packed codes ([`KvCache::attn_scores_quant`] /
/// [`KvCache::attn_values_quant`]), f32-mode planes against the pages where
/// they lie ([`KvCache::attn_scores_f32`] / [`KvCache::attn_values_f32`],
/// bit-identical to the f32 products over the gathered plane) — no
/// `len × head_dim` plane, no transpose copy. The gathered plane
/// (`head_k` / `head_v`) is read only under
/// [`KvReadPath::Dequant`](crate::kv::KvReadPath) — the oracle of both
/// in-place reads — and by schemes that *quantize* act×act, whose operator
/// consumes whole (for the scores, transposed) matrices; over it the
/// transpose-free [`ops::row_dot_nt`] reproduces `act_act(q, kᵀ)`
/// bit-for-bit when the scheme's act×act product is the plain f32 matmul.
///
/// # Errors
///
/// [`EvictError`] when the cache's arena is at its byte cap with nothing
/// left to demote. Passes without a cache cannot fail.
#[allow(clippy::too_many_arguments)]
pub(crate) fn block(
    w: &TransformerWeights,
    li: usize,
    layer: &LayerWeights,
    h: Matrix,
    exec: &Exec<'_>,
    row0: usize,
    attend: &mut Attend<'_>,
    macs: &mut u64,
) -> Result<Matrix, EvictError> {
    let shape = &w.shape;
    let rows = h.rows();
    let dh = shape.head_dim();
    let scale = 1.0 / (dh as f32).sqrt();
    let mut mm = |site: Site, x: &Matrix, weight: &Matrix| {
        *macs += (x.rows() * x.cols() * weight.cols()) as u64;
        exec.mm_at(li, site, x, weight, row0)
    };

    // Attention sub-block.
    let a = apply_norm(&h, &layer.ln1_gamma, &layer.ln1_beta, shape.norm);
    attend.capture(li, &[Site::Q, Site::K, Site::V], &a);
    let a = attend.guard(li, a);
    let q = mm(Site::Q, &a, &layer.wq);
    let k = mm(Site::K, &a, &layer.wk);
    let v = mm(Site::V, &a, &layer.wv);

    let mut ao = Matrix::zeros(rows, shape.d_model);
    let mut attn_macs = 0u64;
    match attend {
        Attend::Fresh { record, .. } => {
            if let Some(cache) = record {
                cache.append(li, &k, &v)?;
            }
            for head in 0..shape.heads {
                let (c0, c1) = (head * dh, (head + 1) * dh);
                let qh = q.slice_cols(c0, c1).scale(scale);
                let kh_t = k.slice_cols(c0, c1).transpose();
                let scores = exec.act_act(&qh, &kh_t);
                let probs = match shape.kind {
                    ModelKind::Decoder => ops::causal_softmax_rows(&scores),
                    ModelKind::Encoder => ops::softmax_rows(&scores),
                };
                let attn = exec.act_act(&probs, &v.slice_cols(c0, c1));
                for r in 0..rows {
                    ao.row_mut(r)[c0..c1].copy_from_slice(attn.row(r));
                }
            }
            attn_macs += (2 * shape.heads * rows * dh * rows) as u64;
        }
        Attend::Cached { cache, int_macs } => {
            let exact = exec.act_act_is_exact();
            let mut qi = vec![0.0f32; shape.d_model];
            for i in 0..rows {
                cache.append(li, &k.slice_rows(i, i + 1), &v.slice_rows(i, i + 1))?;
                let len = row0 + i + 1; // cache rows for this layer after the append
                for (s, &x) in qi.iter_mut().zip(q.row(i)) {
                    *s = x * scale;
                }
                for head in 0..shape.heads {
                    let (c0, c1) = (head * dh, (head + 1) * dh);
                    let qh = &qi[c0..c1];
                    let scores = cache
                        .attn_scores_quant(li, head, qh)
                        .inspect(|_| **int_macs += (dh * len) as u64)
                        .or_else(|| {
                            if exact {
                                cache.attn_scores_f32(li, head, qh)
                            } else {
                                None
                            }
                        })
                        .unwrap_or_else(|| {
                            // `KvReadPath::Dequant`, or a scheme that
                            // quantizes act×act: the gathered plane.
                            let qh = Matrix::from_vec(1, dh, qh.to_vec()).expect("query row");
                            let kh = cache.head_k(li, head);
                            if exact {
                                ops::row_dot_nt(&qh, &kh)
                            } else {
                                exec.act_act(&qh, &kh.transpose())
                            }
                        });
                    // The softmax and the value product see exactly the
                    // live columns the full pass sees at row `row0 + i`,
                    // in the same order.
                    let probs = ops::softmax_rows(&scores);
                    let probs_row = probs.row(0);
                    let attn = cache
                        .attn_values_quant(li, head, probs_row)
                        .inspect(|_| **int_macs += (dh * len) as u64)
                        .or_else(|| {
                            if exact {
                                cache.attn_values_f32(li, head, probs_row)
                            } else {
                                None
                            }
                        })
                        .unwrap_or_else(|| exec.act_act(&probs, &cache.head_v(li, head)));
                    ao.row_mut(i)[c0..c1].copy_from_slice(attn.row(0));
                }
                attn_macs += (2 * shape.heads * dh * len) as u64;
            }
        }
    }
    attend.capture(li, &[Site::O], &ao);
    let o = mm(Site::O, &ao, &layer.wo);
    let h = h.add(&o).expect("residual shapes");

    // FFN sub-block.
    let b = apply_norm(&h, &layer.ln2_gamma, &layer.ln2_beta, shape.norm);
    match layer.w_gate {
        Some(_) => attend.capture(li, &[Site::Fc1, Site::Gate], &b),
        None => attend.capture(li, &[Site::Fc1], &b),
    }
    let b = attend.guard(li, b);
    let f = match shape.activation {
        Activation::Relu => ops::relu(&mm(Site::Fc1, &b, &layer.w_fc1)),
        Activation::Gelu => ops::gelu(&mm(Site::Fc1, &b, &layer.w_fc1)),
        Activation::SiluGated => {
            let gate_w = layer.w_gate.as_ref().expect("gated FFN has a gate weight");
            let gated = ops::silu(&mm(Site::Gate, &b, gate_w));
            elementwise_mul(&gated, &mm(Site::Fc1, &b, &layer.w_fc1))
        }
    };
    attend.capture(li, &[Site::Fc2], &f);
    let ffn_out = mm(Site::Fc2, &f, &layer.w_fc2);
    *macs += attn_macs;
    Ok(h.add(&ffn_out).expect("residual shapes"))
}

/// The shared full-sequence forward pass. Returns the final (normed)
/// hidden states; fills `kv` with every layer's K/V rows when given.
///
/// # Errors
///
/// [`EvictError`] when the cache's arena reaches its eviction floor
/// mid-prompt. Passes without a cache cannot fail.
pub(crate) fn forward_internal(
    w: &TransformerWeights,
    tokens: &[usize],
    exec: &Exec<'_>,
    capture: Option<&mut CaptureMap>,
    kv: Option<&mut KvCache>,
) -> Result<Matrix, EvictError> {
    let shape = &w.shape;
    let n = tokens.len();
    assert!(n > 0, "empty token sequence");
    assert!(n <= shape.max_seq, "sequence longer than max_seq");
    for &t in tokens {
        assert!(t < shape.vocab, "token id {t} out of vocabulary");
    }

    let mut h = embed(w, tokens, 0);
    let mut attend = Attend::Fresh {
        capture,
        record: kv,
    };

    metrics::FORWARD_PASSES.incr();
    for (li, layer) in w.layers.iter().enumerate() {
        // Wall-clock per layer goes to the JSON report only; it never
        // influences computed values or experiment stdout.
        let _layer_span = metrics::LAYER_FORWARD.span(li);
        h = block(w, li, layer, h, exec, 0, &mut attend, &mut 0)?;
    }

    Ok(apply_norm(&h, &w.final_gamma, &w.final_beta, shape.norm))
}
