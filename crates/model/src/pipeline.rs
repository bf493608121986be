//! The shared layer pipeline behind both inference paths.
//!
//! [`forward_internal`] drives the full-sequence pass used by
//! [`crate::ReferenceModel::forward`] and [`crate::QuantizedModel::forward`];
//! [`layer_decode`] drives the single-token incremental pass used by
//! [`crate::engine::DecodeSession::step`]. Both are built from the same
//! per-layer pieces ([`layer_full`], the attention inner loop, the FFN
//! match), so the decode path cannot drift from the reference semantics.
//!
//! **Parity invariant.** Every op in the pipeline is per-row independent
//! with a fixed accumulation order: embeddings and norms are row-local,
//! weight matmuls accumulate over `k` in ascending order per row, the
//! causal softmax appends its masked `exp(-inf) = 0` terms after the live
//! columns, and `probs × V` skips exact zeros. Decoding position `p`
//! against a KV cache of length `p` therefore reproduces row `p` of the
//! full-sequence pass bit-for-bit, provided row-chunked schemes are asked
//! for the chunk covering absolute row `p` — which is what
//! [`Exec::mm_at`] forwards via `QuantMatmul::forward_at`.

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
    /// The weight matmul at `(li, site)` for activations starting at row 0.
    pub(crate) fn mm(&self, li: usize, site: Site, x: &Matrix, weight: &Matrix) -> Matrix {
        match self {
            Exec::Reference => x.matmul(weight).expect("weight shapes validated"),
            Exec::Quantized { ops, .. } => ops
                .get(&(li, site))
                .unwrap_or_else(|| panic!("missing operator for layer {li} site {site:?}"))
                .forward(x),
        }
    }

    /// The weight matmul at `(li, site)` for activation rows whose first
    /// row sits at absolute sequence position `row0` (decode path).
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

/// One full-sequence Transformer block: attention + FFN with residuals.
///
/// When `kv` is given, the freshly projected K/V rows are appended to the
/// cache (the prefill path); the returned hidden states are unchanged by
/// caching.
///
/// # Errors
///
/// [`EvictError`] when the cache's arena is at its byte cap with nothing
/// left to demote. Passes without a cache cannot fail.
pub(crate) fn layer_full(
    w: &TransformerWeights,
    li: usize,
    layer: &LayerWeights,
    h: Matrix,
    exec: &Exec<'_>,
    mut capture: Option<&mut CaptureMap>,
    kv: Option<&mut KvCache>,
) -> Result<Matrix, EvictError> {
    let shape = &w.shape;
    let n = h.rows();
    let dh = shape.head_dim();
    let scale = 1.0 / (dh as f32).sqrt();
    let mut h = h;

    // Attention sub-block.
    let a = apply_norm(&h, &layer.ln1_gamma, &layer.ln1_beta, shape.norm);
    if let Some(cap) = capture.as_deref_mut() {
        let ac = capture_clone(li, &a);
        for site in [Site::Q, Site::K, Site::V] {
            cap.entry((li, site)).or_default().push(ac.clone());
        }
    }
    let q = exec.mm(li, Site::Q, &a, &layer.wq);
    let k = exec.mm(li, Site::K, &a, &layer.wk);
    let v = exec.mm(li, Site::V, &a, &layer.wv);
    if let Some(cache) = kv {
        cache.append(li, &k, &v)?;
    }

    let mut ao = Matrix::zeros(n, shape.d_model);
    for head in 0..shape.heads {
        let c0 = head * dh;
        let c1 = c0 + dh;
        let qh = q.slice_cols(c0, c1).scale(scale);
        let kh_t = k.slice_cols(c0, c1).transpose();
        let mut scores = exec.act_act(&qh, &kh_t);
        if shape.kind == ModelKind::Decoder {
            ops::causal_mask_inplace(&mut scores);
        }
        let probs = ops::softmax_rows(&scores);
        let attn = exec.act_act(&probs, &v.slice_cols(c0, c1));
        for r in 0..n {
            for c in 0..dh {
                ao[(r, c0 + c)] = attn[(r, c)];
            }
        }
    }
    if let Some(cap) = capture.as_deref_mut() {
        cap.entry((li, Site::O))
            .or_default()
            .push(capture_clone(li, &ao));
    }
    let o = exec.mm(li, Site::O, &ao, &layer.wo);
    h = h.add(&o).expect("residual shapes");

    // FFN sub-block.
    let b = apply_norm(&h, &layer.ln2_gamma, &layer.ln2_beta, shape.norm);
    if let Some(cap) = capture.as_deref_mut() {
        let bc = capture_clone(li, &b);
        cap.entry((li, Site::Fc1)).or_default().push(bc.clone());
        if layer.w_gate.is_some() {
            cap.entry((li, Site::Gate)).or_default().push(bc);
        }
    }
    let f = match shape.activation {
        Activation::Relu => ops::relu(&exec.mm(li, Site::Fc1, &b, &layer.w_fc1)),
        Activation::Gelu => ops::gelu(&exec.mm(li, Site::Fc1, &b, &layer.w_fc1)),
        Activation::SiluGated => {
            let gate_w = layer.w_gate.as_ref().expect("gated FFN has a gate weight");
            let gated = ops::silu(&exec.mm(li, Site::Gate, &b, gate_w));
            elementwise_mul(&gated, &exec.mm(li, Site::Fc1, &b, &layer.w_fc1))
        }
    };
    if let Some(cap) = capture {
        cap.entry((li, Site::Fc2))
            .or_default()
            .push(capture_clone(li, &f));
    }
    let ffn_out = exec.mm(li, Site::Fc2, &f, &layer.w_fc2);
    Ok(h.add(&ffn_out).expect("residual shapes"))
}

/// Decode-path runtime guard: routes a live single-row activation through
/// the fault plan's `act_nan` site and sanitizes whatever it poisoned, so a
/// corrupted decode step degrades (zeroed channels, counted) instead of
/// propagating NaN through the cache. Inert when no plan is installed.
fn guard_decode_activation(li: usize, a: Matrix) -> Matrix {
    if !tender_faults::active() {
        return a;
    }
    let poisoned = capture_clone(li, &a);
    if poisoned == a {
        return a;
    }
    tender_metrics::faults::DECODE_SANITIZED.incr();
    Matrix::from_fn(poisoned.rows(), poisoned.cols(), |r, c| {
        let v = poisoned[(r, c)];
        if v.is_finite() {
            v
        } else {
            0.0
        }
    })
}

/// One single-token Transformer block against the KV cache.
///
/// `h` is the `1 × d_model` hidden row for absolute position `pos`; the
/// layer's K/V projections are appended to `cache` (so afterwards the cache
/// holds `pos + 1` rows for this layer), and attention runs over the whole
/// cache — no mask needed, every cached position is in the past. `macs`
/// accrues the multiply-accumulates actually executed, measured from the
/// operand shapes of each matmul performed; `int_macs` accrues the subset
/// executed in the integer domain on packed KV codes.
///
/// # Errors
///
/// [`EvictError`] when the cache's arena is at its byte cap with nothing
/// left to demote for the appended position.
///
/// **Attention read paths.** Quantized cache planes dot the query and
/// probability rows against the packed codes directly
/// ([`KvCache::attn_scores_quant`] / [`KvCache::attn_values_quant`]) — no
/// dequantized plane, no transpose copy. f32 planes (and the legacy
/// dequantize read path) use the transpose-free [`ops::row_dot_nt`] when
/// the scheme's act×act product is the plain f32 matmul, which reproduces
/// `act_act(q, kᵀ)` bit-for-bit; only schemes that *quantize* act×act
/// still pay the explicit transpose, since their operator consumes the
/// transposed matrix.
#[allow(clippy::too_many_arguments)]
pub(crate) fn layer_decode(
    w: &TransformerWeights,
    li: usize,
    layer: &LayerWeights,
    h: Matrix,
    exec: &Exec<'_>,
    cache: &mut KvCache,
    pos: usize,
    macs: &mut u64,
    int_macs: &mut u64,
) -> Result<Matrix, EvictError> {
    let shape = &w.shape;
    let dh = shape.head_dim();
    let scale = 1.0 / (dh as f32).sqrt();
    let mut h = h;
    let mut mac = |m: usize, k: usize, n: usize| *macs += (m * k * n) as u64;

    // Attention sub-block.
    let a = guard_decode_activation(
        li,
        apply_norm(&h, &layer.ln1_gamma, &layer.ln1_beta, shape.norm),
    );
    let q = exec.mm_at(li, Site::Q, &a, &layer.wq, pos);
    let k = exec.mm_at(li, Site::K, &a, &layer.wk, pos);
    let v = exec.mm_at(li, Site::V, &a, &layer.wv, pos);
    mac(1, a.cols(), q.cols());
    mac(1, a.cols(), k.cols());
    mac(1, a.cols(), v.cols());
    cache.append(li, &k, &v)?;
    let len = pos + 1; // cache rows for this layer after the append

    let mut ao = Matrix::zeros(1, shape.d_model);
    for head in 0..shape.heads {
        let c0 = head * dh;
        let c1 = c0 + dh;
        let qh = q.slice_cols(c0, c1).scale(scale);
        let scores = match cache.attn_scores_quant(li, head, qh.row(0)) {
            Some(s) => {
                *int_macs += (dh * len) as u64;
                s
            }
            None if exec.act_act_is_exact() => ops::row_dot_nt(&qh, &cache.head_k(li, head)),
            None => exec.act_act(&qh, &cache.head_k(li, head).transpose()),
        };
        mac(1, dh, len);
        // Every cached position is ≤ pos: nothing to mask. The softmax and
        // the value product below see exactly the live columns the full
        // pass sees at row `pos`, in the same order.
        let probs = ops::softmax_rows(&scores);
        let attn = match cache.attn_values_quant(li, head, probs.row(0)) {
            Some(a) => {
                *int_macs += (dh * len) as u64;
                a
            }
            None => exec.act_act(&probs, &cache.head_v(li, head)),
        };
        mac(1, len, dh);
        for c in 0..dh {
            ao[(0, c0 + c)] = attn[(0, c)];
        }
    }
    let o = exec.mm_at(li, Site::O, &ao, &layer.wo, pos);
    mac(1, ao.cols(), o.cols());
    h = h.add(&o).expect("residual shapes");

    // FFN sub-block.
    let b = guard_decode_activation(
        li,
        apply_norm(&h, &layer.ln2_gamma, &layer.ln2_beta, shape.norm),
    );
    let f = match shape.activation {
        Activation::Relu => {
            let f1 = exec.mm_at(li, Site::Fc1, &b, &layer.w_fc1, pos);
            mac(1, b.cols(), f1.cols());
            ops::relu(&f1)
        }
        Activation::Gelu => {
            let f1 = exec.mm_at(li, Site::Fc1, &b, &layer.w_fc1, pos);
            mac(1, b.cols(), f1.cols());
            ops::gelu(&f1)
        }
        Activation::SiluGated => {
            let gate_w = layer.w_gate.as_ref().expect("gated FFN has a gate weight");
            let g = exec.mm_at(li, Site::Gate, &b, gate_w, pos);
            mac(1, b.cols(), g.cols());
            let f1 = exec.mm_at(li, Site::Fc1, &b, &layer.w_fc1, pos);
            mac(1, b.cols(), f1.cols());
            elementwise_mul(&ops::silu(&g), &f1)
        }
    };
    let ffn_out = exec.mm_at(li, Site::Fc2, &f, &layer.w_fc2, pos);
    mac(1, f.cols(), ffn_out.cols());
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
    mut capture: Option<&mut CaptureMap>,
    mut kv: Option<&mut KvCache>,
) -> Result<Matrix, EvictError> {
    let shape = &w.shape;
    let n = tokens.len();
    assert!(n > 0, "empty token sequence");
    assert!(n <= shape.max_seq, "sequence longer than max_seq");
    for &t in tokens {
        assert!(t < shape.vocab, "token id {t} out of vocabulary");
    }

    let mut h = embed(w, tokens, 0);

    metrics::FORWARD_PASSES.incr();
    for (li, layer) in w.layers.iter().enumerate() {
        // Wall-clock per layer goes to the JSON report only; it never
        // influences computed values or experiment stdout.
        let _layer_span = metrics::LAYER_FORWARD.span(li);
        h = layer_full(
            w,
            li,
            layer,
            h,
            exec,
            capture.as_deref_mut(),
            kv.as_deref_mut(),
        )?;
    }

    Ok(apply_norm(&h, &w.final_gamma, &w.final_beta, shape.norm))
}
