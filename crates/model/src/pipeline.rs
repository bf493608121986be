//! The shared layer pipeline behind both inference paths.
//!
//! [`block`] is the one Transformer block, over `rows ≥ 1` hidden rows,
//! each at its own absolute position. Its attention reads from one of two
//! sources ([`Attend`]): the call's own fresh K/V — [`forward_internal`],
//! the full-sequence pass behind [`crate::ReferenceModel::forward`],
//! [`crate::QuantizedModel::forward`], calibration capture and
//! [`crate::engine::DecodeSession::prefill`] — or KV caches, one
//! [`KvCache::attend_row`] per row (the cache appends the row, then picks
//! how to read itself) — [`forward_cached`], the one cached forward behind
//! [`crate::engine::DecodeSession::extend`] (one cache, `n` rows), `step`
//! (its one-token case) and [`crate::engine::step_stacked`] (the decode
//! rows of several sessions, one row per cache). Everything else (norms,
//! projections, the FFN match, residuals, MAC counting) exists once, so
//! the cached path cannot drift from the reference semantics.
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
//! [`Exec::mm`] forwards via `QuantMatmul::forward_rows`. The same
//! independence makes the cached path indifferent to which rows share a
//! call: `rows` tokens in one [`block`] call per layer leave the cache and
//! the hidden rows exactly as `rows` one-token calls do, and the rows of a
//! call may belong to different caches ([`Lane`]s) — a weight site sees one
//! `M = rows` product either way, which is what streams each weight operand
//! once per call instead of once per session.

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
    /// The weight matmul at `(li, site)`: without positions, `x` is one
    /// whole sequence (`QuantMatmul::forward`, the full pass); with them,
    /// its rows are independent tokens, row `r` at absolute sequence
    /// position `positions[r]` (`QuantMatmul::forward_rows`, the cached
    /// pass).
    pub(crate) fn mm(
        &self,
        li: usize,
        site: Site,
        x: &Matrix,
        weight: &Matrix,
        positions: Option<&[usize]>,
    ) -> Matrix {
        let Exec::Quantized { ops, .. } = self else {
            return x.matmul(weight).expect("weight shapes validated");
        };
        let op = ops
            .get(&(li, site))
            .unwrap_or_else(|| panic!("missing operator for layer {li} site {site:?}"));
        match positions {
            None => op.forward(x),
            Some(positions) => op.forward_rows(x, positions),
        }
    }

    /// Activation×activation product (`X_Q × X_K^T`, `X_S × X_V`).
    pub(crate) fn act_act(&self, a: &Matrix, b: &Matrix) -> Matrix {
        match self {
            Exec::Reference => a.matmul(b).expect("attention shapes"),
            Exec::Quantized { scheme, .. } => scheme.act_act_matmul(a, b),
        }
    }

    /// The scheme, when it quantizes activation×activation products;
    /// `None` when [`Exec::act_act`] is the plain f32 matmul.
    fn act_act_quantizer(&self) -> Option<&dyn Scheme> {
        match self {
            Exec::Quantized { scheme, .. } if scheme.quantizes_act_act() => Some(*scheme),
            _ => None,
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

/// Embeds `tokens`, token `r` at absolute sequence position `positions[r]`.
pub(crate) fn embed(w: &TransformerWeights, tokens: &[usize], positions: &[usize]) -> Matrix {
    Matrix::from_fn(tokens.len(), w.shape.d_model, |r, c| {
        w.tok_emb[(tokens[r], c)] + w.pos_emb[(positions[r], c)]
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

/// One cache's share of a cached forward: `rows` consecutive rows of the
/// hidden matrix (lanes in order, no gaps), the first at absolute position
/// `base` — the cache's length when the call began.
pub(crate) struct Lane<'a> {
    /// The cache this lane's rows are appended to and attend against.
    pub(crate) cache: &'a mut KvCache,
    /// How many consecutive hidden rows are this lane's.
    pub(crate) rows: usize,
    /// Absolute position of the lane's first row.
    pub(crate) base: usize,
    /// Multiply-accumulates executed for this lane's rows, measured from
    /// the operand shapes of each matmul performed.
    pub(crate) macs: u64,
    /// The subset of `macs` executed in the integer domain on packed KV
    /// codes.
    pub(crate) int_macs: u64,
    /// Set when an append of this lane was refused at the arena's floor.
    /// The lane is skipped from then on; its rows ride along in the
    /// remaining weight products (row-independent, so nobody else's bits
    /// change) and their results are discarded.
    pub(crate) failed: Option<EvictError>,
}

impl<'a> Lane<'a> {
    /// A lane of `rows` rows at the end of `cache`.
    pub(crate) fn new(cache: &'a mut KvCache, rows: usize) -> Self {
        Self {
            base: cache.len(),
            cache,
            rows,
            macs: 0,
            int_macs: 0,
            failed: None,
        }
    }
}

/// Where a [`block`]'s attention reads K/V from.
pub(crate) enum Attend<'a, 'c> {
    /// Causal self-attention over the call's own K/V rows — the
    /// full-sequence pass. `capture` records calibration activations;
    /// `record` appends the K/V rows to a cache (prefill). Neither changes
    /// the returned hidden states.
    Fresh {
        capture: Option<&'a mut CaptureMap>,
        record: Option<&'a mut KvCache>,
    },
    /// Row by row against the caches, each of which already holds every
    /// earlier position of its lane: one [`KvCache::attend_row`] per row,
    /// which appends the row's K/V and then attends to the whole cache — no
    /// mask needed, every cached position is in the past. Lanes never read
    /// each other's cache, so which lanes share a call is invisible to
    /// every one of them. `positions[r]` is the absolute position of hidden
    /// row `r`: each lane's `base..base + rows`, lanes in order.
    Cached {
        lanes: &'a mut [Lane<'c>],
        positions: &'a [usize],
    },
}

impl Attend<'_, '_> {
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
/// `rows ≥ 1` hidden rows `h`: one whole sequence ([`Attend::Fresh`]), or
/// independent tokens at the lanes' positions ([`Attend::Cached`]). Norms,
/// the fault guard, every weight product and the residuals run once over
/// all rows; only attention is per lane, and how a cache is read is the
/// cache's choice ([`KvCache::attend_row`]), told only whether the scheme
/// quantizes act×act products.
///
/// # Errors
///
/// [`EvictError`] when the cache a full-sequence pass records into
/// ([`Attend::Fresh`]) has its arena at the byte cap with nothing left to
/// demote. A cached lane's refusal is recorded in [`Lane::failed`] instead,
/// so it cannot cost the other lanes their rows; passes without a cache
/// cannot fail.
pub(crate) fn block(
    w: &TransformerWeights,
    li: usize,
    layer: &LayerWeights,
    h: Matrix,
    exec: &Exec<'_>,
    attend: &mut Attend<'_, '_>,
) -> Result<Matrix, EvictError> {
    let shape = &w.shape;
    let rows = h.rows();
    let dh = shape.head_dim();
    let scale = 1.0 / (dh as f32).sqrt();
    // Weight MACs of one row through this block; every row costs the same.
    let mut row_macs = 0u64;
    let positions = match attend {
        Attend::Fresh { .. } => None,
        Attend::Cached { positions, .. } => Some(*positions),
    };
    let mut mm = |site: Site, x: &Matrix, weight: &Matrix| {
        row_macs += (x.cols() * weight.cols()) as u64;
        exec.mm(li, site, x, weight, positions)
    };

    // Attention sub-block.
    let a = apply_norm(&h, &layer.ln1_gamma, &layer.ln1_beta, shape.norm);
    attend.capture(li, &[Site::Q, Site::K, Site::V], &a);
    let a = attend.guard(li, a);
    let q = mm(Site::Q, &a, &layer.wq).scale(scale);
    let k = mm(Site::K, &a, &layer.wk);
    let v = mm(Site::V, &a, &layer.wv);

    let mut ao = Matrix::zeros(rows, shape.d_model);
    match attend {
        Attend::Fresh { record, .. } => {
            if let Some(cache) = record {
                cache.append(li, &k, &v)?;
            }
            for head in 0..shape.heads {
                let (c0, c1) = (head * dh, (head + 1) * dh);
                let qh = q.slice_cols(c0, c1);
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
        }
        Attend::Cached { lanes, positions } => {
            let act_act = exec.act_act_quantizer();
            let mut hidden_rows = 0..rows;
            for lane in lanes.iter_mut() {
                for r in hidden_rows.by_ref().take(lane.rows) {
                    if lane.failed.is_some() {
                        continue;
                    }
                    let (k, v, q) = (k.row(r), v.row(r), q.row(r));
                    match lane.cache.attend_row(li, k, v, q, act_act, ao.row_mut(r)) {
                        Ok(int_macs) => {
                            // Score and value products over every cached
                            // position, this row's included.
                            lane.macs += (2 * shape.heads * dh * (positions[r] + 1)) as u64;
                            lane.int_macs += int_macs;
                        }
                        Err(e) => lane.failed = Some(e),
                    }
                }
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
    if let Attend::Cached { lanes, .. } = attend {
        for lane in lanes.iter_mut() {
            lane.macs += lane.rows as u64 * row_macs;
        }
    }
    Ok(h.add(&ffn_out).expect("residual shapes"))
}

/// The one cached forward: embeds `tokens` (lane by lane, each lane's rows
/// at the positions following its cache) and runs every layer over all rows
/// at once, appending and attending per lane. Returns the final *un-normed*
/// hidden rows; a caller reads the rows of the lanes that did not fail.
/// Stops early once every lane has.
pub(crate) fn forward_cached(
    w: &TransformerWeights,
    exec: &Exec<'_>,
    tokens: &[usize],
    lanes: &mut [Lane<'_>],
) -> Matrix {
    let positions: Vec<usize> = lanes
        .iter()
        .flat_map(|lane| lane.base..lane.base + lane.rows)
        .collect();
    assert_eq!(tokens.len(), positions.len(), "one token per lane row");
    let mut h = embed(w, tokens, &positions);
    for (li, layer) in w.layers.iter().enumerate() {
        let mut attend = Attend::Cached {
            lanes,
            positions: &positions,
        };
        h = block(w, li, layer, h, exec, &mut attend)
            .expect("a cached lane records its refusal instead of returning it");
        if lanes.iter().all(|lane| lane.failed.is_some()) {
            break;
        }
    }
    h
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

    let positions: Vec<usize> = (0..n).collect();
    let mut h = embed(w, tokens, &positions);
    let mut attend = Attend::Fresh {
        capture,
        record: kv,
    };

    metrics::FORWARD_PASSES.incr();
    for (li, layer) in w.layers.iter().enumerate() {
        // Wall-clock per layer goes to the JSON report only; it never
        // influences computed values or experiment stdout.
        let _layer_span = metrics::LAYER_FORWARD.span(li);
        h = block(w, li, layer, h, exec, &mut attend)?;
    }

    Ok(apply_norm(&h, &w.final_gamma, &w.final_beta, shape.norm))
}
