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
//! the cached path cannot drift from the reference semantics; and both
//! models run it through one handle, [`ModelRef`], the only code that
//! knows what runs at a weight site or an act×act product.
//!
//! **Parity invariant.** Every op in the pipeline is per-row independent
//! with a fixed accumulation order: embeddings and norms are row-local,
//! weight matmuls accumulate over `k` in ascending order per row, and exact
//! attention is a row walk in both passes. The full pass
//! ([`ops::attention_rows`]) scores row `r` against its live positions
//! `0..=r` only, each score's `head_dim` terms ascending from `+0.0` with
//! the query's zeros skipped, softmaxes those scores in order, and sums
//! `probs × V` over them ascending, skipping exact zeros — the chain of the
//! per-head matrix composition it replaced (`matmul`,
//! [`ops::causal_softmax_rows`], `matmul`), whose masked columns are `+0.0`
//! probabilities and so add no term, and the chain an f32 cache's
//! [`KvCache::attend_row`] runs for a cached row. (A scheme that quantizes
//! act×act products keeps that matrix composition, since its kernel takes
//! whole matrices.) Decoding
//! position `p` against a KV cache of length `p` therefore reproduces row
//! `p` of the full-sequence pass bit-for-bit, provided row-chunked schemes
//! are asked for the chunk covering absolute row `p` — which is what
//! [`ModelRef::mm`] forwards via `QuantMatmul::forward_rows`. The same
//! independence makes the cached path indifferent to which rows share a
//! call: `rows` tokens in one [`block`] call per layer leave the cache and
//! the hidden rows exactly as `rows` one-token calls do, and the rows of a
//! call may belong to different caches ([`Lane`]s) — a weight site sees one
//! `M = rows` product either way, which is what streams each weight operand
//! once per call instead of once per session.

use std::collections::HashMap;
use std::sync::OnceLock;

use tender_metrics::model as metrics;
use tender_quant::scheme::{Scheme, SiteStats};
use tender_tensor::{ops, EvictError, Matrix, PackedF32};

use crate::forward::{Site, SiteTable};
use crate::kv::KvCache;
use crate::shape::{Activation, ModelKind, ModelShape, NormKind};
use crate::weights::TransformerWeights;

/// Every site's captured input activations, one matrix per sample.
pub(crate) type CaptureMap = HashMap<(usize, Site), Vec<Matrix>>;

/// Where a calibration pass sends the input activation of each weight site:
/// `m` enters every site of `sites` at layer `li`. The activation is the
/// one the pass computed; a sink that keeps or folds it applies the fault
/// plan first ([`capture_clone`]).
pub(crate) trait Capture {
    fn record(&mut self, li: usize, sites: &[Site], m: &Matrix);
}

/// The raw samples: one poisoned clone per record, under each of its sites.
impl Capture for CaptureMap {
    fn record(&mut self, li: usize, sites: &[Site], m: &Matrix) {
        let clone = capture_clone(li, m);
        let (&last, rest) = sites.split_last().expect("at least one site");
        for &site in rest {
            self.entry((li, site)).or_default().push(clone.clone());
        }
        self.entry((li, last)).or_default().push(clone);
    }
}

/// The statistics of one pass's samples: every record is folded into the
/// [`SiteStats`] of its sites (one per record site list, so Q/K/V and a
/// gated FFN's Fc1/Gate share theirs) as sample number `sample`, and the
/// activation is dropped with its layer.
#[derive(Default)]
pub(crate) struct StatsCapture {
    /// The sample the next pass's records belong to.
    pub(crate) sample: usize,
    /// Per layer and first site: the record's sites and their statistics.
    pub(crate) sites: HashMap<(usize, Site), (Vec<Site>, SiteStats)>,
}

impl Capture for StatsCapture {
    fn record(&mut self, li: usize, sites: &[Site], m: &Matrix) {
        let (_, stats) = self
            .sites
            .entry((li, sites[0]))
            .or_insert_with(|| (sites.to_vec(), SiteStats::new(m.cols())));
        if tender_faults::active() {
            stats.fold(self.sample, &capture_clone(li, m));
        } else {
            stats.fold(self.sample, m);
        }
    }
}

/// LM-head logit gain. With a random (untied) head, logits ≈ N(0, σ²) with
/// σ ≈ `LOGIT_SCALE`; the value is chosen so the reference model's proxy
/// perplexity sits far below vocabulary size (a confidently-predicting
/// model, like a trained LLM) while leaving orders of magnitude of headroom
/// for catastrophically quantized models to degrade into.
pub(crate) const LOGIT_SCALE: f32 = 2.5;

/// A borrowed model — the pipeline's only view of one. The reference and a
/// quantized model differ only in the operators of their site tables and in
/// their act×act rule; both run the packed LM head. Built `From` a
/// `&ReferenceModel` or a `&QuantizedModel`.
#[derive(Clone, Copy)]
pub struct ModelRef<'m> {
    pub(crate) w: &'m TransformerWeights,
    /// The LM head as the `d_model × vocab` product operand, packed once at
    /// model build.
    pub(crate) lm_head: &'m PackedF32,
    /// The weight sites' operators: a quantized model's, filled when it is
    /// built, or the reference's [`ExactScheme`] operators, built by its
    /// first weight product ([`SiteTable::exact`]).
    ///
    /// [`ExactScheme`]: tender_quant::scheme::ExactScheme
    pub(crate) sites: &'m OnceLock<SiteTable>,
    /// The scheme, when it quantizes activation×activation products
    /// (`X_Q × X_K^T`, `X_S × X_V`); `None` when they are exact f32.
    pub(crate) act_act: Option<&'m dyn Scheme>,
}

impl<'m> ModelRef<'m> {
    /// The model's shape — public so layers above the engine (the serving
    /// scheduler) can size traffic, KV budgets, and vocab-bounded token
    /// streams without reaching into the weights.
    pub fn shape(&self) -> &'m ModelShape {
        &self.w.shape
    }

    /// Whether both view the same model object — the same weights struct,
    /// by address — what lets two sessions' rows share a weight product.
    /// Every model owns its own struct, even where its tensors are another
    /// model's (a quantized model shares its reference's), so shared
    /// tensors never merge two models' operators into one stack.
    pub(crate) fn same_model(&self, other: &Self) -> bool {
        std::ptr::eq(self.w, other.w)
    }

    /// Next-token logits for every position, `n × vocab`.
    pub(crate) fn forward(self, tokens: &[usize]) -> Matrix {
        lm_head(self, &self.forward_hidden(tokens))
    }

    /// Final hidden states (after the last norm), `n × d_model`.
    pub(crate) fn forward_hidden(self, tokens: &[usize]) -> Matrix {
        forward_internal(self, tokens, None, None)
            .expect("forward without a kv cache cannot exhaust the arena")
    }

    /// The weight matmul at `(li, site)`: without positions, `x` is one
    /// whole sequence (`QuantMatmul::forward`, the full pass); with them,
    /// its rows are independent tokens, row `r` at absolute sequence
    /// position `positions[r]` (`QuantMatmul::forward_rows`, the cached
    /// pass). A reference's first call builds its table, and a call racing
    /// it waits for that one build.
    pub(crate) fn mm(
        &self,
        li: usize,
        site: Site,
        x: &Matrix,
        positions: Option<&[usize]>,
    ) -> Matrix {
        let op = self
            .sites
            .get_or_init(|| SiteTable::exact(self.w))
            .get(li, site)
            .unwrap_or_else(|| panic!("missing operator for layer {li} site {site:?}"));
        match positions {
            None => op.forward(x),
            Some(positions) => op.forward_rows(x, positions),
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

/// Projects final hidden states through the (packed) LM head.
pub(crate) fn lm_head(model: ModelRef<'_>, hidden: &Matrix) -> Matrix {
    let scale = LOGIT_SCALE / (model.shape().d_model as f32).sqrt();
    hidden
        .matmul_packed(model.lm_head)
        .expect("LM head shape")
        .scale(scale)
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
    /// Self-attention over the call's own K/V rows — the full-sequence
    /// pass: row by row through [`ops::attention_rows`] when act×act
    /// products are exact, per head through the scheme's kernel when it
    /// quantizes them. `capture` receives calibration activations;
    /// `record` appends the K/V rows to a cache (prefill). Neither changes
    /// the returned hidden states.
    Fresh {
        capture: Option<&'a mut dyn Capture>,
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
    /// Calibration path: hands `m`, the input of `sites`, to the capture.
    fn capture(&mut self, li: usize, sites: &[Site], m: &Matrix) {
        if let Attend::Fresh {
            capture: Some(cap), ..
        } = self
        {
            cap.record(li, sites, m);
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
    model: ModelRef<'_>,
    li: usize,
    h: Matrix,
    attend: &mut Attend<'_, '_>,
) -> Result<Matrix, EvictError> {
    let shape = model.shape();
    let layer = &model.w.layers[li];
    let rows = h.rows();
    let dh = shape.head_dim();
    let scale = 1.0 / (dh as f32).sqrt();
    // Weight MACs of one row through this block; every row costs the same.
    let mut row_macs = 0u64;
    let positions = match attend {
        Attend::Fresh { .. } => None,
        Attend::Cached { positions, .. } => Some(*positions),
    };
    let mut mm = |site: Site, x: &Matrix| {
        let y = model.mm(li, site, x, positions);
        row_macs += (x.cols() * y.cols()) as u64;
        y
    };

    // Attention sub-block.
    let a = apply_norm(&h, &layer.ln1_gamma, &layer.ln1_beta, shape.norm);
    attend.capture(li, &[Site::Q, Site::K, Site::V], &a);
    let a = attend.guard(li, a);
    let q = mm(Site::Q, &a).scale(scale);
    let k = mm(Site::K, &a);
    let v = mm(Site::V, &a);

    let act_act = model.act_act;
    let ao = match attend {
        Attend::Fresh { record, .. } => {
            if let Some(cache) = record {
                cache.append(li, &k, &v)?;
            }
            let causal = shape.kind == ModelKind::Decoder;
            match act_act {
                None => ops::attention_rows(&q, &k, &v, shape.heads, causal),
                Some(scheme) => per_head_attention(scheme, &q, &k, &v, shape.heads, causal),
            }
        }
        Attend::Cached { lanes, positions } => {
            let mut ao = Matrix::zeros(rows, shape.d_model);
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
            ao
        }
    };
    attend.capture(li, &[Site::O], &ao);
    let o = mm(Site::O, &ao);
    let h = h.add(&o).expect("residual shapes");

    // FFN sub-block.
    let b = apply_norm(&h, &layer.ln2_gamma, &layer.ln2_beta, shape.norm);
    match layer.w_gate {
        Some(_) => attend.capture(li, &[Site::Fc1, Site::Gate], &b),
        None => attend.capture(li, &[Site::Fc1], &b),
    }
    let b = attend.guard(li, b);
    let f = match shape.activation {
        Activation::Relu => ops::relu(&mm(Site::Fc1, &b)),
        Activation::Gelu => ops::gelu(&mm(Site::Fc1, &b)),
        Activation::SiluGated => {
            let gated = ops::silu(&mm(Site::Gate, &b));
            elementwise_mul(&gated, &mm(Site::Fc1, &b))
        }
    };
    attend.capture(li, &[Site::Fc2], &f);
    let ffn_out = mm(Site::Fc2, &f);
    if let Attend::Cached { lanes, .. } = attend {
        for lane in lanes.iter_mut() {
            lane.macs += lane.rows as u64 * row_macs;
        }
    }
    Ok(h.add(&ffn_out).expect("residual shapes"))
}

/// Full-sequence attention under a scheme that quantizes act×act
/// products: per head, the scheme's kernel over whole matrices (it
/// calibrates on its runtime operands), `scores = Q_h · K_hᵀ`, the (causal)
/// softmax, then `probs · V_h`.
fn per_head_attention(
    scheme: &dyn Scheme,
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    heads: usize,
    causal: bool,
) -> Matrix {
    let dh = q.cols() / heads;
    let mut ao = Matrix::zeros(q.rows(), q.cols());
    for head in 0..heads {
        let (c0, c1) = (head * dh, (head + 1) * dh);
        let scores =
            scheme.act_act_matmul(&q.slice_cols(c0, c1), &k.slice_cols(c0, c1).transpose());
        let probs = if causal {
            ops::causal_softmax_rows(&scores)
        } else {
            ops::softmax_rows(&scores)
        };
        let attn = scheme.act_act_matmul(&probs, &v.slice_cols(c0, c1));
        for r in 0..q.rows() {
            ao.row_mut(r)[c0..c1].copy_from_slice(attn.row(r));
        }
    }
    ao
}

/// The one cached forward: embeds `tokens` (lane by lane, each lane's rows
/// at the positions following its cache) and runs every layer over all rows
/// at once, appending and attending per lane. Returns the final *un-normed*
/// hidden rows; a caller reads the rows of the lanes that did not fail.
/// Stops early once every lane has.
pub(crate) fn forward_cached(
    model: ModelRef<'_>,
    tokens: &[usize],
    lanes: &mut [Lane<'_>],
) -> Matrix {
    let positions: Vec<usize> = lanes
        .iter()
        .flat_map(|lane| lane.base..lane.base + lane.rows)
        .collect();
    assert_eq!(tokens.len(), positions.len(), "one token per lane row");
    let mut h = embed(model.w, tokens, &positions);
    for li in 0..model.w.layers.len() {
        let mut attend = Attend::Cached {
            lanes,
            positions: &positions,
        };
        h = block(model, li, h, &mut attend)
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
pub(crate) fn forward_internal<'a>(
    model: ModelRef<'_>,
    tokens: &[usize],
    capture: Option<&'a mut dyn Capture>,
    kv: Option<&'a mut KvCache>,
) -> Result<Matrix, EvictError> {
    let (w, shape) = (model.w, model.shape());
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
    for li in 0..w.layers.len() {
        // Wall-clock per layer goes to the JSON report only; it never
        // influences computed values or experiment stdout.
        let _layer_span = metrics::LAYER_FORWARD.span(li);
        h = block(model, li, h, &mut attend)?;
    }

    Ok(apply_norm(&h, &w.final_gamma, &w.final_beta, shape.norm))
}
