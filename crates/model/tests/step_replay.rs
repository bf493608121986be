//! A real `DecodeSession::step` equals the same step rebuilt from public
//! calls, bit for bit: per-site `forward_at`, `KvCache::append`, then per
//! head the cache's score read → `ops::softmax_rows` → its value read, and
//! the LM head. This is the composition the repository benchmark's
//! `model.step.replay_exact` re-enacts around a real step — pinned here on
//! INT8 and INT4 caches (`attn_scores_quant` / `attn_values_quant`) and on
//! an f32 cache (`attn_scores_f32` / `attn_values_f32`), so the step the
//! engine runs through `KvCache::attend_row` cannot drift from the public
//! calls it is described by.

use std::collections::HashMap;

use tender_model::engine::{DecodeSession, KvCache, KvCacheMode};
use tender_model::{
    greedy_token, ModelShape, QuantizedModel, Site, SyntheticLlm, TransformerWeights,
};
use tender_quant::scheme::{QuantMatmul, Scheme};
use tender_quant::tender::{TenderConfig, TenderScheme};
use tender_tensor::{ops, Matrix};

/// Per-site operators calibrated exactly as the quantized model's own.
type Ops = HashMap<(usize, Site), Box<dyn QuantMatmul>>;

fn tokens(n: usize, vocab: usize, salt: usize) -> Vec<usize> {
    (0..n).map(|i| (i * 37 + salt * 11 + 5) % vocab).collect()
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// One decode step of `token` at the end of `cache`, from public calls only
/// (the model family of `ModelShape::tiny_test`: LayerNorm, ReLU, ungated
/// FFN).
fn replay_step(w: &TransformerWeights, ops: &Ops, cache: &mut KvCache, token: usize) -> Matrix {
    let shape = &w.shape;
    let pos = cache.len();
    let dh = shape.head_dim();
    let scale = 1.0 / (dh as f32).sqrt();
    let op = |li: usize, site: Site| &ops[&(li, site)];
    let mut h = Matrix::from_fn(1, shape.d_model, |_, c| {
        w.tok_emb[(token, c)] + w.pos_emb[(pos, c)]
    });
    for (li, layer) in w.layers.iter().enumerate() {
        let a = ops::layer_norm(&h, &layer.ln1_gamma, &layer.ln1_beta, 1e-5);
        let q = op(li, Site::Q).forward_at(&a, pos);
        let k = op(li, Site::K).forward_at(&a, pos);
        let v = op(li, Site::V).forward_at(&a, pos);
        cache.append(li, &k, &v).expect("uncapped arena");
        let mut ao = Matrix::zeros(1, shape.d_model);
        for head in 0..shape.heads {
            let (c0, c1) = (head * dh, (head + 1) * dh);
            let qh = q.slice_cols(c0, c1).scale(scale);
            let scores = match cache.mode() {
                KvCacheMode::F32 => cache.attn_scores_f32(li, head, qh.row(0)),
                _ => cache.attn_scores_quant(li, head, qh.row(0)),
            }
            .expect("the in-place read");
            let probs = ops::softmax_rows(&scores);
            let attn = match cache.mode() {
                KvCacheMode::F32 => cache.attn_values_f32(li, head, probs.row(0)),
                _ => cache.attn_values_quant(li, head, probs.row(0)),
            }
            .expect("the in-place read");
            ao.row_mut(0)[c0..c1].copy_from_slice(attn.row(0));
        }
        h = h
            .add(&op(li, Site::O).forward_at(&ao, pos))
            .expect("residual");
        let b = ops::layer_norm(&h, &layer.ln2_gamma, &layer.ln2_beta, 1e-5);
        let f = ops::relu(&op(li, Site::Fc1).forward_at(&b, pos));
        h = h
            .add(&op(li, Site::Fc2).forward_at(&f, pos))
            .expect("residual");
    }
    let hidden = ops::layer_norm(&h, &w.final_gamma, &w.final_beta, 1e-5);
    // The pipeline's logit gain, `LOGIT_SCALE = 2.5`, over √d_model.
    let s = 2.5 / (shape.d_model as f32).sqrt();
    hidden
        .matmul(&w.lm_head.transpose())
        .expect("LM head shape")
        .scale(s)
}

#[test]
fn a_decode_step_is_its_public_composition_in_every_cache_mode() {
    let shape = ModelShape::tiny_test();
    let llm = SyntheticLlm::generate(&shape, 41);
    let w = llm.weights();
    let reference = llm.reference();
    let calib = [tokens(24, shape.vocab, 1)];
    let captured = reference.capture_site_activations(&calib);
    // Row-chunked, so a step's position picks the calibration chunk.
    let scheme = TenderScheme::new(TenderConfig::int8().with_row_chunk(8));
    let mut ops = Ops::new();
    for (li, layer) in w.layers.iter().enumerate() {
        for site in Site::ALL {
            let Some(weight) = layer.site(site) else {
                continue;
            };
            let op = scheme
                .try_prepare(&captured[&(li, site)], weight)
                .expect("healthy calibration");
            ops.insert((li, site), op);
        }
    }
    // The model calibrates from the capture's folded statistics, the
    // replay's operators from the kept samples: the same operators.
    let stats = reference.capture_site_stats(&calib);
    let model = QuantizedModel::build_with_capture(&reference, Box::new(scheme), &stats, None);
    assert!(model.degraded_sites().is_empty());

    let prompt = tokens(12, shape.vocab, 2);
    // Past two page boundaries (16 rows a page), inside the window.
    let steps = 40;
    for mode in KvCacheMode::ALL {
        let mut real = DecodeSession::with_cache_mode(&model, mode);
        let logits = real.prefill(&prompt);
        // An identical prefill gives the replay exclusive pages of its own.
        let mut twin = DecodeSession::with_cache_mode(&model, mode);
        twin.prefill(&prompt);
        let mut cache = twin.cache().clone();
        drop(twin);
        let mut tok = greedy_token(&logits, prompt.len() - 1, prompt.len(), shape.vocab);
        for step in 0..steps {
            let want = real.step(tok).expect("inside the window");
            let got = replay_step(w, &ops, &mut cache, tok);
            assert_eq!(bits(&got), bits(&want), "{mode:?} step {step}");
            tok = greedy_token(&want, 0, real.len(), shape.vocab);
        }
        assert_eq!(cache.len(), real.len());
        assert_eq!(cache.bytes(), real.cache().bytes(), "{mode:?}");
        assert_eq!(cache.requants(), real.cache().requants(), "{mode:?}");
    }
}
