//! Property tests for the quantized KV cache: across random model seeds,
//! head counts, and token streams, INT8/INT4 cached attention must stay
//! within a per-mode error bound of the exact f32 cache, and each mode
//! must be bit-deterministic (same inputs → byte-identical logits).
//!
//! Thread-count invariance is enforced separately by the CI subprocess
//! byte-diff (the worker pool is a global OnceLock, so one process can
//! only ever observe one thread count); these tests pin the numeric and
//! rerun-determinism halves of the contract.
//!
//! The fixed-page test at the end pins the row codec itself: a demoted page
//! must equal, packed byte for packed byte, the documented recipe spelled
//! with the scalar definitions (`classify_channels`, `quantize_value`) —
//! the codec runs on the runtime row quantizer and the classifier's
//! allocation-free core instead. (That stored bytes do not depend on how
//! rows are cut into appends is a unit test in `kv/cache.rs`, where the
//! pages are visible.)

use proptest::prelude::*;
use tender_model::engine::{demote_payload, DecodeSession, KvCacheMode};
use tender_model::{ModelShape, SyntheticLlm};
use tender_quant::quantizer::{f16_round, quantize_value};
use tender_quant::tender::{classify_channels, group_scales};
use tender_tensor::{Matrix, PagePayload, QuantRows};

/// Final-step logits of a prefill + decode rollout under `mode`.
fn decode_logits(shape: &ModelShape, seed: u64, t: &[usize], mode: KvCacheMode) -> Matrix {
    let model = SyntheticLlm::generate(shape, seed);
    let reference = model.reference();
    let mut s = DecodeSession::with_cache_mode(&reference, mode);
    let split = (t.len() / 2).max(1);
    let prefill = s.prefill(&t[..split]);
    let mut last = Matrix::from_fn(1, prefill.cols(), |_, c| prefill[(prefill.rows() - 1, c)]);
    for &tok in &t[split..] {
        last = s.step(tok).expect("in-window step");
    }
    last
}

/// Normalized L2 distance between two logits rows.
fn rel_err(exact: &Matrix, approx: &Matrix) -> f32 {
    let norm: f32 = exact.row(0).iter().map(|x| x * x).sum::<f32>().sqrt();
    let err: f32 = exact
        .row(0)
        .iter()
        .zip(approx.row(0))
        .map(|(a, b)| (a - b) * (a - b))
        .sum::<f32>()
        .sqrt();
    err / (norm + 1e-6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Quantized cached attention stays within a per-mode bound of the f32
    /// cache, and every mode is bit-deterministic on a rerun.
    #[test]
    fn quantized_cache_tracks_f32_across_shapes_and_seeds(
        seed in any::<u64>(),
        heads in 2_usize..5,
        raw in proptest::collection::vec(0_usize..128, 6..24),
    ) {
        let mut shape = ModelShape::tiny_test();
        shape.heads = heads;
        shape.d_model = heads * 16; // keep head_dim = 16
        shape.ffn_dim = 2 * shape.d_model;

        let exact = decode_logits(&shape, seed, &raw, KvCacheMode::F32);
        for (mode, bound) in [(KvCacheMode::Int8, 0.10_f32), (KvCacheMode::Int4, 0.45_f32)] {
            let approx = decode_logits(&shape, seed, &raw, mode);
            let err = rel_err(&exact, &approx);
            prop_assert!(
                err <= bound,
                "{} cache drifted: relative error {} > {} (seed {}, heads {}, len {})",
                mode.label(), err, bound, seed, heads, raw.len()
            );
            // Bit-determinism: the same rollout reproduces byte-identical
            // logits — quantization is approximate, never nondeterministic.
            let rerun = decode_logits(&shape, seed, &raw, mode);
            prop_assert_eq!(approx.row(0), rerun.row(0));
        }
    }
}

/// A 16 × 16 f32 page with two outlier channels, a sign-consistent one, a
/// NaN, an ∞ and a row of exact half-codes.
fn fixed_page() -> Matrix {
    let mut m = Matrix::from_fn(16, 16, |r, c| {
        let base = ((r * 13 + c * 7) % 29) as f32 / 9.0 - 1.5;
        match c {
            3 => base * 30.0,
            9 => 12.0 + base,
            12 => base * 6.0,
            _ => base,
        }
    });
    m[(2, 5)] = f32::NAN;
    m[(7, 0)] = f32::INFINITY;
    for c in 0..16 {
        m[(11, c)] = c as f32 * 0.5 - 3.75;
    }
    m
}

/// `demote_payload` by its documented recipe, spelled with the scalar
/// definitions: page-local f16 bias over finite values, residual `TMax`,
/// power-of-two scales, `classify_channels` tags (a non-finite residual
/// ranks as `f32::MAX`), `quantize_value` codes.
fn demote_by_definition(rows: &Matrix, mode: KvCacheMode) -> (QuantRows, Vec<f32>, Vec<f32>, f32) {
    let (bits, groups, dh) = (mode.bits(), mode.num_groups(), rows.cols());
    let bias: Vec<f32> = (0..dh)
        .map(|c| {
            let finite = rows.col(c).into_iter().filter(|x| x.is_finite());
            let (lo, hi) = finite.fold((f32::INFINITY, f32::NEG_INFINITY), |(lo, hi), x| {
                (lo.min(x), hi.max(x))
            });
            if lo <= hi {
                f16_round(0.5 * (lo + hi))
            } else {
                0.0
            }
        })
        .collect();
    let resid = Matrix::from_fn(rows.rows(), dh, |r, c| rows[(r, c)] - bias[c]);
    let tmax = resid
        .as_slice()
        .iter()
        .filter(|x| x.is_finite())
        .fold(f32::MIN_POSITIVE, |m, x| m.max(x.abs()));
    let scales = group_scales(tmax, groups, 2, bits);
    let mut out = QuantRows::with_row_capacity(dh, bits, groups > 1, rows.rows());
    for r in 0..rows.rows() {
        let mags: Vec<f32> = resid
            .row(r)
            .iter()
            .map(|x| if x.is_finite() { x.abs() } else { f32::MAX })
            .collect();
        let tags = classify_channels(&mags, tmax, groups, 2).expect("finite magnitudes");
        let codes: Vec<i32> = resid
            .row(r)
            .iter()
            .zip(&tags)
            .map(|(&x, &g)| quantize_value(x, scales[g], bits))
            .collect();
        let tags: Vec<u8> = if groups > 1 {
            tags.iter().map(|&g| g as u8).collect()
        } else {
            Vec::new()
        };
        out.push_row(&codes, &tags);
    }
    (out, scales, bias, tmax)
}

#[test]
fn demoting_a_fixed_page_follows_the_scalar_recipe_byte_for_byte() {
    let page = fixed_page();
    let mut payload = PagePayload::F32(page.clone());
    let mut rows = page;
    // f32 → int8, then that page's own dequantized rows → int4: both rungs
    // of the ladder, the second from the first's output.
    for mode in [KvCacheMode::Int8, KvCacheMode::Int4] {
        let (want_rows, want_scales, want_bias, want_tmax) = demote_by_definition(&rows, mode);
        payload = demote_payload(&payload, mode);
        let PagePayload::Quant(q) = &payload else {
            panic!("demotion yields a quantized page");
        };
        assert_eq!(q.rows, want_rows, "{} codes and tags", mode.label());
        assert_eq!(q.scales, want_scales);
        assert_eq!(*q.bias, want_bias);
        assert_eq!(q.tmax.to_bits(), want_tmax.to_bits());
        assert!(q.page_local);
        rows = Matrix::from_fn(rows.rows(), rows.cols(), |r, c| {
            let (code, g) = q.rows.get(r, c);
            code as f32 * q.scales[g] + q.bias[c]
        });
    }
}
