//! Property tests for the eviction ladder's page demotion.
//!
//! Two contracts pin the tiered KV arena's numerics:
//!
//! 1. **Demotion is quantize-from-scratch.** `demote_payload` reconstructs
//!    a page's rows to f32 and requantizes them with page-local
//!    calibration. An *independent* reimplementation of the recipe
//!    (page-local `(lo+hi)/2` f16 bias, residual `TMax`, power-of-two
//!    group scales, channel classification) must produce bit-identical
//!    packed codes, group tags, scales, bias, and `TMax` — for both rungs
//!    of the ladder, f32→int8 and int8→int4.
//!
//! 2. **Post-demotion decode stays bounded.** A session whose cold pages
//!    were forced down the ladder by an arena watermark must keep its
//!    decode logits within the same per-mode relative-L2 bounds the
//!    full-cache quantized modes honour (int8 ≤ 0.10, int4 ≤ 0.45), since
//!    demotion quantizes a *subset* of what those modes quantize.

use proptest::prelude::*;
use tender_model::engine::{settle_iteration, DecodeSession, KvCacheMode};
use tender_model::{demote_payload, ArenaConfig, KvArena, ModelShape, SyntheticLlm};
use tender_quant::quantizer::{f16_round, quantize_value};
use tender_quant::tender::{classify_channels, group_scales};
use tender_tensor::arena::QuantPage;
use tender_tensor::{Matrix, PagePayload, QuantRows};

/// The decomposition threshold ratio the engine quantizes with.
const ALPHA: u32 = 2;

/// Independent from-scratch quantization of `rows` at `mode`, mirroring
/// the recipe `demote_payload` documents (not its code).
fn quantize_from_scratch(rows: &[Vec<f32>], dh: usize, mode: KvCacheMode) -> QuantPage {
    let bits = mode.bits();
    let groups = mode.num_groups();

    let mut bias = vec![0.0f32; dh];
    for (c, b) in bias.iter_mut().enumerate() {
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        for row in rows {
            if row[c].is_finite() {
                lo = lo.min(row[c]);
                hi = hi.max(row[c]);
            }
        }
        if lo <= hi {
            *b = f16_round(0.5 * (lo + hi));
        }
    }
    let mut tmax = 0.0f32;
    for row in rows {
        for (c, &x) in row.iter().enumerate() {
            let resid = x - bias[c];
            if resid.is_finite() {
                tmax = tmax.max(resid.abs());
            }
        }
    }
    let tmax = tmax.max(f32::MIN_POSITIVE);
    let scales = group_scales(tmax, groups, ALPHA, bits);

    let mut out = QuantRows::with_row_capacity(dh, bits, groups > 1, rows.len());
    for row in rows {
        let resid: Vec<f32> = row.iter().zip(&bias).map(|(x, b)| x - b).collect();
        let mags: Vec<f32> = resid.iter().map(|x| x.abs()).collect();
        let gs: Vec<u8> = if groups > 1 {
            classify_channels(&mags, tmax, groups, ALPHA)
                .expect("finite magnitudes")
                .into_iter()
                .map(|g| g as u8)
                .collect()
        } else {
            Vec::new()
        };
        let qs: Vec<i32> = resid
            .iter()
            .enumerate()
            .map(|(c, &x)| {
                quantize_value(x, scales[gs.get(c).copied().unwrap_or(0) as usize], bits)
            })
            .collect();
        out.push_row(&qs, &gs);
    }
    QuantPage {
        rows: out,
        scales,
        bias: std::sync::Arc::new(bias),
        tmax,
        page_local: true,
    }
}

/// Decodes a quantized page's rows back to f32 via its own snapshot.
fn reconstruct(q: &QuantPage, dh: usize) -> Vec<Vec<f32>> {
    (0..q.rows.rows())
        .map(|r| {
            let row: Vec<f32> = q
                .rows
                .row_iter(r)
                .zip(q.bias.iter())
                .map(|((code, g), b)| code as f32 * q.scales[g] + b)
                .collect();
            assert_eq!(row.len(), dh, "row {r} width");
            row
        })
        .collect()
}

/// Asserts the demoted page and the from-scratch page are bit-identical:
/// packed code bytes, group tags, scales, bias, and `TMax`.
fn assert_bit_identical(demoted: &QuantPage, scratch: &QuantPage, what: &str) {
    assert!(
        demoted.page_local,
        "{what}: demoted pages own their snapshot"
    );
    assert_eq!(
        demoted.tmax.to_bits(),
        scratch.tmax.to_bits(),
        "{what}: TMax"
    );
    let d_scales: Vec<u32> = demoted.scales.iter().map(|s| s.to_bits()).collect();
    let s_scales: Vec<u32> = scratch.scales.iter().map(|s| s.to_bits()).collect();
    assert_eq!(d_scales, s_scales, "{what}: scales");
    let d_bias: Vec<u32> = demoted.bias.iter().map(|b| b.to_bits()).collect();
    let s_bias: Vec<u32> = scratch.bias.iter().map(|b| b.to_bits()).collect();
    assert_eq!(d_bias, s_bias, "{what}: bias");
    assert_eq!(demoted.rows.rows(), scratch.rows.rows(), "{what}: rows");
    for r in 0..demoted.rows.rows() {
        assert_eq!(
            demoted.rows.row_vals(r),
            scratch.rows.row_vals(r),
            "{what}: packed codes, row {r}"
        );
        assert_eq!(
            demoted.rows.row_groups(r),
            scratch.rows.row_groups(r),
            "{what}: group tags, row {r}"
        );
    }
}

fn as_quant(p: &PagePayload) -> &QuantPage {
    match p {
        PagePayload::Quant(q) => q,
        PagePayload::F32(_) => panic!("demotion must leave a quantized payload"),
    }
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
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Both rungs of the demotion ladder match from-scratch quantization
    /// bit-for-bit, including pages with outlier channels.
    #[test]
    fn demotion_matches_quantize_from_scratch_bit_for_bit(
        vals in proptest::collection::vec(-50.0_f32..50.0, 16..96),
        outlier in 1.0_f32..64.0,
    ) {
        let dh = 8usize;
        let nrows = vals.len() / dh;
        prop_assume!(nrows >= 2);
        let m = Matrix::from_fn(nrows, dh, |r, c| {
            let x = vals[r * dh + c];
            // One hot channel per page exercises the grouped int4 path.
            if c == 3 { x * outlier } else { x }
        });
        let rows_f32: Vec<Vec<f32>> = (0..nrows).map(|r| m.row(r).to_vec()).collect();

        // Rung 1: f32 → int8.
        let p8 = demote_payload(&PagePayload::F32(m.clone()), KvCacheMode::Int8);
        let s8 = quantize_from_scratch(&rows_f32, dh, KvCacheMode::Int8);
        assert_bit_identical(as_quant(&p8), &s8, "f32→int8");

        // Rung 2: int8 → int4 quantizes the int8-reconstructed rows.
        let p4 = demote_payload(&p8, KvCacheMode::Int4);
        let s4 = quantize_from_scratch(&reconstruct(as_quant(&p8), dh), dh, KvCacheMode::Int4);
        assert_bit_identical(as_quant(&p4), &s4, "int8→int4");

        // Direct f32 → int4 also matches from-scratch on the raw rows.
        let p4d = demote_payload(&PagePayload::F32(m), KvCacheMode::Int4);
        let s4d = quantize_from_scratch(&rows_f32, dh, KvCacheMode::Int4);
        assert_bit_identical(as_quant(&p4d), &s4d, "f32→int4");
    }

    /// Decode logits after watermark-forced demotion stay within the
    /// per-mode relative-L2 bounds of the full-cache quantized modes.
    #[test]
    fn post_demotion_decode_stays_within_mode_bounds(
        seed in any::<u64>(),
        salt in 0_usize..64,
    ) {
        let shape = ModelShape::tiny_test();
        let model = SyntheticLlm::generate(&shape, seed);
        let reference = model.reference();
        let dh = shape.head_dim() as u64;
        let planes = 2 * (shape.layers * shape.heads) as u64;
        let prompt: Vec<usize> = (0..8).map(|i| (i * 31 + salt * 17 + 5) % shape.vocab).collect();
        let steps: Vec<usize> = (0..3).map(|i| (i * 13 + salt) % shape.vocab).collect();

        // Exact baseline: unbounded f32 arena.
        let mut exact_s = DecodeSession::new(&reference);
        exact_s.prefill(&prompt);
        let mut exact = Matrix::from_fn(1, 1, |_, _| 0.0);
        for &t in &steps {
            exact = exact_s.step(t).expect("in-window step");
        }

        // (watermark, page rows, demotion floor check, bound) per ladder
        // depth: the capacity always holds the full f32 prompt, a 0.5
        // watermark demotes sealed pages to int8, and a 0.1 watermark is
        // below even the all-int8 footprint, pushing cold pages on to
        // int4. Demotion is shrink-only, and at page rows 2 an int4 page's
        // group metadata outweighs its code savings over int8 (76 B vs
        // 72 B at head_dim 16) — so the int8 rung runs at page rows 2
        // (where the ladder provably *stops* at int8) and the int4-floor
        // rung at page rows 4 (104 B → 100 B, a real shrink).
        let full_f32 = planes * 8 * dh * 4;
        for (watermark, page_rows, want_int4, bound) in
            [(0.5_f64, 2_usize, false, 0.10_f32), (0.1, 4, true, 0.45)]
        {
            let arena = KvArena::new(ArenaConfig {
                page_rows,
                capacity_bytes: Some(full_f32),
                watermark,
                ..ArenaConfig::default()
            });
            // A hand-stepped session is its own engine: it drains at its
            // own boundaries, after the prefill and after every step.
            let boundary = || {
                settle_iteration(&arena, &[]);
            };
            let mut s = DecodeSession::with_arena(&reference, KvCacheMode::F32, &arena);
            s.prefill(&prompt);
            boundary();
            let mut approx = Matrix::from_fn(1, 1, |_, _| 0.0);
            for &t in &steps {
                approx = s.step(t).expect("post-demotion step");
                boundary();
            }
            let stats = arena.stats();
            prop_assert!(
                stats.demoted_int8 > 0,
                "watermark {watermark} never demoted a page"
            );
            if want_int4 {
                prop_assert!(stats.demoted_int4 > 0, "watermark {watermark} must reach int4");
            } else {
                // At this geometry int4 would *grow* the page; the
                // shrink-only rule must hold the ladder at int8 even under
                // unmet watermark pressure.
                prop_assert!(
                    stats.demoted_int4 == 0,
                    "non-shrinking int4 demotion must be refused at page rows {page_rows}"
                );
            }
            let err = rel_err(&exact, &approx);
            prop_assert!(
                err <= bound,
                "post-demotion drift {} > {} (watermark {}, seed {}, salt {})",
                err, bound, watermark, seed, salt
            );
        }
    }
}
