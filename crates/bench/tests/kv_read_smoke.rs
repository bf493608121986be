//! Read-path A/B tripwire: integer-domain attention over the packed KV
//! codes must beat the gathered dequantize-on-read at cache length 192 — by
//! ≥1.2× on an INT8 cache and ≥1.5× on an INT4 one (the mode the
//! `decode_ctx` benchmark workload runs; ROADMAP item 1's standing rule
//! asks ≥2.5× of the committed snapshot, this gate sits below it to absorb
//! a noisy CI box) — and the in-place read of an f32-mode cache must beat
//! the gathered read by ≥1.2×, all-f32 and with demoted pages under an f32
//! tail (the `serve_pressure` shape). The in-place reads are the engine
//! default, so if one ever slips back to parity with the path it replaced,
//! it is dead weight and this test says so.
//!
//! Timing is min-of-N over interleaved runs (min is robust to scheduler
//! noise; interleaving cancels thermal drift), measuring one layer's worth
//! of per-head score + value reads — the part the two paths actually
//! disagree on; a full decode step would dilute the gap with projection
//! GEMMs. The assertion only runs in optimized builds; debug runs still
//! execute both paths and cross-check them (the integer scores within the
//! 8-bit rounding of the operands, the f32 read bit for bit), keeping the
//! test meaningful under plain `cargo test`.

use std::time::{Duration, Instant};

use tender_model::engine::{DecodeSession, KvCacheMode};
use tender_model::SyntheticLlm;
use tender_tensor::{ops, Matrix, PageTier};

#[path = "support/kv_read.rs"]
mod support;
use support::{
    bench_shape, f32_cache, read_dequant, read_f32_inplace, read_integer, read_operands,
};

/// Min-of-N wall time of `f`.
fn min_time<R>(n: usize, mut f: impl FnMut() -> R) -> Duration {
    (0..n)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed()
        })
        .min()
        .expect("n > 0")
}

#[test]
fn integer_read_path_beats_dequantize_on_read() {
    // One test, modes in sequence: two timing loops must not share the box.
    for (mode, min_speedup) in [(KvCacheMode::Int8, 1.2), (KvCacheMode::Int4, 1.5)] {
        check_mode(mode, min_speedup);
    }
    check_f32("f32", &[PageTier::F32], 1.2);
    check_f32(
        "f32mixed",
        &[PageTier::Int4, PageTier::Int8, PageTier::F32],
        1.2,
    );
}

const CACHE_LEN: usize = 192;

/// The in-place read of an f32-mode cache whose runs (oldest first) the
/// drain took down to `floors`.
fn check_f32(label: &str, floors: &[PageTier], min_speedup: f64) {
    let shape = bench_shape();
    let mut cache = f32_cache(&shape, CACHE_LEN, floors);

    let (qh, probs) = read_operands(shape.head_dim(), CACHE_LEN);
    let qh_m = Matrix::from_vec(1, qh.len(), qh.clone()).expect("query row");
    let probs_m = Matrix::from_vec(1, CACHE_LEN, probs.clone()).expect("probs row");

    // Identity first, and here it is exact: same pages, same chains.
    let bits = |m: &Matrix| -> Vec<u32> { m.as_slice().iter().map(|x| x.to_bits()).collect() };
    for head in 0..shape.heads {
        let scores = cache.attn_scores_f32(0, head, &qh).expect("f32 cache");
        let gathered = ops::row_dot_nt(&qh_m, &cache.head_k(0, head));
        assert_eq!(bits(&scores), bits(&gathered), "{label} head {head} scores");
        let attn = cache.attn_values_f32(0, head, &probs).expect("f32 cache");
        let gathered = probs_m
            .matmul(&cache.head_v(0, head))
            .expect("1×len · len×dh");
        assert_eq!(bits(&attn), bits(&gathered), "{label} head {head} values");
    }

    if cfg!(debug_assertions) {
        eprintln!("debug build: {label} identity checked, timing assertion skipped");
        return;
    }

    let heads = shape.heads;
    let in_place_t = min_time(30, || read_f32_inplace(&mut cache, heads, &qh, &probs));
    let gather_t = min_time(30, || read_dequant(&cache, heads, &qh_m, &probs_m));
    let speedup = gather_t.as_secs_f64() / in_place_t.as_secs_f64();
    eprintln!(
        "{label} @ len {CACHE_LEN}: in place {in_place_t:?} vs gathered {gather_t:?} ({speedup:.2}x)"
    );
    assert!(
        speedup >= min_speedup,
        "{label} in-place read is only {speedup:.2}x the gathered read at len {CACHE_LEN} \
         (gate {min_speedup}x)"
    );
}

fn check_mode(mode: KvCacheMode, min_speedup: f64) {
    let shape = bench_shape();
    let cache_len = CACHE_LEN;
    let dh = shape.head_dim();

    let model = SyntheticLlm::generate(&shape, 41);
    let reference = model.reference();
    let mut session = DecodeSession::with_cache_mode(&reference, mode);
    let prompt: Vec<usize> = (0..cache_len)
        .map(|i| (i * 31 + 39) % shape.vocab)
        .collect();
    session.prefill(&prompt);
    let cache = session.cache();

    let (qh, probs) = read_operands(dh, cache_len);
    let qh_m = Matrix::from_vec(1, dh, qh.clone()).expect("query row");
    let probs_m = Matrix::from_vec(1, cache_len, probs.clone()).expect("probs row");

    // Identity first: the integer path must track the dequantized plane —
    // a fast wrong kernel must fail here, not get timed. The only daylight
    // is the 8-bit quantization of qh/probs, so compare per-element
    // against a loose absolute bound scaled to the score magnitudes.
    let label = mode.label();
    for head in 0..shape.heads {
        let int_scores = cache.attn_scores_quant(0, head, &qh).expect("quant plane");
        let deq_scores = ops::row_dot_nt(&qh_m, &cache.head_k(0, head));
        let max_mag = deq_scores
            .row(0)
            .iter()
            .fold(0.0f32, |m, v| m.max(v.abs()))
            .max(1.0);
        for (c, (i, d)) in int_scores.row(0).iter().zip(deq_scores.row(0)).enumerate() {
            assert!(
                (i - d).abs() <= 0.05 * max_mag,
                "{label} head {head} score {c}: integer {i} vs dequant {d}"
            );
        }
    }

    if cfg!(debug_assertions) {
        eprintln!("debug build: {label} identity checked, timing assertion skipped");
        return;
    }

    let iters = 30;
    let heads = shape.heads;
    let int_t = min_time(iters, || read_integer(cache, heads, &qh, &probs));
    let deq_t = min_time(iters, || read_dequant(cache, heads, &qh_m, &probs_m));
    let speedup = deq_t.as_secs_f64() / int_t.as_secs_f64();
    eprintln!(
        "{label} @ len {cache_len}: integer {:?} vs dequant {:?} ({speedup:.2}x)",
        int_t, deq_t
    );
    assert!(
        speedup >= min_speedup,
        "{label} integer read path is only {speedup:.2}x dequantize-on-read at len {cache_len} \
         (gate {min_speedup}x)"
    );
}
