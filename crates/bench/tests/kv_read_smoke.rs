//! Read-path A/B tripwire: integer-domain attention over the packed KV
//! codes must beat legacy dequantize-on-read at cache length 192 — by
//! ≥1.2× on an INT8 cache and ≥1.5× on an INT4 one (the mode the
//! `decode_ctx` benchmark workload runs; ROADMAP item 1's standing rule
//! asks ≥2.5× of the committed snapshot, this gate sits below it to absorb
//! a noisy CI box). The integer path is the engine default, so if it ever
//! slips back to parity with the path it replaced, it is dead weight and
//! this test says so.
//!
//! Timing is min-of-N over interleaved runs (min is robust to scheduler
//! noise; interleaving cancels thermal drift), measuring one layer's worth
//! of per-head score + value reads — the part the two paths actually
//! disagree on; a full decode step would dilute the gap with projection
//! GEMMs. The assertion only runs in optimized builds; debug runs still
//! execute both paths and cross-check the integer scores against the
//! dequantized plane, keeping the test meaningful under plain
//! `cargo test`.

use std::time::{Duration, Instant};

use tender_model::engine::{DecodeSession, KvCache, KvCacheMode};
use tender_model::{ModelShape, SyntheticLlm};
use tender_tensor::{ops, Matrix};

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

/// One layer's worth of integer-domain reads (all heads, score + value).
fn read_integer(cache: &KvCache, heads: usize, qh: &[f32], probs: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for head in 0..heads {
        let scores = cache.attn_scores_quant(0, head, qh).expect("quant plane");
        let attn = cache
            .attn_values_quant(0, head, probs)
            .expect("quant plane");
        acc += scores[(0, 0)] + attn[(0, 0)];
    }
    acc
}

/// The legacy equivalent: dequantize each plane, then the f32 products.
fn read_dequant(cache: &KvCache, heads: usize, qh: &Matrix, probs: &Matrix) -> f32 {
    let mut acc = 0.0f32;
    for head in 0..heads {
        let k = cache.head_k(0, head);
        let scores = ops::row_dot_nt(qh, &k);
        let v = cache.head_v(0, head);
        let attn = probs.matmul(&v).expect("1×len · len×dh");
        acc += scores[(0, 0)] + attn[(0, 0)];
    }
    acc
}

#[test]
fn integer_read_path_beats_dequantize_on_read() {
    // One test, modes in sequence: two timing loops must not share the box.
    for (mode, min_speedup) in [(KvCacheMode::Int8, 1.2), (KvCacheMode::Int4, 1.5)] {
        check_mode(mode, min_speedup);
    }
}

fn check_mode(mode: KvCacheMode, min_speedup: f64) {
    let mut shape = ModelShape::tiny_test();
    shape.d_model = 128;
    shape.ffn_dim = 256;
    shape.heads = 8;
    shape.max_seq = 256;
    let cache_len = 192usize;
    let dh = shape.head_dim();

    let model = SyntheticLlm::generate(&shape, 41);
    let reference = model.reference();
    let mut session = DecodeSession::with_cache_mode(&reference, mode);
    let prompt: Vec<usize> = (0..cache_len)
        .map(|i| (i * 31 + 39) % shape.vocab)
        .collect();
    session.prefill(&prompt);
    let cache = session.cache();

    let qh: Vec<f32> = (0..dh)
        .map(|i| ((i * 13 + 5) % 17) as f32 / 8.0 - 1.0)
        .collect();
    let raw: Vec<f32> = (0..cache_len)
        .map(|j| 1.0 + ((j * 7 + 3) % 11) as f32)
        .collect();
    let total: f32 = raw.iter().sum();
    let probs: Vec<f32> = raw.into_iter().map(|p| p / total).collect();
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
