//! KV-cache read-path A/B: integer-domain attention over packed codes vs
//! legacy dequantize-on-read, on the same quantized cache.
//!
//! Two granularities:
//!
//! * `kv_read/{mode}_{path}/{len}` — the isolated read: one layer's worth
//!   of per-head score (`q·Kᵀ`) and value (`p·V`) products at a fixed
//!   cache length. The integer arm dots the packed codes in place
//!   (`KvCache::attn_scores_quant` / `attn_values_quant`); the dequant arm
//!   is the legacy path — materialize the f32 plane via `head_k`/`head_v`,
//!   then run the f32 products. This is the pair the tripwires in
//!   `tests/kv_read_smoke.rs` pin (INT8 ≥1.2×, INT4 ≥1.5×) and the one
//!   ROADMAP item 1's standing rule reads (INT4 ≥2.5× at length 192).
//! * `kv_read_step/{mode}_{path}/{len}` — one full `DecodeSession::step`
//!   under each read path, for end-to-end context (projection GEMMs
//!   dominate at this shape, so the step-level gap is diluted).
//!
//! CI runs this with `BENCH_SNAPSHOT=BENCH_kv_read.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tender_model::engine::{DecodeSession, KvCache, KvCacheMode, KvReadPath};
use tender_model::{ModelShape, SyntheticLlm};
use tender_tensor::{ops, Matrix};

fn tokens(n: usize, vocab: usize, salt: usize) -> Vec<usize> {
    (0..n).map(|i| (i * 31 + salt * 17 + 5) % vocab).collect()
}

/// Same shape as the decode bench: step cost dominated by layer GEMMs and
/// the attention read, small enough for the bench budget.
fn bench_shape() -> ModelShape {
    let mut shape = ModelShape::tiny_test();
    shape.d_model = 128;
    shape.ffn_dim = 256;
    shape.heads = 8;
    shape.max_seq = 256;
    shape
}

/// A deterministic query row (`head_dim` wide) and probability row
/// (`len` wide, positive, sums to one) for the read kernels.
fn read_operands(head_dim: usize, len: usize) -> (Vec<f32>, Vec<f32>) {
    let qh: Vec<f32> = (0..head_dim)
        .map(|i| ((i * 13 + 5) % 17) as f32 / 8.0 - 1.0)
        .collect();
    let raw: Vec<f32> = (0..len).map(|j| 1.0 + ((j * 7 + 3) % 11) as f32).collect();
    let total: f32 = raw.iter().sum();
    (qh, raw.into_iter().map(|p| p / total).collect())
}

/// One layer's worth of integer-domain reads: per head, score the query
/// against K and reduce the probabilities against V, on the packed codes.
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

/// The legacy equivalent: dequantize each plane, then run the f32
/// products the pipeline would have used.
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

fn bench_kv_read(c: &mut Criterion) {
    let shape = bench_shape();
    let model = SyntheticLlm::generate(&shape, 41);
    let reference = model.reference();
    let dh = shape.head_dim();

    let mut group = c.benchmark_group("kv_read");
    for mode in [KvCacheMode::Int8, KvCacheMode::Int4] {
        for cache_len in [16usize, 64, 192] {
            let mut base = DecodeSession::with_cache_mode(&reference, mode);
            base.prefill(&tokens(cache_len, shape.vocab, 2));
            let (qh, probs) = read_operands(dh, cache_len);
            let qh_m = Matrix::from_vec(1, dh, qh.clone()).expect("query row");
            let probs_m = Matrix::from_vec(1, cache_len, probs.clone()).expect("probs row");
            group.bench_with_input(
                BenchmarkId::new(format!("{}_integer", mode.label()), cache_len),
                &cache_len,
                |b, _| {
                    b.iter(|| black_box(read_integer(base.cache(), shape.heads, &qh, &probs)));
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("{}_dequant", mode.label()), cache_len),
                &cache_len,
                |b, _| {
                    b.iter(|| black_box(read_dequant(base.cache(), shape.heads, &qh_m, &probs_m)));
                },
            );
        }
    }
    group.finish();
}

fn bench_kv_read_step(c: &mut Criterion) {
    let shape = bench_shape();
    let model = SyntheticLlm::generate(&shape, 41);
    let reference = model.reference();

    let mut group = c.benchmark_group("kv_read_step");
    for mode in [KvCacheMode::Int8, KvCacheMode::Int4] {
        for cache_len in [16usize, 64, 192] {
            for path in [KvReadPath::Integer, KvReadPath::Dequant] {
                let mut base = DecodeSession::with_cache_mode(&reference, mode);
                base.set_kv_read_path(path);
                base.prefill(&tokens(cache_len, shape.vocab, 2));
                group.bench_with_input(
                    BenchmarkId::new(format!("{}_{}", mode.label(), path.label()), cache_len),
                    &cache_len,
                    |b, _| {
                        b.iter(|| {
                            let mut s = base.clone();
                            black_box(s.step(7).expect("step"))
                        });
                    },
                );
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench_kv_read, bench_kv_read_step);
criterion_main!(benches);
