//! KV-cache read-path A/B: the in-place reads (integer-domain attention
//! over packed codes; the page-by-page f32 read of an f32-mode cache) vs
//! the gathered read, on the same cache.
//!
//! Two granularities:
//!
//! * `kv_read/{mode}_{path}/{len}` — the isolated read: one layer's worth
//!   of per-head score (`q·Kᵀ`) and value (`p·V`) products at a fixed
//!   cache length. The integer arm dots the packed codes in place
//!   (`KvCache::attn_scores_quant` / `attn_values_quant`); the dequant arm
//!   is the gathered read — materialize the f32 plane via
//!   `head_k`/`head_v`, then run the f32 products. This is the pair the
//!   tripwires in `tests/kv_read_smoke.rs` pin (INT8 ≥1.2×, INT4 ≥1.5×)
//!   and the one ROADMAP item 1's standing rule reads (INT4 ≥2.5× at
//!   length 192). `f32_{inplace,gather}` is the same pair on an f32-mode
//!   cache (`KvCache::attn_scores_f32` / `attn_values_f32` vs the gathered
//!   read), and `f32mixed_*` on one whose oldest pages a capped arena's
//!   drain has demoted to int4 and int8 under an f32 tail (tripwire: in
//!   place ≥1.2× at length 192).
//! * `kv_read_step/{mode}_{path}/{len}` — one full `DecodeSession::step`
//!   under each read path, for end-to-end context (projection GEMMs
//!   dominate at this shape, so the step-level gap is diluted).
//!
//! CI runs this with `BENCH_SNAPSHOT=BENCH_kv_read.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tender_model::engine::{DecodeSession, KvCacheMode, KvReadPath};
use tender_model::SyntheticLlm;
use tender_tensor::{Matrix, PageTier};

#[path = "../tests/support/kv_read.rs"]
mod support;
use support::{
    bench_shape, f32_cache, read_dequant, read_f32_inplace, read_integer, read_operands,
};

fn tokens(n: usize, vocab: usize, salt: usize) -> Vec<usize> {
    (0..n).map(|i| (i * 31 + salt * 17 + 5) % vocab).collect()
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
    // The f32-mode pair: every page f32, then the oldest third int4 and the
    // next third int8 (what a capped arena's drain leaves behind).
    for (label, floors, lens) in [
        ("f32", &[PageTier::F32][..], &[16usize, 64, 192][..]),
        (
            "f32mixed",
            &[PageTier::Int4, PageTier::Int8, PageTier::F32][..],
            &[192][..],
        ),
    ] {
        for &cache_len in lens {
            let mut cache = f32_cache(&shape, cache_len, floors);
            let (qh, probs) = read_operands(dh, cache_len);
            let qh_m = Matrix::from_vec(1, dh, qh.clone()).expect("query row");
            let probs_m = Matrix::from_vec(1, cache_len, probs.clone()).expect("probs row");
            group.bench_with_input(
                BenchmarkId::new(format!("{label}_inplace"), cache_len),
                &cache_len,
                |b, _| {
                    b.iter(|| black_box(read_f32_inplace(&mut cache, shape.heads, &qh, &probs)));
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("{label}_gather"), cache_len),
                &cache_len,
                |b, _| {
                    b.iter(|| black_box(read_dequant(&cache, shape.heads, &qh_m, &probs_m)));
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
