//! Decode-step latency on the prefill + KV-cache engine, and the cost of
//! ingesting a prompt.
//!
//! Each `decode_step` measurement is the wall-clock of one
//! `DecodeSession::step` at a given cache length, so `mean_ns` *is* the
//! per-step decode latency and `1e9 / mean_ns` is single-session tokens/s.
//! The `prefill` group times one whole `DecodeSession::prefill` at the
//! repository benchmark's model shape (`ModelShape::opt_6_7b().eval_preset()`)
//! and configurations: the FP32 reference on an f32 cache, and Tender@4 on
//! an INT8 cache (`prefill_heavy`'s), at 16, 64 and 160 prompt tokens —
//! `min_ns` of the 160-token Tender@4 row is that workload's time to first
//! token less its first greedy pick. CI runs this with
//! `BENCH_SNAPSHOT=BENCH_decode.json` and asserts the snapshot parses and
//! reports positive per-step and per-prefill latency.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tender::{scheme_by_name, Experiment, ExperimentOptions};
use tender_model::calibration::{token_batches, CorpusKind};
use tender_model::engine::{DecodeSession, KvCacheMode};
use tender_model::{ModelShape, QuantizedModel, SyntheticLlm};
use tender_quant::tender::{TenderConfig, TenderScheme};

fn tokens(n: usize, vocab: usize, salt: usize) -> Vec<usize> {
    (0..n).map(|i| (i * 31 + salt * 17 + 5) % vocab).collect()
}

/// A small-but-structured model: big enough that step cost is dominated by
/// the layer GEMMs, small enough for the bench budget.
fn bench_shape() -> ModelShape {
    let mut shape = ModelShape::tiny_test();
    shape.d_model = 128;
    shape.ffn_dim = 256;
    shape.heads = 8;
    shape.max_seq = 256;
    shape
}

fn bench_decode_step(c: &mut Criterion) {
    let shape = bench_shape();
    let model = SyntheticLlm::generate(&shape, 41);
    let reference = model.reference();
    let calib = vec![tokens(32, shape.vocab, 1)];
    let tender = QuantizedModel::build(
        model.weights(),
        Box::new(TenderScheme::new(TenderConfig::int8().with_row_chunk(8))),
        &calib,
    );

    let mut group = c.benchmark_group("decode_step");
    for cache_len in [16usize, 64, 192] {
        // Prefill once per configuration; each iteration steps one token on
        // a clone so the cache length stays fixed across iterations.
        let mut base = DecodeSession::new(&reference);
        base.prefill(&tokens(cache_len, shape.vocab, 2));
        group.bench_with_input(
            BenchmarkId::new("reference", cache_len),
            &cache_len,
            |b, _| {
                b.iter(|| {
                    let mut s = base.clone();
                    black_box(s.step(7).expect("step"))
                });
            },
        );
        let mut qbase = DecodeSession::new(&tender);
        qbase.prefill(&tokens(cache_len, shape.vocab, 2));
        group.bench_with_input(
            BenchmarkId::new("tender_int8", cache_len),
            &cache_len,
            |b, _| {
                b.iter(|| {
                    let mut s = qbase.clone();
                    black_box(s.step(7).expect("step"))
                });
            },
        );
        // Quantized-KV-cache step latency lives in `benches/kv_read.rs`,
        // which A/Bs the integer read path against dequantize-on-read.
    }
    group.finish();
}

fn bench_prefill(c: &mut Criterion) {
    let shape = ModelShape::opt_6_7b().eval_preset();
    let exp = Experiment::new(&shape, ExperimentOptions::standard());
    let t4 = exp.quantize(scheme_by_name("Tender@4").expect("registry scheme"));
    let mut group = c.benchmark_group("prefill");
    for len in [16usize, 64, 160] {
        let prompt = &token_batches(CorpusKind::Wiki, shape.vocab, 1, len, 42)[0];
        group.bench_with_input(BenchmarkId::new("reference", len), prompt, |b, prompt| {
            b.iter(|| {
                let mut s = DecodeSession::new(exp.reference());
                black_box(s.prefill(prompt))
            });
        });
        group.bench_with_input(
            BenchmarkId::new("tender4_int8", len),
            prompt,
            |b, prompt| {
                b.iter(|| {
                    let mut s = DecodeSession::with_cache_mode(&t4, KvCacheMode::Int8);
                    black_box(s.prefill(prompt))
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_decode_step, bench_prefill);
criterion_main!(benches);
