//! Shared-prefix prefill A/B on the paged KV arena.
//!
//! Two granularities:
//!
//! * `kv_page_admit/{fork|prefill}/{len}` — standing up a new session
//!   holding `len` tokens of common context: the fork arm clones a
//!   prefilled template copy-on-write (refcount bumps, no row copies, no
//!   forward passes), the prefill arm runs the full prefill a fresh
//!   session would pay without sharing. The gap is the admission saving
//!   the serve layer's `--shared-prefix` mode banks per request.
//! * `kv_page_rollout/{shared|unshared}/{n}` — `n` sessions each decoding
//!   two tokens after a 64-token common prompt: the shared arm forks one
//!   template and resumes, the unshared arm prefills every session from
//!   scratch. End-to-end context for the same saving under the batch
//!   engine.
//!
//! CI runs this with `BENCH_SNAPSHOT=BENCH_kv_page.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tender_model::engine::{BatchEngine, DecodeSession, KvCacheMode};
use tender_model::{ArenaConfig, KvArena, ModelShape, SyntheticLlm};

fn tokens(n: usize, vocab: usize, salt: usize) -> Vec<usize> {
    (0..n).map(|i| (i * 31 + salt * 17 + 5) % vocab).collect()
}

/// Same shape as the decode/kv_read benches.
fn bench_shape() -> ModelShape {
    let mut shape = ModelShape::tiny_test();
    shape.d_model = 128;
    shape.ffn_dim = 256;
    shape.heads = 8;
    shape.max_seq = 256;
    shape
}

fn bench_kv_page_admit(c: &mut Criterion) {
    let shape = bench_shape();
    let model = SyntheticLlm::generate(&shape, 43);
    let reference = model.reference();

    let mut group = c.benchmark_group("kv_page_admit");
    for prefix_len in [16usize, 64, 192] {
        let prompt = tokens(prefix_len, shape.vocab, 3);
        let arena = KvArena::new(ArenaConfig::default());
        let mut template = DecodeSession::with_arena(&reference, KvCacheMode::F32, &arena);
        template.prefill(&prompt);
        group.bench_with_input(BenchmarkId::new("fork", prefix_len), &prefix_len, |b, _| {
            b.iter(|| black_box(template.fork().len()));
        });
        group.bench_with_input(
            BenchmarkId::new("prefill", prefix_len),
            &prefix_len,
            |b, _| {
                b.iter(|| {
                    let mut s = DecodeSession::new(&reference);
                    black_box(s.prefill(&prompt).rows())
                });
            },
        );
    }
    group.finish();
}

fn bench_kv_page_rollout(c: &mut Criterion) {
    let shape = bench_shape();
    let model = SyntheticLlm::generate(&shape, 43);
    let reference = model.reference();
    let prefix_len = 64usize;
    let steps = 2usize;
    let prompt = tokens(prefix_len, shape.vocab, 3);

    let mut group = c.benchmark_group("kv_page_rollout");
    for n in [2usize, 8] {
        let arena = KvArena::new(ArenaConfig::default());
        let mut template = DecodeSession::with_arena(&reference, KvCacheMode::F32, &arena);
        template.prefill(&prompt);
        let seeds: Vec<usize> = (0..n).map(|i| (i * 7 + 1) % shape.vocab).collect();
        let prompts: Vec<Vec<usize>> = (0..n).map(|_| prompt.clone()).collect();
        group.bench_with_input(BenchmarkId::new("shared", n), &n, |b, _| {
            b.iter(|| {
                let mut engine = BatchEngine::forked(&template, n);
                black_box(
                    engine
                        .resume_greedy(&seeds, steps)
                        .expect("one seed per session"),
                )
            });
        });
        group.bench_with_input(BenchmarkId::new("unshared", n), &n, |b, _| {
            b.iter(|| {
                let sessions = (0..n).map(|_| DecodeSession::new(&reference)).collect();
                let mut engine = BatchEngine::new(sessions);
                black_box(
                    engine
                        .generate_greedy(&prompts, steps)
                        .expect("one prompt per session"),
                )
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_kv_page_admit, bench_kv_page_rollout);
criterion_main!(benches);
