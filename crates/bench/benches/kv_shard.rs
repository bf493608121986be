//! Per-step decode latency A/B under sustained watermark pressure:
//! evict-on-append vs boundary-drained demotion on a shared capped arena.
//! (`kv_shard` is a historical name kept for `BENCH_kv_shard.json` and
//! CI: nothing here is sharded — pages are owned handles with a lock each,
//! and the A/B below is about *where* demotion runs.)
//!
//! * `kv_shard/step/evict_on_append` — one decode step on an arena with
//!   inline demotion (`deferred_demotion: false`): every append above the
//!   watermark runs the tier-major demotion scan on the critical path,
//!   even when nothing is left to demote.
//! * `kv_shard/step/boundary_drain` — the same step on a deferred arena:
//!   appends only *enqueue* sealed pages, so the scan cost leaves the
//!   per-step path entirely.
//! * `kv_shard/iter/{evict_on_append|boundary_drain}` — 16 steps plus
//!   (for the deferred arm) one boundary drain, keeping the drain's total
//!   cost honest: deferral moves work off the step path, it does not
//!   delete it.
//!
//! The session rolls forward each iteration and re-forks from a prefilled
//! template at the context window, so every timed step appends against
//! live watermark pressure. CI runs this with
//! `BENCH_SNAPSHOT=BENCH_kv_shard.json` and asserts the boundary-drain
//! step mean beats the evict-on-append step mean.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tender_model::engine::{drain_demotions, DecodeSession, KvCacheMode};
use tender_model::{ArenaConfig, KvArena, ModelShape, SyntheticLlm};

fn tokens(n: usize, vocab: usize, salt: usize) -> Vec<usize> {
    (0..n).map(|i| (i * 31 + salt * 17 + 5) % vocab).collect()
}

/// Same shape as the decode/kv_read/kv_page benches.
fn bench_shape() -> ModelShape {
    let mut shape = ModelShape::tiny_test();
    shape.d_model = 128;
    shape.ffn_dim = 256;
    shape.heads = 8;
    shape.max_seq = 256;
    shape
}

/// Cap and watermark sized so the arena sits *above* the mark for the
/// whole rollout (sustained demotion pressure) while the hard cap is
/// never reached: max working set ≈ 512 KiB of f32 pages, mark 192 KiB,
/// cap 768 KiB.
fn pressured_arena(deferred: bool) -> KvArena {
    KvArena::new(ArenaConfig {
        capacity_bytes: Some(768 * 1024),
        watermark: 0.25,
        deferred_demotion: deferred,
        ..ArenaConfig::default()
    })
}

fn bench_kv_shard(c: &mut Criterion) {
    let shape = bench_shape();
    let model = SyntheticLlm::generate(&shape, 43);
    let reference = model.reference();
    let prefix_len = 64usize;
    let prompt = tokens(prefix_len, shape.vocab, 3);

    let mut group = c.benchmark_group("kv_shard");
    for (arm, deferred) in [("evict_on_append", false), ("boundary_drain", true)] {
        let arena = pressured_arena(deferred);
        let mut template = DecodeSession::with_arena(&reference, KvCacheMode::F32, &arena);
        template.prefill(&prompt);

        // Per-step latency: exactly one decode step per timed closure.
        let mut session = template.fork();
        group.bench_function(BenchmarkId::new("step", arm), |b| {
            b.iter(|| {
                if session.len() + 1 >= shape.max_seq {
                    session = template.fork();
                }
                match session.step(1) {
                    Ok(logits) => black_box(logits.rows()),
                    Err(_) => {
                        session = template.fork();
                        0
                    }
                }
            });
        });

        // Whole-iteration cost: 16 steps plus, for the deferred arm, the
        // boundary drain that actually performs the queued demotions.
        let mut session = template.fork();
        group.bench_function(BenchmarkId::new("iter", arm), |b| {
            b.iter(|| {
                arena.advance_clock();
                for _ in 0..16 {
                    if session.len() + 1 >= shape.max_seq {
                        session = template.fork();
                    }
                    if session.step(1).is_err() {
                        session = template.fork();
                    }
                }
                if deferred {
                    black_box(drain_demotions(&arena, 0).demoted)
                } else {
                    black_box(0)
                }
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_kv_shard);
criterion_main!(benches);
