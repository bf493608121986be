//! Aggregate KV-cache gauge accounting across *multiple live sessions*.
//!
//! Regression for the last-writer-wins bug: `prefill`/`step` used to
//! `set()` the `KV_CACHE_BYTES` gauge to their own session's footprint, so
//! with several live sessions the gauge reported whichever session
//! happened to publish last instead of the fleet's total. With the paged
//! arena, pages publish by delta at allocation/free time and per-plane
//! constants at session creation/drop, so the gauge is the *physical*
//! resident total across live sessions: pages shared copy-on-write by
//! forked sessions are counted exactly once, and every fork/clone/drop
//! sequence nets the gauge back to its baseline.
//!
//! `extend_counts_what_the_step_loop_counts` pins the decode counters'
//! per-token meaning: a multi-token `extend` moves them exactly as the same
//! tokens fed through `step` do. The last test pins that `reset_all()` does
//! not touch the gauges that mirror live state.
//!
//! These tests assert exact global gauge values, so they live in their own
//! test binary (one process) and serialize on a local lock.

use std::sync::Mutex;

use tender_metrics::engine as metrics;
use tender_model::engine::{DecodeSession, KvCacheMode};
use tender_model::{ArenaConfig, KvArena, ModelShape, SyntheticLlm};

static LOCK: Mutex<()> = Mutex::new(());

fn tokens(n: usize, vocab: usize, salt: usize) -> Vec<usize> {
    (0..n).map(|i| (i * 31 + salt * 17 + 5) % vocab).collect()
}

#[test]
fn kv_gauges_sum_resident_bytes_across_live_sessions() {
    let _lock = LOCK.lock().unwrap();
    let shape = ModelShape::tiny_test();
    let model = SyntheticLlm::generate(&shape, 11);
    let reference = model.reference();

    let base = metrics::KV_CACHE_BYTES.get();
    let base_alloc = metrics::KV_CACHE_ALLOCATED_BYTES.get();

    let mut s1 = DecodeSession::new(&reference);
    s1.prefill(&tokens(6, shape.vocab, 1));
    let b1 = s1.cache().bytes();
    assert!(b1 > 0);
    assert_eq!(metrics::KV_CACHE_BYTES.get(), base + b1);

    // A second live session must *add* to the gauge, not overwrite it.
    let mut s2 = DecodeSession::new(&reference);
    s2.prefill(&tokens(4, shape.vocab, 2));
    let b2 = s2.cache().bytes();
    assert_eq!(metrics::KV_CACHE_BYTES.get(), base + b1 + b2);
    assert_eq!(
        metrics::KV_CACHE_ALLOCATED_BYTES.get(),
        base_alloc + s1.cache().allocated_bytes() + s2.cache().allocated_bytes()
    );

    // Stepping grows only the stepping session's share.
    s2.step(3).expect("in-window step");
    let b2_grown = s2.cache().bytes();
    assert!(b2_grown > b2);
    assert_eq!(metrics::KV_CACHE_BYTES.get(), base + b1 + b2_grown);

    // A clone shares every page copy-on-write: the physical aggregate is
    // unchanged (f32 planes carry no per-session constants), and the peak
    // keeps its high-water mark.
    let s3 = s1.clone();
    assert_eq!(metrics::KV_CACHE_BYTES.get(), base + b1 + b2_grown);
    let peak = metrics::KV_CACHE_PEAK_BYTES.get();
    assert!(peak >= base + b1 + b2_grown);

    // Dropping one owner of shared pages frees nothing — the pages are
    // still resident in the surviving clone…
    drop(s1);
    assert_eq!(metrics::KV_CACHE_BYTES.get(), base + b1 + b2_grown);
    assert_eq!(metrics::KV_CACHE_PEAK_BYTES.get(), peak);

    // …and the last owner's drop returns the aggregate to baseline.
    drop(s3);
    assert_eq!(metrics::KV_CACHE_BYTES.get(), base + b2_grown);
    drop(s2);
    assert_eq!(metrics::KV_CACHE_BYTES.get(), base);
    assert_eq!(metrics::KV_CACHE_ALLOCATED_BYTES.get(), base_alloc);
}

#[test]
fn prefix_shared_forks_count_shared_pages_once() {
    let _lock = LOCK.lock().unwrap();
    let shape = ModelShape::tiny_test();
    let model = SyntheticLlm::generate(&shape, 17);
    let reference = model.reference();

    let base = metrics::KV_CACHE_BYTES.get();
    let arena = KvArena::new(ArenaConfig {
        page_rows: 4,
        ..ArenaConfig::default()
    });
    let mut tpl = DecodeSession::with_arena(&reference, KvCacheMode::F32, &arena);
    tpl.prefill(&tokens(6, shape.vocab, 5));
    let shared = arena.resident_bytes();
    assert!(shared > 0);
    assert_eq!(metrics::KV_CACHE_BYTES.get(), base + shared);

    // Forks add nothing until they diverge…
    let mut a = tpl.fork();
    let mut b = tpl.fork();
    assert_eq!(metrics::KV_CACHE_BYTES.get(), base + shared);

    // …and after divergence the gauge tracks the arena's *physical*
    // resident bytes, not the sum of per-session views (which each count
    // the shared prefix pages in full).
    a.step(1 % shape.vocab).expect("in-window step");
    b.step(2 % shape.vocab).expect("in-window step");
    let physical = arena.resident_bytes();
    assert_eq!(metrics::KV_CACHE_BYTES.get(), base + physical);
    let per_session_sum = tpl.cache().bytes() + a.cache().bytes() + b.cache().bytes();
    assert!(
        physical < per_session_sum,
        "shared pages must be counted once ({physical} vs summed views {per_session_sum})"
    );

    // Fork/clone/drop deltas sum to zero: dropping every owner returns
    // the gauge exactly to its baseline.
    drop(tpl);
    drop(a);
    drop(b);
    assert_eq!(arena.resident_bytes(), 0);
    assert_eq!(metrics::KV_CACHE_BYTES.get(), base);
}

#[test]
fn quantized_sessions_publish_their_packed_footprint() {
    let _lock = LOCK.lock().unwrap();
    let shape = ModelShape::tiny_test();
    let model = SyntheticLlm::generate(&shape, 13);
    let reference = model.reference();

    let base = metrics::KV_CACHE_BYTES.get();
    let t = tokens(8, shape.vocab, 3);

    let mut f = DecodeSession::new(&reference);
    f.prefill(&t);
    let mut q = DecodeSession::with_cache_mode(&reference, KvCacheMode::Int8);
    q.prefill(&t);
    // The aggregate is the sum of the two unequal footprints.
    assert!(q.cache().bytes() < f.cache().bytes());
    assert_eq!(
        metrics::KV_CACHE_BYTES.get(),
        base + f.cache().bytes() + q.cache().bytes()
    );
    drop(f);
    drop(q);
    assert_eq!(metrics::KV_CACHE_BYTES.get(), base);
}

#[test]
fn extend_counts_what_the_step_loop_counts() {
    let _lock = LOCK.lock().unwrap();
    let shape = ModelShape::tiny_test();
    let model = SyntheticLlm::generate(&shape, 19);
    let reference = model.reference();
    let t = tokens(15, shape.vocab, 4);
    let counters = || {
        [
            metrics::DECODE_STEPS.get(),
            metrics::DECODE_MACS.get(),
            metrics::KV_INT_DOTS.get(),
            metrics::KV_INT_DOT_MACS.get(),
        ]
    };
    for mode in KvCacheMode::ALL {
        // (counter deltas, spans, Σ last_step_macs, Σ last_step_kv_int_macs)
        let run = |calls: &[&[usize]]| {
            let mut s = DecodeSession::with_cache_mode(&reference, mode);
            s.prefill(&t[..5]);
            let (before, spans) = (counters(), metrics::DECODE_STEP_TIME.count());
            let (mut macs, mut int_macs) = (0, 0);
            for call in calls {
                s.extend(call).expect("in-window extend");
                macs += s.last_step_macs();
                int_macs += s.last_step_kv_int_macs();
            }
            let after = counters();
            let delta: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
            let spans = metrics::DECODE_STEP_TIME.count() - spans;
            (delta, spans, macs, int_macs)
        };
        let (steps, step_spans, step_macs, step_int_macs) =
            run(&t[5..].chunks(1).collect::<Vec<_>>());
        let (chunk, chunk_spans, chunk_macs, chunk_int_macs) = run(&[&t[5..]]);
        assert_eq!(steps[0], 10, "one decode step per token");
        assert_eq!(chunk, steps, "{} cache", mode.label());
        assert_eq!((step_spans, chunk_spans), (10, 1));
        // The session reports the call's total, and the global counters
        // are the sum of what sessions report.
        assert_eq!((chunk_macs, chunk_int_macs), (step_macs, step_int_macs));
        assert_eq!((chunk_macs, chunk_int_macs), (chunk[1], chunk[3]));
        assert_eq!(chunk_int_macs == 0, mode == KvCacheMode::F32);
    }
}

/// Regression: `reset_all()` used to zero the gauges that mirror live state.
/// A cache alive across the reset then under-counted until the process
/// exited (they are maintained by delta and `sub` saturates at zero), and
/// `pool.threads` read 0 for good because it is published once, at spawn.
#[test]
fn reset_all_leaves_live_state_alone() {
    use tender_metrics::{kv_arena, pool};
    let _lock = LOCK.lock().unwrap();
    let shape = ModelShape::tiny_test();
    let model = SyntheticLlm::generate(&shape, 23);
    let reference = model.reference();
    let live = || {
        let banks = [
            &kv_arena::PAGES,
            &kv_arena::RESIDENT_BYTES,
            &kv_arena::ALLOCATED_BYTES,
        ];
        let mut v = vec![
            metrics::KV_CACHE_BYTES.get(),
            metrics::KV_CACHE_ALLOCATED_BYTES.get(),
            kv_arena::ARENAS.get(),
            kv_arena::DEMOTION_QUEUE_DEPTH.get(),
        ];
        v.extend(banks.iter().flat_map(|b| b.iter().map(|l| l.get())));
        v
    };
    let threads = tender_tensor::pool::current_threads() as u64;
    assert_eq!(pool::THREADS.get(), threads);

    let before = live();
    // A capped arena queues every page that seals, so the queue-depth
    // gauge is live too.
    let arena = KvArena::new(ArenaConfig {
        page_rows: 4,
        capacity_bytes: Some(64 << 20),
        ..ArenaConfig::default()
    });
    let mut session = DecodeSession::with_arena(&reference, KvCacheMode::F32, &arena);
    session.prefill(&tokens(6, shape.vocab, 7));
    let held = live();
    for (i, (h, b)) in held.iter().zip(&before).enumerate().take(4) {
        assert!(h > b, "gauge {i} did not move: {held:?} vs {before:?}");
    }
    assert_eq!(held[0], before[0] + arena.resident_bytes());

    assert!(metrics::PREFILLS.get() > 0 && metrics::KV_CACHE_PEAK_BYTES.get() > 0);
    tender_metrics::reset_all();
    // Counters and max-gauges reset as ever…
    assert_eq!(metrics::PREFILLS.get(), 0);
    assert_eq!(metrics::KV_CACHE_PEAK_BYTES.get(), 0);
    // …what is still alive is still reported…
    assert_eq!(live(), held);
    assert_eq!(pool::THREADS.get(), threads);

    // …and releasing it nets out exactly.
    drop(session);
    drop(arena);
    assert_eq!(live(), before);
}
