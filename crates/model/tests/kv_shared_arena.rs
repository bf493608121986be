//! Integration stress for the shared-budget arena: many sessions holding
//! page handles of one arena across pool threads (fork = clone the
//! handles, retire = drop them), accounting identities between the
//! session-local and arena-global views, and deterministic shared-capped
//! batch rollouts under demotion pressure.

use tender_model::engine::{BatchEngine, DecodeSession, KvCacheMode};
use tender_model::{ModelShape, SyntheticLlm};
use tender_tensor::pool;
use tender_tensor::{ArenaConfig, KvArena};

fn prompt(n: usize, vocab: usize, salt: usize) -> Vec<usize> {
    (0..n).map(|i| (i * 7 + salt * 11 + 3) % vocab).collect()
}

/// Concurrent fork/append/CoW/release churn on one shared arena must leave
/// the budget exactly where the surviving sessions put it, and dropping
/// the last session must return every gauge to zero.
#[test]
fn concurrent_churn_leaves_no_residue() {
    let shape = ModelShape::tiny_test();
    let model = SyntheticLlm::generate(&shape, 71);
    let reference = model.reference();

    let arena = KvArena::new(ArenaConfig {
        page_rows: 4,
        capacity_bytes: Some(64 << 20),
        watermark: 1.0,
        ..ArenaConfig::default()
    });
    let mut template = DecodeSession::with_arena(&reference, KvCacheMode::F32, &arena);
    // A non-page-aligned prefix leaves a shared open tail, so every fork's
    // first append takes the CoW path.
    template.prefill(&prompt(6, shape.vocab, 0));
    let template = template; // shared immutably across workers

    let worker_bytes = pool::par_map(8, |i| {
        // Fork + diverge (CoW clone of the shared tail, then page opens).
        let mut fork = template.fork();
        for k in 0..6 {
            fork.step((i * 5 + k + 1) % shape.vocab).expect("in-window");
        }
        // Independent session: fresh allocation churn, dropped immediately.
        let mut solo = DecodeSession::with_arena(&reference, KvCacheMode::Int8, &arena);
        solo.prefill(&prompt(5, shape.vocab, i + 1));
        drop(solo);
        // Retain/release churn without any append.
        drop(template.fork());
        let bytes = fork.cache().allocated_bytes();
        drop(fork);
        bytes
    });
    assert!(worker_bytes.iter().all(|&b| b > 0));

    // Only the template survives; in f32 mode the session-local view has
    // no plane constants, so it equals the arena's global accounting.
    let st = arena.stats();
    assert_eq!(arena.allocated_bytes(), template.cache().allocated_bytes());
    assert_eq!(st.allocated_total(), arena.allocated_bytes());
    assert_eq!(st.evict_failures, 0, "64 MiB cap must never refuse here");

    drop(template);
    let st = arena.stats();
    assert_eq!(arena.allocated_bytes(), 0, "allocated gauge must drain");
    assert_eq!(st.pages, [0, 0, 0], "page gauges must drain");
    assert_eq!(st.resident_total(), 0, "resident gauge must drain");
}

/// The arena's global stats must equal the sum of the per-session views
/// minus the per-plane constants each cache publishes outside the arena
/// — per-payload arithmetic, checked in every storage mode.
#[test]
fn arena_stats_match_per_payload_arithmetic() {
    let shape = ModelShape::tiny_test();
    let model = SyntheticLlm::generate(&shape, 72);
    let reference = model.reference();
    let dh = shape.head_dim();
    let planes = 2 * (shape.layers * shape.heads) as u64;

    for mode in KvCacheMode::ALL {
        let arena = KvArena::new(ArenaConfig {
            page_rows: 4,
            ..ArenaConfig::default()
        });
        let sessions: Vec<_> = (0..3)
            .map(|i| {
                let mut s = DecodeSession::with_arena(&reference, mode, &arena);
                s.prefill(&prompt(7, shape.vocab, i));
                s
            })
            .collect();
        let overhead = planes * mode.head_overhead_bytes(dh);
        let allocated: u64 = sessions
            .iter()
            .map(|s| s.cache().allocated_bytes() - overhead)
            .sum();
        let resident: u64 = sessions.iter().map(|s| s.cache().bytes() - overhead).sum();
        let st = arena.stats();
        assert_eq!(
            arena.allocated_bytes(),
            allocated,
            "allocated identity fails in {} mode",
            mode.label()
        );
        assert_eq!(
            st.allocated_total(),
            allocated,
            "stats/gauge split-brain in {} mode",
            mode.label()
        );
        assert_eq!(
            st.resident_total(),
            resident,
            "resident identity fails in {} mode",
            mode.label()
        );
        drop(sessions);
        assert_eq!(arena.allocated_bytes(), 0, "leak in {} mode", mode.label());
    }
}

/// A shared-capped batch rollout under real demotion pressure must be
/// bit-identical run to run: the drain demotes in clock order, never in
/// pool interleaving order.
#[test]
fn pressured_shared_batch_is_run_to_run_deterministic() {
    let shape = ModelShape::tiny_test();
    let model = SyntheticLlm::generate(&shape, 73);
    let reference = model.reference();
    let prefix = prompt(8, shape.vocab, 9); // page-aligned at page_rows 4
    let seeds: Vec<usize> = (0..4).map(|i| (i * 13 + 2) % shape.vocab).collect();
    let steps = 12usize;

    let rollout = |cap: Option<u64>| -> (Vec<Vec<usize>>, u64, u64, u64) {
        let arena = KvArena::new(ArenaConfig {
            page_rows: 4,
            capacity_bytes: cap,
            watermark: 0.5,
            ..ArenaConfig::default()
        });
        let mut template = DecodeSession::with_arena(&reference, KvCacheMode::F32, &arena);
        template.prefill(&prefix);
        let mut engine = BatchEngine::forked(&template, seeds.len());
        let outs = engine
            .resume_greedy(&seeds, steps)
            .expect("one seed per session");
        let st = arena.stats();
        (
            outs,
            arena.allocated_bytes(),
            st.demoted_int8 + st.demoted_int4,
            st.evict_failures,
        )
    };

    // Size the cap to the batch's exact f32 footprint: feasible without
    // truncation, but over the 0.5 watermark for most of the rollout.
    let (_, f32_footprint, _, _) = rollout(None);
    let (a, bytes_a, demoted_a, failures_a) = rollout(Some(f32_footprint));
    let (b, bytes_b, demoted_b, _) = rollout(Some(f32_footprint));

    assert!(
        demoted_a > 0,
        "cap at the f32 footprint must force demotion"
    );
    assert_eq!(failures_a, 0, "feasible cap must not surface refusals");
    assert!(
        bytes_a <= f32_footprint,
        "budget overshoot: {bytes_a} > cap"
    );
    assert!(a.iter().all(|r| r.len() == steps), "no truncation expected");
    assert_eq!(a, b, "pressured shared rollout diverged between runs");
    assert_eq!(bytes_a, bytes_b);
    assert_eq!(demoted_a, demoted_b);
}
