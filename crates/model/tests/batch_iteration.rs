//! The one batch iteration: every `BatchEngine` decode entry point runs
//! the same clock → price → drain → reserve boundary before its parallel
//! step, so a hand-written `try_step_all` loop *is* `resume_greedy`, a
//! session refused at the floor does not cost its neighbours their
//! logits, and the boundary's pricing is exact. The parallel step stacks
//! contiguous groups of sessions, as many groups as the pool has threads:
//! a rollout is the same however the batch is cut.

use std::process::Command;

use tender_model::engine::{settle_iteration, BatchEngine, DecodeSession, KvCacheMode, StepError};
use tender_model::{greedy_token, ModelShape, SyntheticLlm};
use tender_tensor::{ArenaConfig, KvArena};

fn prompt(n: usize, vocab: usize, salt: usize) -> Vec<usize> {
    (0..n).map(|i| (i * 7 + salt * 11 + 3) % vocab).collect()
}

/// Tokens, allocated bytes and (int8, int4) demotion counts of one rollout.
type Rollout = (Vec<Vec<usize>>, u64, (u64, u64));

/// The pressured shared-capped configuration of `kv_shared_arena.rs`:
/// four forks of an 8-token prefix on one arena (page rows 4, watermark
/// 0.5), decoded 12 steps by `decode`.
fn pressured_rollout(
    cap: Option<u64>,
    decode: impl Fn(&mut BatchEngine<'_>, &[usize], usize, usize) -> Vec<Vec<usize>>,
) -> Rollout {
    let shape = ModelShape::tiny_test();
    let model = SyntheticLlm::generate(&shape, 73);
    let reference = model.reference();
    let prefix = prompt(8, shape.vocab, 9);
    let seeds: Vec<usize> = (0..4).map(|i| (i * 13 + 2) % shape.vocab).collect();
    let arena = KvArena::new(ArenaConfig {
        page_rows: 4,
        capacity_bytes: cap,
        watermark: 0.5,
        ..ArenaConfig::default()
    });
    let mut template = DecodeSession::with_arena(&reference, KvCacheMode::F32, &arena);
    template.prefill(&prefix);
    let mut engine = BatchEngine::forked(&template, seeds.len());
    let outs = decode(&mut engine, &seeds, 12, prefix.len());
    let st = arena.stats();
    assert_eq!(st.evict_failures, 0, "a feasible cap must not refuse");
    (
        outs,
        arena.allocated_bytes(),
        (st.demoted_int8, st.demoted_int4),
    )
}

fn resume(
    engine: &mut BatchEngine<'_>,
    seeds: &[usize],
    steps: usize,
    _: usize,
) -> Vec<Vec<usize>> {
    engine
        .resume_greedy(seeds, steps)
        .expect("one seed per session")
}

/// `resume_greedy` spelled out by a caller: `try_step_all` + `greedy_token`.
fn hand_loop(
    engine: &mut BatchEngine<'_>,
    seeds: &[usize],
    steps: usize,
    prefix_len: usize,
) -> Vec<Vec<usize>> {
    let vocab = ModelShape::tiny_test().vocab;
    let mut next = seeds.to_vec();
    let mut outs = vec![Vec::new(); seeds.len()];
    for _ in 0..steps {
        let results = engine.try_step_all(&next).expect("one token per session");
        for (i, result) in results.into_iter().enumerate() {
            outs[i].push(next[i]);
            let logits = result.expect("a feasible cap refuses nobody");
            next[i] = greedy_token(&logits, 0, prefix_len + outs[i].len(), vocab);
        }
    }
    outs
}

/// At the pool's current size: the hand-written loop reproduces
/// `resume_greedy` token for token, with the same demotions. Prints a
/// digest so the test below can compare pool sizes across processes.
#[test]
fn hand_loop_reproduces_resume_greedy() {
    let (_, f32_footprint, _) = pressured_rollout(None, resume);
    let want = pressured_rollout(Some(f32_footprint), resume);
    let got = pressured_rollout(Some(f32_footprint), hand_loop);
    assert!(
        want.2 .0 > 0,
        "cap at the f32 footprint must force demotion"
    );
    assert!(want.1 <= f32_footprint, "budget overshoot");
    assert_eq!(got, want, "try_step_all skipped the iteration boundary");
    println!("digest {want:?}");
}

/// The `digest …` line `test` prints when run alone in a child process
/// whose pool has `threads` threads (the global pool is sized once per
/// process, so each size is a child run).
fn child_digest(test: &str, threads: &str) -> String {
    let exe = std::env::current_exe().expect("test binary path");
    let out = Command::new(exe)
        .args(["--exact", test, "--nocapture"])
        .env("TENDER_THREADS", threads)
        .output()
        .expect("spawn the test binary");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "TENDER_THREADS={threads} failed:\n{stdout}"
    );
    stdout
        .lines()
        .find_map(|l| l.find("digest ").map(|at| l[at..].to_string()))
        .unwrap_or_else(|| panic!("no digest at TENDER_THREADS={threads}:\n{stdout}"))
}

#[test]
fn hand_loop_reproduces_resume_greedy_at_1_and_4_threads() {
    let test = "hand_loop_reproduces_resume_greedy";
    assert_eq!(child_digest(test, "1"), child_digest(test, "4"));
}

/// Five sessions at five different lengths, f32 / int8 / int4 lanes mixed,
/// on one arena capped at `cap`, decoded 14 steps by `resume_greedy`:
/// tokens, allocated bytes and (int8, int4) demotion counts.
fn five_session_rollout(cap: Option<u64>) -> Rollout {
    let shape = ModelShape::tiny_test();
    let model = SyntheticLlm::generate(&shape, 73);
    let reference = model.reference();
    let arena = KvArena::new(ArenaConfig {
        page_rows: 4,
        capacity_bytes: cap,
        watermark: 0.5,
        ..ArenaConfig::default()
    });
    let sessions: Vec<_> = (0..5)
        .map(|i| {
            let mut s = DecodeSession::with_arena(&reference, KvCacheMode::ALL[i % 3], &arena);
            s.prefill(&prompt(3 + 4 * i, shape.vocab, i));
            s
        })
        .collect();
    let seeds: Vec<usize> = (0..5).map(|i| (i * 13 + 2) % shape.vocab).collect();
    let mut engine = BatchEngine::new(sessions);
    let outs = resume(&mut engine, &seeds, 14, 0);
    assert!(
        outs.iter().all(|o| o.len() == 14),
        "a rollout was cut short"
    );
    let st = arena.stats();
    assert_eq!(st.evict_failures, 0, "a feasible cap must not refuse");
    (
        outs,
        arena.allocated_bytes(),
        (st.demoted_int8, st.demoted_int4),
    )
}

/// The pool's size decides how the iteration cuts a batch into stacks — one
/// stack of five at one thread, 3 + 2 at two, 2 + 2 + 1 at three, five
/// stacks of one from five threads up — and must decide nothing else, with
/// the boundary drain demoting under the sessions as they go. Prints a
/// digest for the test below.
#[test]
fn five_session_rollout_digest() {
    let (_, footprint, _) = five_session_rollout(None);
    let pressured = five_session_rollout(Some(footprint * 3 / 4));
    assert!(pressured.2 .0 > 0, "the cap must force demotion");
    assert!(pressured.1 <= footprint * 3 / 4, "budget overshoot");
    println!("digest {pressured:?}");
}

#[test]
fn five_session_rollout_is_the_same_at_any_split() {
    let test = "five_session_rollout_digest";
    let one = child_digest(test, "1");
    for threads in ["2", "3", "8"] {
        assert_eq!(child_digest(test, threads), one, "TENDER_THREADS={threads}");
    }
}

/// Appends never act on the watermark: a session stepped by hand far above
/// the mark (and under the hard cap) requantizes nothing and only queues
/// what it seals, until a boundary drain does all of it at once. Prints the
/// drained arena's per-tier stats as a digest for the test below.
#[test]
fn watermark_is_acted_on_at_boundaries_only() {
    let shape = ModelShape::tiny_test();
    let model = SyntheticLlm::generate(&shape, 73);
    let reference = model.reference();
    let (page_rows, positions) = (2usize, 12usize);
    let pages = 2 * shape.layers * shape.heads * positions / page_rows;
    let footprint = pages as u64 * KvCacheMode::F32.page_alloc_bytes(shape.head_dim(), page_rows);
    let arena = KvArena::new(ArenaConfig {
        page_rows,
        capacity_bytes: Some(footprint),
        watermark: 0.25,
        ..ArenaConfig::default()
    });
    let mut session = DecodeSession::with_arena(&reference, KvCacheMode::F32, &arena);
    session.prefill(&prompt(8, shape.vocab, 4));
    for tok in prompt(positions - 8, shape.vocab, 5) {
        session.step(tok).expect("the cap holds every position");
    }
    assert!(arena.over_watermark());
    let st = arena.stats();
    assert_eq!(st.pages, [pages as u64, 0, 0]);
    assert_eq!(
        (st.demoted_int8, st.demoted_int4, st.alloc_retries),
        (0, 0, 0)
    );
    assert_eq!(arena.allocated_bytes(), footprint);
    assert_eq!(arena.demotion_queue_len(), pages);

    let (drained, _) = settle_iteration(&arena, &[]);
    let st = arena.stats();
    assert_eq!(drained.demoted as u64, st.demoted_int8 + st.demoted_int4);
    assert!(st.demoted_int8 > 0, "the drain ignored the watermark");
    assert_eq!(drained.freed_bytes, footprint - arena.allocated_bytes());
    assert_eq!(session.cache().tier_stats().pages, st.pages);
    println!("digest {st:?}");
}

#[test]
fn watermark_is_acted_on_at_boundaries_only_at_1_and_4_threads() {
    let test = "watermark_is_acted_on_at_boundaries_only";
    assert_eq!(child_digest(test, "1"), child_digest(test, "4"));
}

/// Int4 is the ladder's floor, so a cap two pages short of the batch's
/// next step leaves the last session in order nothing to demote: it comes
/// back `KvExhausted`, unstepped, and the others keep their logits.
#[test]
fn session_refused_at_the_floor_spares_its_neighbours() {
    let shape = ModelShape::tiny_test();
    let model = SyntheticLlm::generate(&shape, 73);
    let reference = model.reference();
    let mode = KvCacheMode::Int4;
    let page_rows = 4usize;
    let planes = 2 * (shape.layers * shape.heads) as u64;
    let session_page = planes * mode.page_alloc_bytes(shape.head_dim(), page_rows);
    // Three page-aligned prompts, then room for two of the three next pages.
    let arena = KvArena::new(ArenaConfig {
        page_rows,
        capacity_bytes: Some(5 * session_page),
        ..ArenaConfig::default()
    });
    let prompts: Vec<Vec<usize>> = (0..3).map(|s| prompt(page_rows, shape.vocab, s)).collect();
    let sessions: Vec<_> = prompts
        .iter()
        .map(|p| {
            let mut s = DecodeSession::with_arena(&reference, mode, &arena);
            s.try_prefill(p).expect("three prompt pages fit");
            s
        })
        .collect();
    assert_eq!(arena.allocated_bytes(), 3 * session_page);

    let mut engine = BatchEngine::new(sessions);
    let results = engine
        .try_step_all(&[1, 2, 3])
        .expect("one token per session");
    for (i, (p, tok)) in prompts.iter().zip([1, 2]).enumerate() {
        let uncapped = KvArena::new(ArenaConfig {
            page_rows,
            ..ArenaConfig::default()
        });
        let mut solo = DecodeSession::with_arena(&reference, mode, &uncapped);
        solo.prefill(p);
        let want = solo.step(tok).expect("uncapped step");
        assert_eq!(
            results[i].as_ref(),
            Ok(&want),
            "session {i} lost its logits"
        );
    }
    assert!(matches!(results[2], Err(StepError::KvExhausted(_))));
    assert_eq!(arena.stats().evict_failures, 1);
    assert!(arena.allocated_bytes() <= 5 * session_page);
    let lens: Vec<usize> = engine.into_sessions().iter().map(|s| s.len()).collect();
    assert_eq!(lens, [page_rows + 1, page_rows + 1, page_rows]);
}

/// `next_append_alloc_bytes` is what the next append reserves — on an
/// empty cache, on a page boundary, mid-page, and on a shared (CoW) tail.
#[test]
fn next_append_is_priced_exactly_in_every_mode() {
    let shape = ModelShape::tiny_test();
    let model = SyntheticLlm::generate(&shape, 73);
    let reference = model.reference();
    let page_rows = 4usize;
    let planes = 2 * (shape.layers * shape.heads) as u64;
    for mode in KvCacheMode::ALL {
        let page = planes * mode.page_alloc_bytes(shape.head_dim(), page_rows);
        let arena = KvArena::new(ArenaConfig {
            page_rows,
            ..ArenaConfig::default()
        });
        let mut s = DecodeSession::with_arena(&reference, mode, &arena);
        // (what the append is, the bytes it must be priced at)
        let check = |s: &mut DecodeSession<'_>, what: &str, want: u64| {
            let priced = s.cache().next_append_alloc_bytes();
            let before = arena.allocated_bytes();
            if s.is_empty() {
                s.prefill(&[1]);
            } else {
                s.step(1).expect("uncapped step");
            }
            let reserved = arena.allocated_bytes() - before;
            assert_eq!(
                priced,
                reserved,
                "{} {what}: priced != reserved",
                mode.label()
            );
            assert_eq!(priced, want, "{} {what}", mode.label());
        };
        check(&mut s, "empty cache", page);
        for _ in 1..page_rows {
            check(&mut s, "mid-page", 0);
        }
        check(&mut s, "page boundary", page);
        let mut fork = s.fork();
        check(&mut fork, "shared tail", page);
        check(&mut fork, "own tail after the copy", 0);
        check(&mut s, "tail the fork let go of", 0);
    }
}
