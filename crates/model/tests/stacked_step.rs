//! The stack equals the steps: `engine::step_stacked` feeds one token to
//! each of several sessions through **one** cached forward — their decode
//! rows share one product per weight site — and must leave every session
//! exactly where its own `step` would have: the same logits, MAC counts,
//! cache bytes and stored pages, bit for bit, whatever else is in the stack.
//!
//! What a stack mixes that a solo step never sees: sessions at different
//! lengths (so rows of one product sit in different Tender calibration
//! chunks — the schemes here calibrate with `with_row_chunk(4)`), cache
//! modes (f32 / int8 / int4 lanes side by side), copy-on-write forks that
//! still share a partial tail page with their template, sessions of another
//! model, sessions of a quantized model that shares its reference's
//! tensors, sessions that must be refused before anything is touched, and a
//! lane whose arena runs dry halfway through the layers.
//!
//! The tests read process-global counters, so they serialize on a lock.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use tender_metrics::engine as metrics;
use tender_model::engine::{step_stacked, DecodeSession, KvCacheMode, ModelRef, StepError};
use tender_model::{
    ArenaConfig, KvArena, ModelShape, QuantizedModel, ReferenceModel, SyntheticLlm,
};
use tender_quant::tender::{TenderConfig, TenderScheme};
use tender_tensor::Matrix;

static LOCK: Mutex<()> = Mutex::new(());

const PAGE_ROWS: usize = 4;

fn tokens(n: usize, vocab: usize, salt: usize) -> Vec<usize> {
    (0..n).map(|i| (i * 29 + salt * 13 + 7) % vocab).collect()
}

fn paged(capacity_bytes: Option<u64>) -> KvArena {
    KvArena::new(ArenaConfig {
        page_rows: PAGE_ROWS,
        capacity_bytes,
        ..ArenaConfig::default()
    })
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Everything a later token could observe of a session: the step's MAC
/// counts, the cache's size and requant count, and every plane as stored
/// (gathered under each page's own scale snapshot).
fn image(shape: &ModelShape, s: &DecodeSession<'_>) -> (Vec<u64>, Vec<Vec<u32>>) {
    let cache = s.cache();
    let counts = vec![
        s.len() as u64,
        s.last_step_macs(),
        s.last_step_kv_int_macs(),
        cache.bytes(),
        cache.allocated_bytes(),
        cache.requants(),
    ];
    let planes = (0..shape.layers)
        .flat_map(|li| (0..shape.heads).map(move |head| (li, head)))
        .flat_map(|(li, head)| [bits(&cache.head_k(li, head)), bits(&cache.head_v(li, head))])
        .collect();
    (counts, planes)
}

/// One lane of the drawn batch: own prompt length, cache mode, and whether
/// it is a fork of that mode's shared template.
type LaneSpec = (usize, usize, bool);

/// Builds the drawn batch on a fresh arena. Called twice per case, so the
/// stacked sessions and their solo twins share no page.
fn build<'m>(
    model: ModelRef<'m>,
    vocab: usize,
    template_len: usize,
    lanes: &[LaneSpec],
) -> Vec<DecodeSession<'m>> {
    let arena = paged(None);
    let templates: Vec<DecodeSession<'m>> = KvCacheMode::ALL
        .iter()
        .map(|&mode| {
            let mut t = DecodeSession::with_arena(model, mode, &arena);
            t.prefill(&tokens(template_len, vocab, 3));
            t
        })
        .collect();
    lanes
        .iter()
        .enumerate()
        .map(|(i, &(len, mode_idx, forked))| {
            if !forked {
                let mut s = DecodeSession::with_arena(model, KvCacheMode::ALL[mode_idx], &arena);
                s.prefill(&tokens(len, vocab, 5 + i));
                return s;
            }
            // A fork shares the template's partial tail until it appends;
            // every other fork has already diverged by a few rows.
            let mut s = templates[mode_idx].fork();
            if len % 2 == 1 {
                s.extend(&tokens(len % 5 + 1, vocab, 9 + i))
                    .expect("in-window extend");
            }
            s
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Lockstep iterations of one `step_stacked` over the whole batch equal
    /// stepping identically built twins one by one.
    #[test]
    fn stacked_step_equals_independent_steps(
        seed in any::<u64>(),
        scheme_idx in 0_usize..3,
        lanes in proptest::collection::vec((1_usize..24, 0_usize..3, any::<bool>()), 1..7),
        template_len in 1_usize..11,
        iterations in 1_usize..21,
    ) {
        let _lock = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let shape = ModelShape::tiny_test();
        let llm = SyntheticLlm::generate(&shape, seed);
        let reference = llm.reference();
        let quantized = [TenderConfig::int8(), TenderConfig::int4()]
            .get(scheme_idx.wrapping_sub(1))
            .map(|config| {
                let scheme = TenderScheme::new(config.clone().with_row_chunk(4));
                QuantizedModel::build(llm.weights(), Box::new(scheme), &[tokens(24, shape.vocab, 2)])
            });
        let model: ModelRef<'_> = match &quantized {
            Some(qm) => qm.into(),
            None => (&reference).into(),
        };

        let mut stacked = build(model, shape.vocab, template_len, &lanes);
        let mut solo = build(model, shape.vocab, template_len, &lanes);
        for it in 0..iterations {
            let fed: Vec<usize> = (0..lanes.len())
                .map(|i| (it * 31 + i * 17 + seed as usize % 97) % shape.vocab)
                .collect();
            let mut stack: Vec<&mut DecodeSession<'_>> = stacked.iter_mut().collect();
            let results = step_stacked(&mut stack, &fed);
            prop_assert_eq!(results.len(), lanes.len());
            for (i, (result, twin)) in results.iter().zip(solo.iter_mut()).enumerate() {
                let want = twin.step(fed[i]).expect("in-window solo step");
                let got = result.as_ref().expect("in-window stacked step");
                prop_assert_eq!(got.shape(), (1, shape.vocab));
                prop_assert_eq!(bits(got), bits(&want), "iteration {} lane {}", it, i);
                prop_assert_eq!(
                    image(&shape, &stacked[i]),
                    image(&shape, twin),
                    "iteration {} lane {}", it, i
                );
            }
        }
    }
}

/// A session at the window, an empty one and an out-of-vocabulary token are
/// refused in place — typed, caches untouched — before any cache is
/// touched, and cost the other sessions nothing. A session of another model
/// object in the same slice is stepped too, in a stack of its own.
#[test]
fn refusals_are_typed_in_place_and_spare_the_rest() {
    let _lock = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let shape = ModelShape::tiny_test();
    let llm = SyntheticLlm::generate(&shape, 73);
    let reference = llm.reference();
    let other_model = SyntheticLlm::generate(&shape, 74).reference();
    let mode = KvCacheMode::Int8;
    fn prefilled(model: &ReferenceModel, len: usize, salt: usize) -> DecodeSession<'_> {
        let mut s = DecodeSession::with_cache_mode(model, KvCacheMode::Int8);
        s.prefill(&tokens(len, model.weights().shape.vocab, salt));
        s
    }
    let build = || {
        vec![
            prefilled(&reference, shape.max_seq, 1), // full window
            prefilled(&reference, 9, 2),             // healthy
            DecodeSession::with_cache_mode(&reference, mode), // never prefilled
            prefilled(&other_model, 6, 3),           // healthy, another model
            prefilled(&reference, 5, 4),             // fed a bad token
            prefilled(&reference, 14, 5),            // healthy
        ]
    };
    let fed = [1, 2, 3, 4, shape.vocab, 6];

    let mut sessions = build();
    let before: Vec<_> = sessions.iter().map(|s| image(&shape, s)).collect();
    let counters = || {
        [
            metrics::STACKED_STEPS.get(),
            metrics::STACKED_ROWS.get(),
            metrics::DECODE_STEPS.get(),
            metrics::DECODE_STEP_TIME.count(),
        ]
    };
    let was = counters();
    let mut stack: Vec<&mut DecodeSession<'_>> = sessions.iter_mut().collect();
    let results = step_stacked(&mut stack, &fed);
    let moved: Vec<u64> = counters().iter().zip(was).map(|(a, b)| a - b).collect();
    // One call, three rows carried and decoded, one span.
    assert_eq!(moved, [1, 3, 3, 1]);

    assert_eq!(
        results[0],
        Err(StepError::SequenceFull {
            max_seq: shape.max_seq
        })
    );
    assert_eq!(results[2], Err(StepError::NotPrefilled));
    assert_eq!(
        results[4],
        Err(StepError::TokenOutOfVocab {
            token: shape.vocab,
            vocab: shape.vocab
        })
    );
    for refused in [0, 2, 4] {
        assert_eq!(image(&shape, &sessions[refused]), before[refused]);
    }
    let mut twins = build();
    for healthy in [1, 3, 5] {
        let want = twins[healthy].step(fed[healthy]).expect("solo step");
        let got = results[healthy].as_ref().expect("stacked step");
        assert_eq!(bits(got), bits(&want), "session {healthy}");
        assert_eq!(
            image(&shape, &sessions[healthy]),
            image(&shape, &twins[healthy])
        );
    }
}

/// Int4 is the ladder's floor, so a lane whose append finds the shared cap
/// spent has nothing to demote. The cap here leaves room for the first
/// layer's pages of all three lanes and the second layer's of two: the
/// third lane is refused *mid-stack*, after its layer-0 rows went in, and
/// the other two must not notice.
#[test]
fn a_lane_refused_mid_stack_spares_its_neighbours() {
    let _lock = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let shape = ModelShape::tiny_test();
    let llm = SyntheticLlm::generate(&shape, 73);
    let reference = llm.reference();
    let mode = KvCacheMode::Int4;
    let layer_page = 2 * shape.heads as u64 * mode.page_alloc_bytes(shape.head_dim(), PAGE_ROWS);
    let session_page = shape.layers as u64 * layer_page;
    assert_eq!(shape.layers, 2, "the cap below counts two layers");
    let arena = paged(Some(3 * session_page + 3 * layer_page + 2 * layer_page));
    // Page-aligned prompts: every plane of every lane opens a page next.
    let prompts: Vec<Vec<usize>> = (0..3).map(|s| tokens(PAGE_ROWS, shape.vocab, s)).collect();
    let mut sessions: Vec<_> = prompts
        .iter()
        .map(|p| {
            let mut s = DecodeSession::with_arena(&reference, mode, &arena);
            s.try_prefill(p).expect("three prompt pages fit");
            s
        })
        .collect();
    assert_eq!(arena.allocated_bytes(), 3 * session_page);

    let fed = [1, 2, 3];
    let mut stack: Vec<&mut DecodeSession<'_>> = sessions.iter_mut().collect();
    let results = step_stacked(&mut stack, &fed);
    assert!(matches!(results[2], Err(StepError::KvExhausted(_))));
    assert_eq!(arena.stats().evict_failures, 1);
    assert!(arena.allocated_bytes() <= 3 * session_page + 5 * layer_page);
    for (i, p) in prompts.iter().enumerate().take(2) {
        let mut twin = DecodeSession::with_arena(&reference, mode, &paged(None));
        twin.prefill(p);
        let want = twin.step(fed[i]).expect("uncapped step");
        let got = results[i].as_ref().expect("a neighbour lost its logits");
        assert_eq!(bits(got), bits(&want), "session {i}");
        assert_eq!(image(&shape, &sessions[i]), image(&shape, &twin));
    }
}

/// A quantized model built over a reference (`build_with_capture`, as
/// `Experiment::quantize` builds it) holds the reference's f32 tensors, not
/// copies, yet is a model of its own: a reference session and a Tender@8
/// session stacked in one call, interleaved with a second reference session,
/// must each get exactly their solo step's logits. Were the two models taken
/// for one, the Tender lane would run the reference's exact products (or
/// the reference lanes Tender's operators).
#[test]
fn shared_tensors_do_not_merge_models() {
    let _lock = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let shape = ModelShape::tiny_test();
    let llm = SyntheticLlm::generate(&shape, 29);
    let reference = llm.reference();
    let stats = reference.capture_site_stats(&[tokens(24, shape.vocab, 2)]);
    let scheme = TenderScheme::new(TenderConfig::int8().with_row_chunk(4));
    let tender = QuantizedModel::build_with_capture(&reference, Box::new(scheme), &stats, None);
    let (rw, tw) = (reference.weights(), tender.weights());
    assert!(Arc::ptr_eq(&rw.lm_head, &tw.lm_head));
    for (r, t) in rw.layers.iter().zip(&tw.layers) {
        for (a, b) in [(&r.wq, &t.wq), (&r.wv, &t.wv), (&r.w_fc1, &t.w_fc1)] {
            assert!(Arc::ptr_eq(a, b), "a site tensor was copied");
        }
    }

    let models: [ModelRef<'_>; 3] = [(&reference).into(), (&tender).into(), (&reference).into()];
    let build = || -> Vec<DecodeSession<'_>> {
        models
            .iter()
            .enumerate()
            .map(|(i, &model)| {
                let mut s = DecodeSession::with_cache_mode(model, KvCacheMode::Int8);
                s.prefill(&tokens(5 + 3 * i, shape.vocab, 40 + i));
                s
            })
            .collect()
    };
    let mut stacked = build();
    let mut solo = build();
    for it in 0..4 {
        let fed: Vec<usize> = (0..3)
            .map(|i| (it * 37 + i * 11 + 3) % shape.vocab)
            .collect();
        let mut stack: Vec<&mut DecodeSession<'_>> = stacked.iter_mut().collect();
        let results = step_stacked(&mut stack, &fed);
        for (i, (result, twin)) in results.iter().zip(solo.iter_mut()).enumerate() {
            let want = twin.step(fed[i]).expect("in-window solo step");
            let got = result.as_ref().expect("in-window stacked step");
            assert_eq!(bits(got), bits(&want), "iteration {it} lane {i}");
            assert_eq!(image(&shape, &stacked[i]), image(&shape, twin));
        }
    }
}
