//! Integration tests for fault injection + graceful degradation.
//!
//! These tests install a process-global fault plan, so they live in their
//! own test binary (not the lib unit tests) and serialize on a local lock —
//! a plan installed here must never leak into unrelated concurrent tests.

use std::sync::Mutex;

use tender_faults::{FaultPlan, PlanGuard};
use tender_metrics as metrics;
use tender_model::shape::ModelShape;
use tender_model::{QuantizedModel, Site, SyntheticLlm};
use tender_quant::scheme::{first_non_finite, CalibInput, PrepareError, Scheme};
use tender_quant::tender::{TenderConfig, TenderScheme};

static LOCK: Mutex<()> = Mutex::new(());

fn tokens(n: usize, vocab: usize, salt: usize) -> Vec<usize> {
    (0..n).map(|i| (i * 31 + salt * 17 + 5) % vocab).collect()
}

fn tender_int8() -> Box<TenderScheme> {
    Box::new(TenderScheme::new(TenderConfig::int8().with_row_chunk(0)))
}

#[test]
fn injected_corrupt_blobs_degrade_instead_of_panicking() {
    let _lock = LOCK.lock().unwrap();
    let shape = ModelShape::tiny_test();
    let model = SyntheticLlm::generate(&shape, 11);
    let calib = vec![tokens(16, shape.vocab, 22)];

    let _guard = PlanGuard::install(FaultPlan::parse(11, "blob=1").unwrap());
    let degraded_before = metrics::faults::DEGRADED_SITES.get();
    let qm = QuantizedModel::build(model.weights(), tender_int8(), &calib);
    // Every Tender site round-trips its calibration blob and blob=1
    // corrupts each one; a corrupted blob either fails to decode (site
    // degrades) or decodes into skewed-but-valid metadata (site survives).
    // At least some must degrade, each one counted.
    let degraded = qm.degraded_sites().len() as u64;
    assert!(degraded > 0, "no site degraded under blob=1");
    assert_eq!(
        metrics::faults::DEGRADED_SITES.get(),
        degraded_before + degraded
    );
    assert!(metrics::faults::INJECTED_BLOB.get() > 0);
    assert!(qm.forward(&tokens(12, shape.vocab, 23)).is_finite());
}

#[test]
fn injected_nan_activations_degrade_instead_of_panicking() {
    let _lock = LOCK.lock().unwrap();
    let shape = ModelShape::tiny_test();
    let model = SyntheticLlm::generate(&shape, 11);
    let calib = vec![tokens(16, shape.vocab, 24)];

    let _guard = PlanGuard::install(FaultPlan::parse(13, "anan=0.05").unwrap());
    let qm = QuantizedModel::build(model.weights(), tender_int8(), &calib);
    assert!(metrics::faults::INJECTED_ACT_NAN.get() > 0);
    let degraded = qm.degraded_sites();
    assert!(!degraded.is_empty(), "no site degraded under anan=0.05");
    for d in degraded {
        assert!(
            d.reason.contains("non-finite calibration activation"),
            "unexpected reason: {}",
            d.reason
        );
    }
    // Runtime forwards are never poisoned, so evaluation stays finite.
    assert!(qm.forward(&tokens(12, shape.vocab, 25)).is_finite());
}

/// The capture folds each sample into its site's statistics as the layer
/// runs, so the non-finite screen reads the statistics. It must report what
/// screening the kept samples one by one reports — the first poisoned
/// sample and its first non-finite `(row, col)` — and degrade exactly the
/// sites that screen rejects.
#[test]
fn the_stats_screen_reports_what_the_sample_screen_did() {
    let _lock = LOCK.lock().unwrap();
    let shape = ModelShape::tiny_test();
    let model = SyntheticLlm::generate(&shape, 11);
    let reference = model.reference();
    let calib: Vec<Vec<usize>> = (0..4).map(|i| tokens(16, shape.vocab, 40 + i)).collect();

    let _guard = PlanGuard::install(FaultPlan::parse(13, "anan=0.05").unwrap());
    let samples = reference.capture_site_activations(&calib);
    let stats = reference.capture_site_stats(&calib);
    let scheme = tender_int8();
    let mut screened = Vec::new();
    for (li, layer) in model.weights().layers.iter().enumerate() {
        for site in Site::ALL {
            let Some(w) = layer.site(site) else { continue };
            let by_samples = samples[&(li, site)]
                .iter()
                .enumerate()
                .find_map(|(sample, a)| {
                    first_non_finite(a).map(|at| PrepareError::NonFiniteActivation { sample, at })
                });
            let by_stats = scheme
                .try_calibrate(CalibInput::stats(&stats[&(li, site)]), w)
                .err();
            assert_eq!(by_stats, by_samples, "layer {li} {site:?}");
            if let Some(PrepareError::NonFiniteActivation { sample, .. }) = by_samples {
                screened.push((li, site, sample));
            }
        }
    }
    assert!(
        screened.iter().any(|&(_, _, sample)| sample > 0),
        "some site's first poisoned sample is a later one: {screened:?}"
    );
    let qm = QuantizedModel::build_with_capture(&reference, tender_int8(), &stats, None);
    let degraded: Vec<(usize, Site)> = qm
        .degraded_sites()
        .iter()
        .map(|d| (d.layer, d.site))
        .collect();
    let want: Vec<(usize, Site)> = screened.iter().map(|&(li, site, _)| (li, site)).collect();
    assert_eq!(degraded, want);
    assert!(qm.forward(&tokens(12, shape.vocab, 25)).is_finite());
}

#[test]
fn injected_weight_nans_degrade_instead_of_panicking() {
    let _lock = LOCK.lock().unwrap();
    let shape = ModelShape::tiny_test();

    let _guard = PlanGuard::install(FaultPlan::parse(17, "wnan=0.02").unwrap());
    let model = SyntheticLlm::generate(&shape, 11);
    assert!(metrics::faults::INJECTED_WEIGHT_NAN.get() > 0);
    let calib = vec![tokens(16, shape.vocab, 26)];
    let qm = QuantizedModel::build(model.weights(), tender_int8(), &calib);
    assert!(!qm.degraded_sites().is_empty(), "no site degraded");
    // NaN weights poison the *reference* capture pass downstream, but the
    // degraded operators run on sanitized weights: logits stay finite.
    assert!(qm.forward(&tokens(12, shape.vocab, 27)).is_finite());
}

#[test]
fn injected_decode_nans_sanitize_instead_of_corrupting_the_cache() {
    // The anan site also guards the decode path: a poisoned single-token
    // activation is sanitized (channels zeroed, counted) before it reaches
    // the projections, so one corrupted step degrades gracefully instead
    // of writing NaN rows into the KV cache and poisoning every later step.
    let _lock = LOCK.lock().unwrap();
    let shape = ModelShape::tiny_test();
    let model = SyntheticLlm::generate(&shape, 11);
    let reference = model.reference();

    let _guard = PlanGuard::install(FaultPlan::parse(23, "anan=0.2").unwrap());
    let sanitized_before = metrics::faults::DECODE_SANITIZED.get();
    let injected_before = metrics::faults::INJECTED_ACT_NAN.get();
    let mut session = tender_model::engine::DecodeSession::new(&reference);
    session.prefill(&tokens(6, shape.vocab, 30));
    let mut logits = None;
    for s in 0..8 {
        logits = Some(
            session
                .step((s * 11 + 2) % shape.vocab)
                .expect("in-window step"),
        );
    }
    assert!(
        metrics::faults::DECODE_SANITIZED.get() > sanitized_before,
        "no decode step was sanitized under anan=0.2"
    );
    assert!(metrics::faults::INJECTED_ACT_NAN.get() > injected_before);
    // Degraded, not corrupted: every step's logits stay finite.
    assert!(logits.unwrap().is_finite());

    // Determinism: the same plan sanitizes the same steps on a rerun.
    let count = metrics::faults::DECODE_SANITIZED.get() - sanitized_before;
    let mut rerun = tender_model::engine::DecodeSession::new(&reference);
    rerun.prefill(&tokens(6, shape.vocab, 30));
    for s in 0..8 {
        rerun
            .step((s * 11 + 2) % shape.vocab)
            .expect("in-window step");
    }
    assert_eq!(
        metrics::faults::DECODE_SANITIZED.get() - sanitized_before,
        2 * count,
        "fault decisions must be content-keyed, not run-keyed"
    );
}

#[test]
fn chunked_ingestion_is_guarded_row_by_row() {
    // The guard's verdict is keyed on the bytes of one `1 × d` activation
    // row. A chunk fed through `extend` must consult it once per row with
    // those same bytes — poisoning and sanitizing exactly the rows the
    // step loop does — not once for the whole `M × d` matrix.
    let _lock = LOCK.lock().unwrap();
    let shape = ModelShape::tiny_test();
    let model = SyntheticLlm::generate(&shape, 11);
    let reference = model.reference();
    let t = tokens(14, shape.vocab, 30);

    let _guard = PlanGuard::install(FaultPlan::parse(23, "anan=0.2").unwrap());
    let counters = || {
        (
            metrics::faults::INJECTED_ACT_NAN.get(),
            metrics::faults::DECODE_SANITIZED.get(),
        )
    };
    let run = |chunked: bool| {
        let mut session = tender_model::engine::DecodeSession::new(&reference);
        session.prefill(&t[..6]);
        let (injected, sanitized) = counters();
        let logits = if chunked {
            session.extend(&t[6..]).expect("in-window extend")
        } else {
            let mut last = None;
            for &tok in &t[6..] {
                last = Some(session.step(tok).expect("in-window step"));
            }
            last.expect("at least one step")
        };
        let (injected_after, sanitized_after) = counters();
        let bits: Vec<u32> = logits.row(0).iter().map(|v| v.to_bits()).collect();
        (bits, injected_after - injected, sanitized_after - sanitized)
    };
    let stepped = run(false);
    assert!(stepped.2 > 1, "anan=0.2 sanitized at most one row");
    assert_eq!(run(true), stepped);
}

#[test]
fn all_nan_logits_fall_back_to_a_deterministic_greedy_token() {
    // Regression: greedy argmax over an all-NaN logits row used to return
    // token 0 silently (`v > best_v` is false for every NaN). A heavy
    // weight-NaN plan poisons the unguarded final norm + LM head, so every
    // logit the rollout sees is NaN; the engine must count the degraded
    // rows and fall back to the deterministic `pos % vocab` token instead
    // of emitting a constant stream of token 0.
    let _lock = LOCK.lock().unwrap();
    let shape = ModelShape::tiny_test();

    let _guard = PlanGuard::install(FaultPlan::parse(29, "wnan=0.9").unwrap());
    let model = SyntheticLlm::generate(&shape, 11);
    assert!(metrics::faults::INJECTED_WEIGHT_NAN.get() > 0);
    let reference = model.reference();

    let prompts = vec![tokens(6, shape.vocab, 31)];
    let steps = 4;
    let run = || {
        let sessions = vec![tender_model::engine::DecodeSession::new(&reference)];
        let mut engine = tender_model::engine::BatchEngine::new(sessions);
        engine
            .generate_greedy(&prompts, steps)
            .expect("one prompt per session")
    };

    let before = metrics::faults::DECODE_ARGMAX_SANITIZED.get();
    let out = run();
    let sanitized = metrics::faults::DECODE_ARGMAX_SANITIZED.get() - before;
    assert_eq!(
        sanitized,
        (steps + 1) as u64,
        "every greedy choice (prefill + each step) must be counted as sanitized"
    );
    // The fallback is position-dependent: prompt length 6, then 7, 8, 9.
    let expected: Vec<usize> = (6..6 + steps).map(|p| p % shape.vocab).collect();
    assert_eq!(out[0], expected);

    // And deterministic: a rerun produces the identical rollout and the
    // identical count.
    let rerun = run();
    assert_eq!(rerun, out);
    assert_eq!(
        metrics::faults::DECODE_ARGMAX_SANITIZED.get() - before,
        2 * sanitized
    );
}

#[test]
fn same_plan_degrades_identical_sites_on_every_run() {
    // Fault decisions are pure functions of (seed, site keys), never of
    // scheduling, so two builds under the same plan must agree exactly.
    // (Cross-thread-count determinism of the full pipeline is pinned by
    // the bench crate's resilience test, which compares whole processes
    // under TENDER_THREADS=1 and =4.)
    let _lock = LOCK.lock().unwrap();
    let shape = ModelShape::tiny_test();
    let model = SyntheticLlm::generate(&shape, 11);
    let calib = vec![tokens(16, shape.vocab, 28)];

    let run = || -> Vec<(usize, tender_model::Site, &'static str)> {
        let _guard = PlanGuard::install(FaultPlan::parse(19, "blob=0.5,anan=0.02").unwrap());
        let qm = QuantizedModel::build(model.weights(), tender_int8(), &calib);
        qm.degraded_sites()
            .iter()
            .map(|d| (d.layer, d.site, d.fallback))
            .collect()
    };
    let first = run();
    let second = run();
    assert!(!first.is_empty());
    assert_eq!(first, second);
}
