//! An experiment builds only what its run uses, and builds it once: the
//! calibration capture on the first `quantize`, each evaluation set on the
//! first `eval_set` of its corpus, nothing of either for a run that only
//! decodes on the reference — and every weight tensor is held once, shared
//! by the generated model, the reference and each quantized model. The
//! reference's packed f32 weight sites follow the same rule: built by its
//! first weight product, once, and shared by its clones.
//!
//! The calibration capture keeps statistics, not activations: a quantize
//! under a scheme that calibrates from statistics (Tender, `FP32`, the
//! weight-only formats) never builds the raw-sample store; the first one
//! under a scheme that reads samples (ANT, OliVe) builds it, once; and the
//! sites that read one activation share one statistics allocation.
//!
//! The checks read the process-global `setup` timers' counts, so the tests
//! serialize on a lock. The pool is sized to four threads, so the capture
//! below a `par_map` task really runs nested under a busy pool.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard};

use tender::metrics::setup;
use tender::model::calibration::CorpusKind;
use tender::model::engine::DecodeSession;
use tender::model::{ModelShape, Site, TransformerWeights};
use tender::quant::scheme::ExactScheme;
use tender::{pool, scheme_by_name, Experiment, ExperimentOptions};

static LOCK: Mutex<()> = Mutex::new(());

fn serialized() -> MutexGuard<'static, ()> {
    pool::set_threads(4);
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn experiment() -> Experiment {
    Experiment::new(&ModelShape::tiny_test(), ExperimentOptions::fast())
}

/// `(capture, eval_sets, quantize)` spans recorded so far.
fn spans() -> [u64; 3] {
    [
        setup::CAPTURE.count(),
        setup::EVAL_SETS.count(),
        setup::QUANTIZE.count(),
    ]
}

fn since(before: [u64; 3]) -> [u64; 3] {
    let now = spans();
    [0, 1, 2].map(|i| now[i] - before[i])
}

fn logit_bits(exp: &Experiment, scheme: &str) -> Vec<u32> {
    let qm = exp.quantize(scheme_by_name(scheme).expect("registry scheme"));
    let tokens: Vec<usize> = (0..12).map(|i| (i * 7 + 3) % 128).collect();
    qm.forward(&tokens)
        .as_slice()
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

#[test]
fn three_quantizes_capture_once() {
    let _lock = serialized();
    let before = spans();
    let exp = experiment();
    assert_eq!(
        since(before),
        [0, 0, 0],
        "Experiment::new built nothing lazy"
    );
    let t8 = logit_bits(&exp, "Tender@8");
    let _ = exp.quantize(Box::new(ExactScheme::new()));
    let again = logit_bits(&exp, "Tender@8");
    assert_eq!(since(before), [1, 0, 3]);
    assert_eq!(t8, again, "a rebuild calibrates on the same capture");
}

#[test]
fn stats_calibrated_quantizes_never_keep_the_samples() {
    let _lock = serialized();
    let exp = experiment();
    let before = spans();
    for scheme in [
        "Tender@8",
        "Tender@4",
        "FP32",
        "SMX4",
        "MSFP12",
        "SmoothQuant@8",
    ] {
        let _ = exp.quantize(scheme_by_name(scheme).expect("registry scheme"));
        assert!(
            exp.samples().is_none(),
            "{scheme} built the raw-sample store"
        );
    }
    assert_eq!(since(before), [1, 0, 6], "one capture: the statistics");
}

#[test]
fn a_sample_reading_scheme_builds_the_sample_store_once() {
    let _lock = serialized();
    let exp = experiment();
    let before = spans();
    let ant = logit_bits(&exp, "ANT@8");
    assert_eq!(since(before), [2, 0, 1], "the statistics, then the samples");
    let samples = exp.samples().expect("built by ANT") as *const _;
    let olive = logit_bits(&exp, "OliVe@4");
    let _ = exp.quantize(scheme_by_name("Tender@8").expect("registry scheme"));
    assert_eq!(
        ant,
        logit_bits(&exp, "ANT@8"),
        "a rebuild calibrates on the same samples"
    );
    assert_eq!(since(before), [2, 0, 4]);
    assert!(std::ptr::eq(samples, exp.samples().expect("kept")));
    assert_ne!(ant, olive);
}

#[test]
fn sites_that_read_one_activation_share_one_statistics_allocation() {
    let _lock = serialized();
    let exp = experiment();
    let _ = exp.quantize(Box::new(ExactScheme::new()));
    let stats = exp.site_stats().expect("built by the quantize");
    let shape = ModelShape::tiny_test();
    for li in 0..shape.layers {
        let q = &stats[&(li, Site::Q)];
        assert!(Arc::ptr_eq(q, &stats[&(li, Site::K)]), "layer {li} K");
        assert!(Arc::ptr_eq(q, &stats[&(li, Site::V)]), "layer {li} V");
        for site in [Site::O, Site::Fc1, Site::Fc2] {
            assert!(!Arc::ptr_eq(q, &stats[&(li, site)]), "layer {li} {site:?}");
        }
        // A whole row position per calibration row, and nothing more.
        assert_eq!(q.rows(), ExperimentOptions::fast().seq_len);
        assert_eq!(q.samples(), ExperimentOptions::fast().calib_samples);
        assert_eq!(q.bytes(), 2 * 4 * q.rows() * shape.d_model);
    }
    assert_eq!(stats.len(), shape.layers * 6, "Q, K, V, O, Fc1, Fc2");
}

#[test]
fn racing_first_quantizes_capture_once() {
    let _lock = serialized();
    let exp = experiment();
    let before = spans();
    let [a, b] = std::thread::scope(|s| {
        [
            s.spawn(|| logit_bits(&exp, "Tender@4")),
            s.spawn(|| logit_bits(&exp, "Tender@4")),
        ]
        .map(|h| h.join().expect("no panic"))
    });
    assert_eq!(since(before), [1, 0, 2]);
    assert_eq!(a, b);
}

#[test]
fn a_first_quantize_inside_a_pool_task_captures_once() {
    let _lock = serialized();
    let exp = experiment();
    let before = spans();
    let nested = pool::par_map(4, |_| logit_bits(&exp, "Tender@8"));
    assert_eq!(since(before), [1, 0, 4]);
    assert!(nested.iter().all(|l| *l == nested[0]));
    // The capture that ran under the pool is the one a plain call makes.
    assert_eq!(nested[0], logit_bits(&experiment(), "Tender@8"));
}

#[test]
fn each_eval_set_is_built_once_on_first_use() {
    let _lock = serialized();
    let exp = experiment();
    let before = spans();
    let wiki = exp.eval_set(CorpusKind::Wiki);
    assert!(std::ptr::eq(wiki, exp.eval_set(CorpusKind::Wiki)));
    assert_eq!(since(before), [0, 1, 0]);
    let ptb = exp.reference_perplexity(CorpusKind::Ptb);
    assert_eq!(ptb, exp.reference_perplexity(CorpusKind::Ptb));
    assert_eq!(since(before), [0, 2, 0]);
    let pile = catch_unwind(AssertUnwindSafe(|| {
        exp.eval_set(CorpusKind::Pile).num_predictions()
    }));
    assert!(pile.is_err(), "Pile is calibration-only");
    assert_eq!(since(before), [0, 2, 0]);

    // Each set has its own seed: building PTB first, after a quantize,
    // gives the same sets.
    let other = experiment();
    let _ = other.quantize(Box::new(ExactScheme::new()));
    for corpus in [CorpusKind::Ptb, CorpusKind::Wiki] {
        let (a, b) = (exp.eval_set(corpus), other.eval_set(corpus));
        assert_eq!(a.contexts(), b.contexts(), "{corpus:?}");
        assert_eq!(a.targets(), b.targets(), "{corpus:?}");
    }
}

#[test]
fn reference_decoding_builds_nothing_lazy() {
    let _lock = serialized();
    let before = spans();
    let exp = experiment();
    let mut session = DecodeSession::new(exp.reference());
    session.prefill(&[1, 5, 9, 2, 7]);
    for token in [3, 8, 13] {
        session.step(token).expect("inside the window");
    }
    assert_eq!(since(before), [0, 0, 0]);
}

/// Bytes of a `k × n` f32 weight packed in 8-column panels, the last one
/// zero-padded.
fn packed_bytes(k: usize, n: usize) -> usize {
    4 * k * 8 * n.div_ceil(8)
}

/// The reference's packed weight sites of the tiny ungated test shape:
/// Q, K, V and O are `d × d`, FC1 `d × f`, FC2 `f × d`, per layer.
fn packed_site_bytes(shape: &ModelShape) -> usize {
    let (d, f) = (shape.d_model, shape.ffn_dim);
    shape.layers * (4 * packed_bytes(d, d) + packed_bytes(d, f) + packed_bytes(f, d))
}

#[test]
fn reference_packs_its_sites_on_the_first_product_once_for_every_clone() {
    let _lock = serialized();
    let shape = ModelShape::tiny_test();
    let lm_head = packed_bytes(shape.d_model, shape.vocab);
    let packs = || setup::PACK.count();
    let before = packs();
    let exp = experiment();
    let reference = exp.reference();
    assert_eq!(
        packs() - before,
        1,
        "Experiment::new packs the LM head only"
    );
    assert!(reference.sites().is_none());
    assert_eq!(reference.weight_bytes(), lm_head);

    let clone = reference.clone();
    let mut session = DecodeSession::new(reference);
    session.prefill(&[1, 5, 9, 2, 7]);
    assert_eq!(
        packs() - before,
        2,
        "the first weight product packs every site"
    );
    let sites = reference.sites().expect("built by the first product");
    let shared = clone.sites().expect("a clone sees the same table");
    assert!(std::ptr::eq(sites, shared), "a clone shares the site table");
    assert_eq!(sites.bytes(), packed_site_bytes(&shape));
    assert_eq!(clone.weight_bytes(), lm_head + packed_site_bytes(&shape));

    session.step(3).expect("inside the window");
    clone.forward(&[4, 6, 8]);
    let _ = exp.quantize(Box::new(ExactScheme::new()));
    assert_eq!(packs() - before, 2, "no product packs again");
}

/// Every f32 tensor behind `a`'s weights is `b`'s own allocation.
fn assert_shared(a: &TransformerWeights, b: &TransformerWeights) {
    assert!(Arc::ptr_eq(&a.tok_emb, &b.tok_emb));
    assert!(Arc::ptr_eq(&a.lm_head, &b.lm_head));
    assert!(Arc::ptr_eq(&a.pos_emb, &b.pos_emb));
    for (la, lb) in a.layers.iter().zip(&b.layers) {
        let pairs = [
            (&la.wq, &lb.wq),
            (&la.wk, &lb.wk),
            (&la.wv, &lb.wv),
            (&la.wo, &lb.wo),
            (&la.w_fc1, &lb.w_fc1),
            (&la.w_fc2, &lb.w_fc2),
        ];
        for (x, y) in pairs {
            assert!(Arc::ptr_eq(x, y), "a site tensor was copied");
        }
    }
}

/// A Tender@4 model holds its operators and nothing else of its own. Per
/// site with a `k × n` weight, `G` channel groups and `C` calibration
/// chunks, an operator holds
/// - the weight codes, transposed, as `i16`: `2·k·n` bytes;
/// - one `f32` scale per output column: `4·n`;
/// - per chunk, its prepared rows — the bias-correction row (`4·n`) and
///   the per-channel scale and weight rows (`4·k` each);
/// - per chunk, its calibration tables — per-channel biases (`4·k`), group
///   indices and channel order (one `usize` per channel each) and the `G`
///   group scales (`4·G`).
#[test]
fn a_tender_model_holds_its_codes_not_the_f32_weights() {
    let _lock = serialized();
    let exp = experiment();
    let shape = ModelShape::tiny_test();
    let (d, f, vocab) = (shape.d_model, shape.ffn_dim, shape.vocab);
    let qm = exp.quantize(scheme_by_name("Tender@4").expect("registry scheme"));
    assert!(qm.degraded_sites().is_empty());

    assert_shared(exp.model().weights(), exp.reference().weights());
    assert_shared(exp.reference().weights(), qm.weights());
    // The quantize's capture ran the reference's first weight product.
    assert_eq!(
        exp.reference().weight_bytes(),
        packed_bytes(d, vocab) + packed_site_bytes(&shape),
        "the packed LM head and weight sites"
    );

    let (groups, chunks) = (12, 1); // Tender@4; 24 calibration rows < 256
    let word = size_of::<usize>();
    let site = |k: usize, n: usize| {
        2 * k * n + 4 * n + chunks * ((4 * n + 8 * k) + (4 * k + 2 * word * k + 4 * groups))
    };
    // Q, K, V and O are `d × d`; FC1 is `d × f`, FC2 `f × d`.
    let per_layer = 4 * site(d, d) + site(d, f) + site(f, d);
    assert_eq!(qm.weight_bytes(), shape.layers * per_layer);
}
