//! The engine's hard parity guarantee: prefill-then-step-N-times produces
//! **bit-identical** last-row logits to the full-sequence forward pass, for
//! every row-independent scheme, at any split point.
//!
//! Thread-count invariance is enforced separately by the subprocess
//! byte-diff in `tender-bench`'s determinism suite (the pool is a global
//! OnceLock, so one process can only observe one thread count); these tests
//! pin the algebraic half of the guarantee.

use proptest::prelude::*;
use tender_model::engine::{DecodeSession, KvCacheMode};
use tender_model::{ModelShape, QuantizedModel, SyntheticLlm};
use tender_quant::granularity::{Granularity, GranularityScheme};
use tender_quant::scheme::{ExactScheme, Fp16Scheme, Scheme};
use tender_quant::tender::{TenderConfig, TenderScheme};

fn tokens(n: usize, vocab: usize, salt: usize) -> Vec<usize> {
    (0..n).map(|i| (i * 29 + salt * 13 + 7) % vocab).collect()
}

/// Every scheme the parity guarantee covers. `with_row_chunk(8)` keeps
/// several calibration chunks live inside a short test sequence, so decode
/// steps genuinely cross chunk boundaries.
fn parity_schemes() -> Vec<Box<dyn Scheme>> {
    vec![
        Box::new(ExactScheme::new()),
        Box::new(Fp16Scheme::new()),
        Box::new(GranularityScheme::new(8, Granularity::PerTensor)),
        Box::new(TenderScheme::new(TenderConfig::int8().with_row_chunk(8))),
        Box::new(TenderScheme::new(TenderConfig::int8().with_row_chunk(8)).with_explicit_requant()),
        Box::new(TenderScheme::new(TenderConfig::int4().with_row_chunk(8))),
    ]
}

/// Decodes `t[split..]` one token at a time after prefilling `t[..split]`
/// and asserts the final step's logits equal the full forward's last row
/// bit-for-bit.
fn assert_decode_parity(
    full: &tender_tensor::Matrix,
    mut session: DecodeSession<'_>,
    t: &[usize],
    split: usize,
    label: &str,
) {
    session.prefill(&t[..split]);
    let mut last = None;
    for &tok in &t[split..] {
        last = Some(session.step(tok).expect("in-window step"));
    }
    let last = last.expect("at least one decode step");
    assert_eq!(
        last.row(0),
        full.row(t.len() - 1),
        "decode logits diverge from full forward for {label} (split {split})"
    );
}

#[test]
fn reference_decode_is_bit_identical() {
    let shape = ModelShape::tiny_test();
    let model = SyntheticLlm::generate(&shape, 31);
    let reference = model.reference();
    let t = tokens(20, shape.vocab, 1);
    let full = reference.forward(&t);
    for split in [1, 7, 19] {
        assert_decode_parity(
            &full,
            DecodeSession::new(&reference),
            &t,
            split,
            "reference",
        );
    }
}

#[test]
fn every_scheme_decodes_bit_identically() {
    let shape = ModelShape::tiny_test();
    let model = SyntheticLlm::generate(&shape, 31);
    let calib = vec![tokens(24, shape.vocab, 2), tokens(24, shape.vocab, 3)];
    let t = tokens(22, shape.vocab, 4);
    for scheme in parity_schemes() {
        let name = scheme.name();
        let qm = QuantizedModel::build(model.weights(), scheme, &calib);
        let full = qm.forward(&t);
        // Splits on, before, and after the row-chunk boundary at 8/16.
        for split in [1, 8, 9, 15, 21] {
            assert_decode_parity(&full, DecodeSession::new(&qm), &t, split, &name);
        }
    }
}

#[test]
fn gated_rmsnorm_model_decodes_bit_identically() {
    let mut shape = ModelShape::tiny_test();
    shape.activation = tender_model::Activation::SiluGated;
    shape.norm = tender_model::NormKind::RmsNorm;
    let model = SyntheticLlm::generate(&shape, 37);
    let calib = vec![tokens(16, shape.vocab, 5)];
    let t = tokens(14, shape.vocab, 6);
    let qm = QuantizedModel::build(
        model.weights(),
        Box::new(TenderScheme::new(TenderConfig::int8().with_row_chunk(4))),
        &calib,
    );
    let full = qm.forward(&t);
    for split in [2, 5, 13] {
        assert_decode_parity(&full, DecodeSession::new(&qm), &t, split, "gated Tender");
    }
}

/// Runs `prefill(t[..split]) ∘ step*` and returns every step's logits row.
fn step_logits(mut session: DecodeSession<'_>, t: &[usize], split: usize) -> Vec<Vec<f32>> {
    session.prefill(&t[..split]);
    t[split..]
        .iter()
        .map(|&tok| session.step(tok).expect("in-window step").row(0).to_vec())
        .collect()
}

/// The parity guarantee across all three KV-cache modes.
///
/// * `--kv-cache f32` is full-forward parity: the decode logits must equal
///   the full forward's last row bit-for-bit.
/// * `int8`/`int4` quantize cached K/V, so they are *not* full-forward
///   parity by design — there the pinned property is that a rerun of the
///   same decode reproduces every step's logits bit-for-bit.
#[test]
fn decode_parity_holds_under_every_cache_mode() {
    let shape = ModelShape::tiny_test();
    let model = SyntheticLlm::generate(&shape, 31);
    let calib = vec![tokens(24, shape.vocab, 2)];
    let t = tokens(18, shape.vocab, 9);
    let split = 9; // crosses the row-chunk boundary at 8 during decode
    let qm = QuantizedModel::build(
        model.weights(),
        Box::new(TenderScheme::new(TenderConfig::int8().with_row_chunk(8))),
        &calib,
    );

    for mode in KvCacheMode::ALL {
        let steps = step_logits(DecodeSession::with_cache_mode(&qm, mode), &t, split);
        if mode == KvCacheMode::F32 {
            assert_eq!(
                steps.last().expect("at least one decode step").as_slice(),
                qm.forward(&t).row(t.len() - 1),
                "f32-cache decode diverges from full forward",
            );
        }
        let rerun = step_logits(DecodeSession::with_cache_mode(&qm, mode), &t, split);
        assert_eq!(steps.len(), rerun.len());
        for (i, (first, second)) in steps.iter().zip(&rerun).enumerate() {
            let bits_first: Vec<u32> = first.iter().map(|v| v.to_bits()).collect();
            let bits_second: Vec<u32> = second.iter().map(|v| v.to_bits()).collect();
            assert_eq!(
                bits_first,
                bits_second,
                "step {i} logits diverge on rerun ({} cache)",
                mode.label(),
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `prefill(t[..split]) ∘ step*` ≡ full-sequence forward, bit for bit,
    /// across random model seeds, token streams, split points, and schemes.
    #[test]
    fn prefill_then_steps_equals_full_forward(
        seed in any::<u64>(),
        raw in proptest::collection::vec(0_usize..128, 4..24),
        split_frac in 0.0_f32..1.0,
        scheme_idx in 0_usize..7,
    ) {
        let shape = ModelShape::tiny_test();
        let model = SyntheticLlm::generate(&shape, seed);
        let n = raw.len();
        let split = 1 + ((n - 2) as f32 * split_frac) as usize;

        let (full, session) = if scheme_idx == 0 {
            // Reference path.
            let reference = model.reference().clone();
            let full = reference.forward(&raw);
            let mut s = DecodeSession::new(&reference);
            s.prefill(&raw[..split]);
            let mut last = None;
            for &tok in &raw[split..] {
                last = Some(s.step(tok).expect("in-window step"));
            }
            (full, last.unwrap())
        } else {
            let scheme = parity_schemes().swap_remove(scheme_idx - 1);
            let calib = vec![tokens(20, shape.vocab, 8)];
            let qm = QuantizedModel::build(model.weights(), scheme, &calib);
            let full = qm.forward(&raw);
            let mut s = DecodeSession::new(&qm);
            s.prefill(&raw[..split]);
            let mut last = None;
            for &tok in &raw[split..] {
                last = Some(s.step(tok).expect("in-window step"));
            }
            (full, last.unwrap())
        };
        prop_assert_eq!(session.row(0), full.row(n - 1));
    }
}
