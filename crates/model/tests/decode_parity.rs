//! The engine's hard parity guarantee: prefill-then-step-N-times produces
//! **bit-identical** last-row logits to the full-sequence forward pass, for
//! every row-independent scheme, at any split point — and, in every cache
//! mode, the cached forward does not care how a token run is cut into
//! calls: `extend(a ++ b)` ≡ `extend(a); extend(b)` ≡ token-by-token `step`.
//!
//! Thread-count invariance is enforced separately by the subprocess
//! byte-diff in `tender-bench`'s determinism suite (the pool is a global
//! OnceLock, so one process can only observe one thread count); these tests
//! pin the algebraic half of the guarantee.

use proptest::prelude::*;
use tender_model::engine::{DecodeSession, KvCacheMode};
use tender_model::{ArenaConfig, KvArena, ModelShape, QuantizedModel, SyntheticLlm};
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

fn bits(logits: &tender_tensor::Matrix) -> Vec<u32> {
    logits.row(0).iter().map(|v| v.to_bits()).collect()
}

/// What a run of cached forwards leaves behind: the last call's logits,
/// the cache's requant count, and the logits of one further `probe` step —
/// equal probes mean equal cache contents as far as a later token can see.
#[derive(Debug, PartialEq)]
struct Ingested {
    logits: Vec<u32>,
    requants: u64,
    probe: Vec<u32>,
}

/// Feeds a prefilled `session` one `extend` per slice of `calls`.
fn ingest(mut session: DecodeSession<'_>, calls: &[&[usize]], probe: usize) -> Ingested {
    let mut last = None;
    for call in calls {
        last = Some(session.extend(call).expect("in-window extend"));
    }
    Ingested {
        logits: bits(&last.expect("at least one call")),
        requants: session.cache().requants(),
        probe: bits(&session.step(probe).expect("in-window probe")),
    }
}

/// The reference order: `run` one `step` at a time.
fn step_loop(session: DecodeSession<'_>, run: &[usize], probe: usize) -> Ingested {
    ingest(session, &run.chunks(1).collect::<Vec<_>>(), probe)
}

#[test]
fn extend_is_indifferent_to_how_the_run_is_cut() {
    let shape = ModelShape::tiny_test();
    let model = SyntheticLlm::generate(&shape, 31);
    let calib = vec![tokens(24, shape.vocab, 2), tokens(24, shape.vocab, 3)];
    let t = tokens(24, shape.vocab, 4);
    let (run_end, probe) = (t.len() - 1, t[t.len() - 1]);
    for scheme in parity_schemes() {
        let name = scheme.name();
        let qm = QuantizedModel::build(model.weights(), scheme, &calib);
        for mode in KvCacheMode::ALL {
            // Runs that start before, on and after the row-chunk boundary
            // at 8 and cross the 16-row page boundary.
            for prompt in [1, 8, 13] {
                let start = || {
                    let mut s = DecodeSession::with_cache_mode(&qm, mode);
                    s.prefill(&t[..prompt]);
                    s
                };
                let run = &t[prompt..run_end];
                let label = format!("{name}, {} cache, prompt {prompt}", mode.label());
                let steps = step_loop(start(), run, probe);
                assert_eq!(ingest(start(), &[run], probe), steps, "one call: {label}");
                for cut in [1, run.len() / 2, run.len() - 1] {
                    let two = ingest(start(), &[&run[..cut], &run[cut..]], probe);
                    assert_eq!(two, steps, "cut at {cut}: {label}");
                }
            }
        }
    }
}

/// The case an append-all-then-attend order gets wrong: a row *inside* the
/// chunk raises a plane's `TMax`, so the tail page is `requant_shift`ed
/// after earlier rows of the same chunk were written to it. Those earlier
/// rows must have attended to the page as it was before the shift.
#[test]
fn extend_matches_steps_when_a_requant_fires_inside_the_chunk() {
    let shape = ModelShape::tiny_test();
    let model = SyntheticLlm::generate(&shape, 31);
    let reference = model.reference();
    let t = tokens(12, shape.vocab, 9);
    // A one-token prompt leaves every plane's `TMax` at that row's own
    // maximum, and the whole chunk lands in the first 16-row page.
    let (prompt, run, probe) = (&t[..1], &t[1..11], t[11]);
    for mode in [KvCacheMode::Int8, KvCacheMode::Int4] {
        let start = || {
            let mut s = DecodeSession::with_cache_mode(&reference, mode);
            s.prefill(prompt);
            s
        };
        let mut first = start();
        first.step(run[0]).expect("in-window step");
        let after_first_row = first.cache().requants();
        let steps = step_loop(start(), run, probe);
        assert!(
            steps.requants > after_first_row,
            "{} cache: no requant fired after the chunk's first row",
            mode.label()
        );
        assert_eq!(
            ingest(start(), &[run], probe),
            steps,
            "{} cache",
            mode.label()
        );
    }
}

/// A fork of a prefilled template shares the template's partial tail page;
/// the first row a chunk appends must copy it, not write through it.
#[test]
fn extend_on_a_fork_copies_the_shared_tail_page() {
    let shape = ModelShape::tiny_test();
    let model = SyntheticLlm::generate(&shape, 31);
    let reference = model.reference();
    let t = tokens(13, shape.vocab, 6);
    // Six prompt rows on 4-row pages: one sealed page and a half-full tail.
    let (prompt, run, probe) = (&t[..6], &t[6..12], t[12]);
    let paged = || {
        KvArena::new(ArenaConfig {
            page_rows: 4,
            ..ArenaConfig::default()
        })
    };
    for mode in KvCacheMode::ALL {
        let arena = paged();
        let mut template = DecodeSession::with_arena(&reference, mode, &arena);
        template.prefill(prompt);

        let steps = step_loop(template.fork(), run, probe);
        let copies = arena.stats().cow_copies;
        let mut fork = template.fork();
        fork.extend(run).expect("in-window extend");
        assert!(
            arena.stats().cow_copies > copies,
            "{} cache: the chunk's first row did not copy the shared tail",
            mode.label()
        );
        drop(fork);
        assert_eq!(ingest(template.fork(), &[run], probe), steps);

        // The template still holds exactly its prompt: it ingests the run
        // the way a session that never shared a page does.
        let mut unshared = DecodeSession::with_arena(&reference, mode, &paged());
        unshared.prefill(prompt);
        assert_eq!(template.len(), prompt.len());
        assert_eq!(
            ingest(template, &[run], probe),
            ingest(unshared, &[run], probe),
            "{} cache: a fork wrote through the shared tail page",
            mode.label()
        );
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

    /// `extend(run)` ≡ `extend(run[..cut]); extend(run[cut..])` ≡ the
    /// `step` loop — logits, requant count and cache contents — across
    /// random models, token streams, prompt lengths, cuts, schemes and
    /// cache modes.
    #[test]
    fn extend_equals_steps_at_any_cut(
        seed in any::<u64>(),
        raw in proptest::collection::vec(0_usize..128, 5..24),
        split_frac in 0.0_f32..1.0,
        cut_frac in 0.0_f32..1.0,
        scheme_idx in 0_usize..6,
        mode_idx in 0_usize..3,
    ) {
        let shape = ModelShape::tiny_test();
        let model = SyntheticLlm::generate(&shape, seed);
        let scheme = parity_schemes().swap_remove(scheme_idx);
        let qm = QuantizedModel::build(model.weights(), scheme, &[tokens(20, shape.vocab, 8)]);
        let mode = KvCacheMode::ALL[mode_idx];
        // prompt ≥ 1, run ≥ 2 (so a cut leaves both sides non-empty), probe.
        let n = raw.len() - 1;
        let prompt = 1 + ((n - 3) as f32 * split_frac) as usize;
        let (run, probe) = (&raw[prompt..n], raw[n]);
        let cut = 1 + ((run.len() - 2) as f32 * cut_frac) as usize;
        let start = || {
            let mut s = DecodeSession::with_cache_mode(&qm, mode);
            s.prefill(&raw[..prompt]);
            s
        };
        let steps = step_loop(start(), run, probe);
        prop_assert_eq!(&ingest(start(), &[run], probe), &steps);
        prop_assert_eq!(&ingest(start(), &[&run[..cut], &run[cut..]], probe), &steps);
    }
}
