//! Proxy perplexity evaluation.
//!
//! Without WikiText-2/PTB text, perplexity is measured against token
//! streams labelled by the FP32 reference model itself: for every position
//! the target token is *sampled from the reference model's next-token
//! distribution*. The reference model then achieves cross-entropy ≈ its own
//! conditional entropy `H`, and any quantized model pays `H + KL(ref‖quant)`
//! in expectation — so proxy perplexity degrades exactly with the KL
//! divergence the scheme's quantization error induces. This preserves the
//! orderings and catastrophe/graceful distinctions of the paper's
//! perplexity tables (see `DESIGN.md` §2).

use tender_tensor::rng::DetRng;
use tender_tensor::{ops, pool, Matrix};

use crate::calibration::{token_batches, CorpusKind};
use crate::forward::ReferenceModel;

/// An evaluation set: contexts plus reference-sampled target tokens.
#[derive(Debug, Clone)]
pub struct EvalSet {
    contexts: Vec<Vec<usize>>,
    targets: Vec<Vec<usize>>,
}

impl EvalSet {
    /// Builds an evaluation set of `num_seqs` sequences of `seq_len` tokens
    /// from the given corpus, with targets sampled from `reference`.
    ///
    /// # Panics
    ///
    /// Panics if `num_seqs == 0` or `seq_len == 0`.
    pub fn build(
        reference: &ReferenceModel,
        kind: CorpusKind,
        num_seqs: usize,
        seq_len: usize,
        seed: u64,
    ) -> Self {
        assert!(num_seqs > 0, "need at least one sequence");
        let _span = tender_metrics::setup::EVAL_SETS.span();
        let vocab = reference.weights().shape.vocab;
        let contexts = token_batches(kind, vocab, num_seqs, seq_len, seed);
        // Forward passes fan out across the pool; sampling stays serial and
        // in context order so the RNG stream (and thus every target token)
        // is identical at any thread count.
        let prob_mats = pool::par_map(contexts.len(), |i| {
            ops::softmax_rows(&reference.forward(&contexts[i]))
        });
        let mut rng = DetRng::new(seed ^ 0x007A_26E7);
        let targets = contexts
            .iter()
            .zip(&prob_mats)
            .map(|(ctx, probs)| {
                (0..ctx.len())
                    .map(|p| rng.categorical(probs.row(p)))
                    .collect()
            })
            .collect();
        Self { contexts, targets }
    }

    /// The evaluation contexts.
    pub fn contexts(&self) -> &[Vec<usize>] {
        &self.contexts
    }

    /// The sampled target tokens, aligned with [`EvalSet::contexts`].
    pub fn targets(&self) -> &[Vec<usize>] {
        &self.targets
    }

    /// Number of (position, target) prediction events.
    pub fn num_predictions(&self) -> usize {
        self.targets.iter().map(Vec::len).sum()
    }
}

/// Perplexity of a model (`forward`: tokens → logits) on an evaluation set.
///
/// The result is clamped to `1e12` so catastrophic schemes print as a large
/// finite number, like the `9E+8`-style entries in the paper's tables.
///
/// # Panics
///
/// Panics if `forward` returns logits with the wrong shape.
pub fn perplexity<F: Fn(&[usize]) -> Matrix + Sync>(forward: F, eval: &EvalSet) -> f64 {
    // One forward pass per context, fanned across the pool. Per-context
    // subtotals are folded in context order, so the f64 summation order —
    // and therefore the reported perplexity — is bit-identical at any
    // thread count.
    let per_context: Vec<(f64, usize)> = pool::par_map(eval.contexts.len(), |i| {
        let ctx = &eval.contexts[i];
        let logits = forward(ctx);
        assert_eq!(logits.rows(), ctx.len(), "one logit row per position");
        let logp = ops::log_softmax_rows(&logits);
        let mut nll = 0.0_f64;
        let mut count = 0_usize;
        for (p, &t) in eval.targets[i].iter().enumerate() {
            let lp = logp[(p, t)] as f64;
            // Guard against -inf from schemes that zero entire rows.
            nll -= lp.max(-27.7); // exp(-27.7) ≈ 1e-12
            count += 1;
        }
        (nll, count)
    });
    let (total_nll, count) = per_context
        .iter()
        .fold((0.0_f64, 0_usize), |(a, c), &(n, k)| (a + n, c + k));
    (total_nll / count as f64).exp().min(1e12)
}

/// Convenience: perplexity of the reference model itself (the "FP16 Base"
/// rows, modulo half-precision rounding).
pub fn reference_perplexity(reference: &ReferenceModel, eval: &EvalSet) -> f64 {
    perplexity(|t| reference.forward(t), eval)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::ModelShape;
    use crate::synthetic::SyntheticLlm;
    use crate::QuantizedModel;
    use tender_quant::granularity::{Granularity, GranularityScheme};
    use tender_quant::scheme::{ExactScheme, Fp16Scheme};
    use tender_quant::tender::{TenderConfig, TenderScheme};

    fn setup() -> (SyntheticLlm, EvalSet) {
        let shape = ModelShape::tiny_test();
        let model = SyntheticLlm::generate(&shape, 21);
        let eval = EvalSet::build(&model.reference(), CorpusKind::Wiki, 3, 24, 77);
        (model, eval)
    }

    #[test]
    fn reference_perplexity_is_moderate() {
        let (model, eval) = setup();
        let ppl = reference_perplexity(&model.reference(), &eval);
        // Bounded well below vocab size (the model is better than uniform
        // guessing on its own distribution) and above 1.
        assert!(ppl > 1.0, "ppl {ppl}");
        assert!(ppl < 128.0, "ppl {ppl} vs vocab 128");
    }

    #[test]
    fn exact_scheme_matches_reference_perplexity() {
        let (model, eval) = setup();
        let reference = model.reference();
        let qm = QuantizedModel::build(
            model.weights(),
            Box::new(ExactScheme::new()),
            eval.contexts(),
        );
        let p_ref = reference_perplexity(&reference, &eval);
        let p_q = perplexity(|t| qm.forward(t), &eval);
        assert!((p_ref - p_q).abs() / p_ref < 1e-3);
    }

    #[test]
    fn fp16_close_to_reference() {
        let (model, eval) = setup();
        let p_ref = reference_perplexity(&model.reference(), &eval);
        let qm = QuantizedModel::build(
            model.weights(),
            Box::new(Fp16Scheme::new()),
            eval.contexts(),
        );
        let p16 = perplexity(|t| qm.forward(t), &eval);
        assert!(
            (p16 - p_ref).abs() / p_ref < 0.05,
            "fp16 {p16} vs ref {p_ref}"
        );
    }

    #[test]
    fn tender_close_to_base_per_tensor_much_worse_at_int4() {
        // The core Table I / Table II shape at model level, on the
        // outlier-heavy tiny model. INT4 gives the robust contrast at this
        // scale (at INT8 both schemes sit within noise of the baseline).
        let (model, eval) = setup();
        let calib = eval.contexts().to_vec();
        let p_ref = reference_perplexity(&model.reference(), &eval);

        let tender8 = QuantizedModel::build(
            model.weights(),
            Box::new(TenderScheme::new(TenderConfig::int8().with_row_chunk(0))),
            &calib,
        );
        let p_tender8 = perplexity(|t| tender8.forward(t), &eval);
        assert!(
            p_tender8 < p_ref * 1.5,
            "Tender INT8 ppl {p_tender8} should stay near base {p_ref}"
        );

        let tender4 = QuantizedModel::build(
            model.weights(),
            Box::new(TenderScheme::new(TenderConfig::int4().with_row_chunk(0))),
            &calib,
        );
        let p_tender4 = perplexity(|t| tender4.forward(t), &eval);
        let pt4 = QuantizedModel::build(
            model.weights(),
            Box::new(GranularityScheme::new(4, Granularity::PerTensor)),
            &calib,
        );
        let p_pt4 = perplexity(|t| pt4.forward(t), &eval);
        // The tiny 2-layer test model gives a small but deterministic
        // margin; the full-scale ordering is asserted by the integration
        // tests and regenerated by the Table I/II binaries.
        assert!(
            p_pt4 > p_tender4,
            "per-tensor INT4 ppl {p_pt4} must exceed Tender INT4 {p_tender4}"
        );
    }

    #[test]
    fn eval_set_is_deterministic() {
        let shape = ModelShape::tiny_test();
        let model = SyntheticLlm::generate(&shape, 22);
        let a = EvalSet::build(&model.reference(), CorpusKind::Ptb, 2, 16, 5);
        let b = EvalSet::build(&model.reference(), CorpusKind::Ptb, 2, 16, 5);
        assert_eq!(a.targets(), b.targets());
        assert_eq!(a.num_predictions(), 32);
    }

    #[test]
    fn perplexity_clamps_catastrophe() {
        let (model, eval) = setup();
        let vocab = model.weights().shape.vocab;
        // A "model" that outputs pathological logits.
        let garbage =
            |t: &[usize]| Matrix::from_fn(t.len(), vocab, |_, c| if c == 0 { 1e30 } else { -1e30 });
        let ppl = perplexity(garbage, &eval);
        assert!(ppl.is_finite());
        assert!(ppl > 1e6);
    }
}
