//! End-to-end experiment harness: model generation → calibration →
//! quantized inference → evaluation.

use std::sync::OnceLock;

use tender_model::calibration::{token_batches, CorpusKind};
use tender_model::eval::{perplexity, reference_perplexity, EvalSet};
use tender_model::{
    ModelShape, QuantizedModel, ReferenceModel, SampleMap, SiteStatsMap, SyntheticLlm,
};
use tender_quant::scheme::Scheme;

/// Sizing knobs for an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentOptions {
    /// Model-generation seed.
    pub seed: u64,
    /// Calibration sample count (the paper uses 128 Pile samples).
    pub calib_samples: usize,
    /// Calibration/evaluation sequence length.
    pub seq_len: usize,
    /// Evaluation sequences per corpus.
    pub eval_seqs: usize,
}

impl ExperimentOptions {
    /// Fast settings for unit tests and doc examples.
    pub fn fast() -> Self {
        Self {
            seed: 0x7E4D_E600,
            calib_samples: 2,
            seq_len: 24,
            eval_seqs: 2,
        }
    }

    /// The experiment binaries' default settings (laptop-scale but
    /// statistically steadier). The calibration volume matters: static
    /// per-channel scales must envelope the runtime value range, which the
    /// paper achieves with 128 × 2048-token Pile samples; scaled down, 32
    /// samples keep the per-chunk max estimates reliable.
    pub fn standard() -> Self {
        Self {
            seed: 0x7E4D_E600,
            calib_samples: 32,
            seq_len: 96,
            eval_seqs: 4,
        }
    }

    /// Overrides the sequence length (Table III sweeps it).
    pub fn with_seq_len(mut self, seq_len: usize) -> Self {
        self.seq_len = seq_len;
        self
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// A prepared experiment: one synthetic model, its FP32 reference and its
/// calibration batches. The expensive parts are built on first use and then
/// kept: every site's calibration statistics by the first
/// [`Experiment::quantize`], the raw calibration samples by the first
/// quantize under a scheme that reads them (ANT, OliVe), each evaluation
/// set by the first [`Experiment::eval_set`] of its corpus. A run that
/// never quantizes never captures, one whose schemes calibrate from
/// statistics never keeps an activation, and one that never evaluates
/// builds no evaluation set. Each part has its own seed, so the bits it
/// holds do not depend on which part was built first.
pub struct Experiment {
    model: SyntheticLlm,
    reference: ReferenceModel,
    calib: Vec<Vec<usize>>,
    stats: OnceLock<SiteStatsMap>,
    samples: OnceLock<SampleMap>,
    wiki: OnceLock<EvalSet>,
    ptb: OnceLock<EvalSet>,
    options: ExperimentOptions,
}

impl Experiment {
    /// Generates the model and the calibration batches for `shape`.
    pub fn new(shape: &ModelShape, options: ExperimentOptions) -> Self {
        let model = SyntheticLlm::generate(shape, options.seed);
        let reference = model.reference();
        // Calibration uses Pile-like samples, as in the paper (§V-A).
        let calib = token_batches(
            CorpusKind::Pile,
            shape.vocab,
            options.calib_samples,
            options.seq_len,
            options.seed ^ 0xCA11B,
        );
        Self {
            model,
            reference,
            calib,
            stats: OnceLock::new(),
            samples: OnceLock::new(),
            wiki: OnceLock::new(),
            ptb: OnceLock::new(),
            options,
        }
    }

    /// The generated synthetic model.
    pub fn model(&self) -> &SyntheticLlm {
        &self.model
    }

    /// The FP32 reference model.
    pub fn reference(&self) -> &ReferenceModel {
        &self.reference
    }

    /// The calibration token batches.
    pub fn calibration_batches(&self) -> &[Vec<usize>] {
        &self.calib
    }

    /// The options this experiment was built with.
    pub fn options(&self) -> &ExperimentOptions {
        &self.options
    }

    /// The evaluation set for a corpus, built on the first call.
    ///
    /// # Panics
    ///
    /// Panics for [`CorpusKind::Pile`] (calibration-only corpus).
    pub fn eval_set(&self, corpus: CorpusKind) -> &EvalSet {
        let cell = match corpus {
            CorpusKind::Wiki => &self.wiki,
            CorpusKind::Ptb => &self.ptb,
            CorpusKind::Pile => panic!("{corpus:?} is not an evaluation corpus"),
        };
        cell.get_or_init(|| {
            EvalSet::build(
                &self.reference,
                corpus,
                self.options.eval_seqs,
                self.options.seq_len,
                self.options.seed ^ corpus as u64,
            )
        })
    }

    /// Perplexity of the FP32 reference on a corpus.
    pub fn reference_perplexity(&self, corpus: CorpusKind) -> f64 {
        reference_perplexity(&self.reference, self.eval_set(corpus))
    }

    /// Builds a quantized model under `scheme`, calibrated on this
    /// experiment's calibration batches. The first call runs the reference
    /// pass that folds every site's statistics, which calibrate every
    /// scheme; the first call under a scheme that reads samples runs the
    /// pass that keeps them. A call racing either waits for it instead of
    /// capturing again. Each call builds its operators afresh from those and
    /// the weights; the model shares the reference's tensors.
    pub fn quantize(&self, scheme: Box<dyn Scheme>) -> QuantizedModel {
        let stats = self
            .stats
            .get_or_init(|| self.reference.capture_site_stats(&self.calib));
        let samples = scheme.reads_samples().then(|| {
            self.samples
                .get_or_init(|| self.reference.capture_site_activations(&self.calib))
        });
        QuantizedModel::build_with_capture(&self.reference, scheme, stats, samples)
    }

    /// Every site's calibration statistics, if a quantize has folded them.
    pub fn site_stats(&self) -> Option<&SiteStatsMap> {
        self.stats.get()
    }

    /// The raw calibration samples, if a quantize under a scheme that
    /// reads them has kept them.
    pub fn samples(&self) -> Option<&SampleMap> {
        self.samples.get()
    }

    /// Perplexity of a quantized model on both evaluation corpora
    /// (Wiki, PTB) with a single calibration.
    pub fn perplexities_of(&self, scheme: Box<dyn Scheme>) -> (f64, f64) {
        let qm = self.quantize(scheme);
        (
            perplexity(|t| qm.forward(t), self.eval_set(CorpusKind::Wiki)),
            perplexity(|t| qm.forward(t), self.eval_set(CorpusKind::Ptb)),
        )
    }

    /// Perplexity of a quantized model under `scheme` on a corpus.
    pub fn perplexity_of(&self, scheme: Box<dyn Scheme>, corpus: CorpusKind) -> f64 {
        let qm = self.quantize(scheme);
        perplexity(|t| qm.forward(t), self.eval_set(corpus))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tender_quant::scheme::ExactScheme;

    #[test]
    fn experiment_builds_and_reference_ppl_is_sane() {
        let exp = Experiment::new(&ModelShape::tiny_test(), ExperimentOptions::fast());
        let wiki = exp.reference_perplexity(CorpusKind::Wiki);
        let ptb = exp.reference_perplexity(CorpusKind::Ptb);
        assert!(wiki > 1.0 && wiki < 200.0);
        assert!(ptb > 1.0 && ptb < 200.0);
        // Different corpora give different baselines (like Wiki vs PTB
        // columns in the paper).
        assert_ne!(wiki, ptb);
    }

    #[test]
    fn exact_scheme_reproduces_reference() {
        let exp = Experiment::new(&ModelShape::tiny_test(), ExperimentOptions::fast());
        let base = exp.reference_perplexity(CorpusKind::Wiki);
        let exact = exp.perplexity_of(Box::new(ExactScheme::new()), CorpusKind::Wiki);
        assert_eq!(base.to_bits(), exact.to_bits());
    }

    #[test]
    fn options_builders() {
        let o = ExperimentOptions::fast().with_seq_len(48).with_seed(9);
        assert_eq!(o.seq_len, 48);
        assert_eq!(o.seed, 9);
    }

    #[test]
    #[should_panic(expected = "not an evaluation corpus")]
    fn pile_is_not_an_eval_corpus() {
        let exp = Experiment::new(&ModelShape::tiny_test(), ExperimentOptions::fast());
        let _ = exp.eval_set(CorpusKind::Pile);
    }
}
