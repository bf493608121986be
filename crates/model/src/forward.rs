//! Transformer forward pass with pluggable quantized matmul sites.
//!
//! Every weight matmul in a block — Q, K, V, O, FC1, (Gate,) FC2 — is a
//! *site* that a [`Scheme`] can replace with a calibrated quantized
//! operator. Activation×activation matmuls (`X_Q × X_K^T`, `X_S × X_V`)
//! are routed through [`Scheme::act_act_matmul`] per head, so the
//! "Tender (all)" variant can quantize them too (Table III). The LM head
//! and the norms/softmax stay in floating point, matching the paper's
//! setup (the VPU handles those).

use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe, RefUnwindSafe, UnwindSafe};
use std::sync::{Arc, OnceLock};

use tender_metrics::faults as fault_metrics;
use tender_metrics::setup as setup_metrics;
use tender_quant::granularity::{Granularity, GranularityScheme};
use tender_quant::scheme::{CalibInput, ExactScheme, Fp16Scheme, QuantMatmul, Scheme, SiteStats};
use tender_tensor::{pool, Matrix, PackedF32};

use crate::pipeline::{forward_internal, CaptureMap, ModelRef, StatsCapture};
use crate::weights::{ShapeError, TransformerWeights};

/// A quantizable matmul site within a Transformer block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Site {
    /// Query projection.
    Q,
    /// Key projection.
    K,
    /// Value projection.
    V,
    /// Attention output projection.
    O,
    /// First FFN projection.
    Fc1,
    /// Gate projection (SiLU-gated FFNs only).
    Gate,
    /// Second FFN projection.
    Fc2,
}

impl Site {
    /// All sites a layer can have (Gate is skipped for ungated FFNs).
    pub const ALL: [Site; 7] = [
        Site::Q,
        Site::K,
        Site::V,
        Site::O,
        Site::Fc1,
        Site::Gate,
        Site::Fc2,
    ];
}

/// Every weight site's calibration statistics, keyed by `(layer, site)`.
/// The sites that read one activation share one allocation: Q, K and V, and
/// a gated FFN's Fc1 and Gate.
pub type SiteStatsMap = HashMap<(usize, Site), Arc<SiteStats>>;

/// Every weight site's captured input activations, keyed by
/// `(layer, site)`: one matrix per calibration batch, in batch order.
pub type SampleMap = HashMap<(usize, Site), Vec<Matrix>>;

/// The FP32 reference model (the paper's "Base" rows, modulo FP16
/// rounding, which [`tender_quant::scheme::Fp16Scheme`] models separately).
/// Its tensors are shared ([`TransformerWeights`]), so a clone is cheap and
/// holds no new weight bytes. What it adds is its f32 products' store
/// ([`PackedF32`], DESIGN.md §10): the LM head, packed when the model is
/// built, and its weight sites — [`ExactScheme`]'s operators, which pack
/// their weights — built on the model's first weight product and shared by
/// all its clones.
#[derive(Debug, Clone)]
pub struct ReferenceModel {
    w: TransformerWeights,
    lm_head: Arc<PackedF32>,
    sites: Arc<OnceLock<SiteTable>>,
}

impl ReferenceModel {
    /// Wraps weights into a runnable reference model.
    ///
    /// # Panics
    ///
    /// Panics if the weights fail shape validation; use
    /// [`ReferenceModel::try_new`] to handle malformed weights gracefully.
    pub fn new(w: TransformerWeights) -> Self {
        Self::try_new(w).expect("valid transformer weights")
    }

    /// Fallible constructor: reports malformed weights as a typed
    /// [`ShapeError`] instead of panicking.
    pub fn try_new(w: TransformerWeights) -> Result<Self, ShapeError> {
        w.validate()?;
        let lm_head = {
            let _span = setup_metrics::PACK.span();
            Arc::new(PackedF32::pack_transposed(&w.lm_head))
        };
        Ok(Self {
            w,
            lm_head,
            sites: Arc::default(),
        })
    }

    /// The underlying weights.
    pub fn weights(&self) -> &TransformerWeights {
        &self.w
    }

    /// Weight bytes this model holds beyond the weights it was built from:
    /// the packed LM head and, once its first weight product has run, its
    /// weight sites' operators (shared with every clone).
    pub fn weight_bytes(&self) -> usize {
        self.lm_head.bytes() + self.sites().map_or(0, SiteTable::bytes)
    }

    /// The weight sites' operators, if a weight product of this model or of
    /// one of its clones has built them.
    pub fn sites(&self) -> Option<&SiteTable> {
        self.sites.get()
    }

    /// Next-token logits for every position, `n × vocab`.
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is empty, longer than `max_seq`, or contains an
    /// out-of-vocabulary id.
    pub fn forward(&self, tokens: &[usize]) -> Matrix {
        ModelRef::from(self).forward(tokens)
    }

    /// Final hidden states (after the last norm), `n × d_model`.
    pub fn forward_hidden(&self, tokens: &[usize]) -> Matrix {
        ModelRef::from(self).forward_hidden(tokens)
    }

    /// Folds the activations entering every matmul site into that site's
    /// statistics, batch `i` as sample `i`, while the reference pass runs:
    /// no activation outlives its layer. The batches are split into one
    /// contiguous run per pool thread, each run folds into its own
    /// statistics, and the runs are merged; the folds are order-free
    /// ([`SiteStats`]), so the result is the same at any thread count.
    pub fn capture_site_stats(&self, batches: &[Vec<usize>]) -> SiteStatsMap {
        let _span = setup_metrics::CAPTURE.span();
        let n = batches.len();
        let runs = pool::current_threads().clamp(1, n.max(1));
        let parts = pool::par_map(runs, |run| {
            let mut cap = StatsCapture::default();
            let run_batches = batches.iter().enumerate();
            for (i, batch) in run_batches.take((run + 1) * n / runs).skip(run * n / runs) {
                cap.sample = i;
                forward_internal(self.into(), batch, Some(&mut cap), None)
                    .expect("forward without a kv cache cannot exhaust the arena");
            }
            cap.sites
        });
        let mut merged: HashMap<_, (Vec<Site>, SiteStats)> = HashMap::new();
        for part in parts {
            for (key, (sites, stats)) in part {
                merged
                    .entry(key)
                    .and_modify(|(_, acc)| acc.merge(&stats))
                    .or_insert((sites, stats));
            }
        }
        let mut out = SiteStatsMap::new();
        for ((li, _), (sites, stats)) in merged {
            let stats = Arc::new(stats);
            for site in sites {
                out.insert((li, site), Arc::clone(&stats));
            }
        }
        out
    }

    /// Captures the activations entering every matmul site: the samples
    /// the schemes that read elements calibrate on
    /// ([`Scheme::reads_samples`]).
    pub fn capture_site_activations(&self, batches: &[Vec<usize>]) -> SampleMap {
        let _span = setup_metrics::CAPTURE.span();
        // One capture pass per batch across the pool; merging in batch
        // order keeps every site's activation list identical to the serial
        // traversal.
        let maps = pool::par_map(batches.len(), |i| {
            let mut cap = CaptureMap::new();
            forward_internal(self.into(), &batches[i], Some(&mut cap), None)
                .expect("forward without a kv cache cannot exhaust the arena");
            cap
        });
        let mut merged = CaptureMap::new();
        for cap in maps {
            for (key, mats) in cap {
                merged.entry(key).or_default().extend(mats);
            }
        }
        merged
    }

    /// The activation entering the QKV projections of `layer` — the tensor
    /// Figure 2/3 of the paper plots.
    ///
    /// # Panics
    ///
    /// Panics if `layer >= shape.layers`.
    pub fn qkv_input_activation(&self, tokens: &[usize], layer: usize) -> Matrix {
        assert!(layer < self.w.shape.layers, "layer out of range");
        let mut cap = CaptureMap::new();
        forward_internal(self.into(), tokens, Some(&mut cap), None)
            .expect("forward without a kv cache cannot exhaust the arena");
        cap.remove(&(layer, Site::Q)).expect("captured").remove(0)
    }
}

/// Every weight site of a model as a [`QuantMatmul`] operator, one slot
/// per [`Site`] per layer (`Gate` only for a gated FFN): the exact products
/// of a reference ([`SiteTable::exact`]) or a quantized model's calibrated
/// operators.
pub struct SiteTable {
    layers: Vec<[Option<Box<dyn QuantMatmul>>; Site::ALL.len()]>,
}

impl SiteTable {
    /// [`ExactScheme`]'s operator at every weight site of `w`, in one
    /// `setup.pack` span. Runs on whichever thread makes the first
    /// reference weight product — a pool worker inside the calibration
    /// capture, say — so it stays serial and never dispatches to the pool
    /// (DESIGN.md §6). `prepare`, not `try_prepare`: a reference runs the
    /// weights it holds, non-finite ones included.
    pub(crate) fn exact(w: &TransformerWeights) -> Self {
        let _span = setup_metrics::PACK.span();
        let layers = w
            .layers
            .iter()
            .map(|l| Site::ALL.map(|site| Some(ExactScheme.prepare(&[], l.site(site)?))))
            .collect();
        Self { layers }
    }

    /// The operator of `(layer, site)`, `None` for a site the layer does
    /// not have.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    pub(crate) fn get(&self, layer: usize, site: Site) -> Option<&dyn QuantMatmul> {
        self.layers[layer][site as usize].as_deref()
    }

    /// Bytes the operators hold ([`QuantMatmul::resident_bytes`]).
    pub fn bytes(&self) -> usize {
        self.layers
            .iter()
            .flatten()
            .flatten()
            .map(|op| op.resident_bytes())
            .sum()
    }
}

// An operator's `forward` is a pure function of its input over state fixed
// at calibration (`QuantMatmul`), so a panic inside one leaves nothing half
// written: a `&ReferenceModel` may cross a `catch_unwind`.
impl RefUnwindSafe for SiteTable {}
impl UnwindSafe for SiteTable {}

impl fmt::Debug for SiteTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SiteTable")
            .field("layers", &self.layers.len())
            .field("bytes", &self.bytes())
            .finish()
    }
}

/// Record of one matmul site that fell down the degradation ladder because
/// the primary scheme could not calibrate it.
#[derive(Debug, Clone)]
pub struct DegradedSite {
    /// Layer index of the degraded site.
    pub layer: usize,
    /// Which matmul within the layer.
    pub site: Site,
    /// The scheme actually serving the site: `"INT8"` or `"FP16"`.
    pub fallback: &'static str,
    /// Why the primary scheme failed (a [`PrepareError`] rendering or a
    /// panic note).
    ///
    /// [`PrepareError`]: tender_quant::scheme::PrepareError
    pub reason: String,
}

/// Replaces non-finite elements with zero so fallback rungs of the
/// degradation ladder always see a valid weight.
fn sanitize(m: &Matrix) -> Matrix {
    m.map(|v| if v.is_finite() { v } else { 0.0 })
}

/// Calibrates one site, degrading Tender INT4/INT8 → per-tensor INT8 →
/// FP16 when the primary scheme fails (typed error *or* panic). The ladder
/// never gives up: FP16 on sanitized inputs always succeeds, so a corrupt
/// calibration blob or a poisoned channel costs accuracy at one site
/// instead of aborting the whole experiment.
fn prepare_with_ladder(
    scheme: &dyn Scheme,
    input: CalibInput<'_>,
    weight: &Matrix,
    layer: usize,
    site: Site,
) -> (Box<dyn QuantMatmul>, Option<DegradedSite>) {
    let primary = catch_unwind(AssertUnwindSafe(|| scheme.try_calibrate(input, weight)));
    let reason = match primary {
        Ok(Ok(op)) => return (op, None),
        Ok(Err(e)) => e.to_string(),
        Err(_) => "panic during calibration".to_string(),
    };
    fault_metrics::DEGRADED_SITES.incr();
    let sw = sanitize(weight);
    let sstats = input.stats.sanitized();
    let sanitized = CalibInput::stats(&sstats);
    let int8 = GranularityScheme::new(8, Granularity::PerTensor);
    if let Ok(Ok(op)) = catch_unwind(AssertUnwindSafe(|| int8.try_calibrate(sanitized, &sw))) {
        fault_metrics::FALLBACK_INT8.incr();
        return (
            op,
            Some(DegradedSite {
                layer,
                site,
                fallback: "INT8",
                reason,
            }),
        );
    }
    fault_metrics::FALLBACK_FP16.incr();
    (
        Fp16Scheme::new().calibrate(sanitized, &sw),
        Some(DegradedSite {
            layer,
            site,
            fallback: "FP16",
            reason,
        }),
    )
}

/// A model whose weight matmuls run through calibrated quantized operators:
/// the reference model over the same weights (shared, not copied), plus one
/// operator per site.
pub struct QuantizedModel {
    reference: ReferenceModel,
    /// Filled at build, so a weight product never builds it.
    sites: OnceLock<SiteTable>,
    scheme: Box<dyn Scheme>,
    degraded: Vec<DegradedSite>,
}

impl QuantizedModel {
    /// Calibrates `scheme` on the given token batches (via a reference
    /// forward pass that folds every site's input statistics, and one that
    /// keeps the activations if the scheme reads them) and builds the
    /// quantized model.
    ///
    /// # Panics
    ///
    /// Panics if `calib_batches` is empty.
    pub fn build(
        weights: &TransformerWeights,
        scheme: Box<dyn Scheme>,
        calib_batches: &[Vec<usize>],
    ) -> Self {
        assert!(
            !calib_batches.is_empty(),
            "calibration requires at least one batch"
        );
        let reference = ReferenceModel::new(weights.clone());
        let stats = reference.capture_site_stats(calib_batches);
        let samples = scheme
            .reads_samples()
            .then(|| reference.capture_site_activations(calib_batches));
        Self::build_with_capture(&reference, scheme, &stats, samples.as_ref())
    }

    /// Like [`QuantizedModel::build`], but over an existing reference model
    /// and reusing the statistics its [`ReferenceModel::capture_site_stats`]
    /// folded — and, for a scheme that [reads samples](Scheme::reads_samples),
    /// the activations its [`ReferenceModel::capture_site_activations`]
    /// kept — so one reference pass can calibrate many schemes. Each
    /// operator is built here from those and its weight. The model shares
    /// the reference's tensors; what it adds is its operators.
    ///
    /// # Panics
    ///
    /// Panics if `stats` (or, for a scheme that reads them, `samples`)
    /// misses any site of this model.
    pub fn build_with_capture(
        reference: &ReferenceModel,
        scheme: Box<dyn Scheme>,
        stats: &SiteStatsMap,
        samples: Option<&SampleMap>,
    ) -> Self {
        let _span = setup_metrics::QUANTIZE.span();
        let layers = &reference.w.layers;
        let sites: Vec<(usize, Site, &Matrix)> = (0..layers.len())
            .flat_map(|li| Site::ALL.map(|site| (li, site)))
            .filter_map(|(li, site)| Some((li, site, &**layers[li].site(site)?)))
            .collect();
        // Per-site calibration is independent, so `prepare` fans out across
        // the pool; results come back in site order. Each site runs the
        // degradation ladder, so one bad site costs accuracy, not the run.
        let reads_samples = scheme.reads_samples();
        let prepared = pool::par_map(sites.len(), |i| {
            let (li, site, weight) = sites[i];
            let stats = stats
                .get(&(li, site))
                .unwrap_or_else(|| panic!("no calibration statistics for layer {li} {site:?}"));
            let samples = reads_samples.then(|| {
                let name = scheme.name();
                samples
                    .and_then(|m| m.get(&(li, site)))
                    .unwrap_or_else(|| panic!("{name} reads samples; none for layer {li} {site:?}"))
                    .as_slice()
            });
            let input = CalibInput { stats, samples };
            prepare_with_ladder(scheme.as_ref(), input, weight, li, site)
        });
        let mut table = SiteTable {
            layers: layers.iter().map(|_| Default::default()).collect(),
        };
        let mut degraded = Vec::new();
        for (&(li, site, _), (op, deg)) in sites.iter().zip(prepared) {
            table.layers[li][site as usize] = Some(op);
            degraded.extend(deg);
        }
        Self {
            reference: reference.clone(),
            sites: OnceLock::from(table),
            scheme,
            degraded,
        }
    }

    /// Weight bytes this model holds beyond the reference it was built
    /// over: its operators' calibrated state
    /// ([`QuantMatmul::resident_bytes`]).
    pub fn weight_bytes(&self) -> usize {
        self.sites.get().map_or(0, SiteTable::bytes)
    }

    /// Sites the degradation ladder moved off the primary scheme, in
    /// (layer, site) build order. Empty on a healthy build.
    pub fn degraded_sites(&self) -> &[DegradedSite] {
        &self.degraded
    }

    /// The underlying weights.
    pub fn weights(&self) -> &TransformerWeights {
        self.reference.weights()
    }

    /// The scheme this model was quantized with.
    pub fn scheme_name(&self) -> String {
        self.scheme.name()
    }

    /// Next-token logits for every position, `n × vocab`.
    ///
    /// # Panics
    ///
    /// Panics on the same conditions as [`ReferenceModel::forward`].
    pub fn forward(&self, tokens: &[usize]) -> Matrix {
        ModelRef::from(self).forward(tokens)
    }

    /// Final hidden states (after the last norm), `n × d_model`.
    pub fn forward_hidden(&self, tokens: &[usize]) -> Matrix {
        ModelRef::from(self).forward_hidden(tokens)
    }
}

impl<'m> From<&'m ReferenceModel> for ModelRef<'m> {
    fn from(m: &'m ReferenceModel) -> Self {
        Self {
            w: &m.w,
            lm_head: &m.lm_head,
            sites: &m.sites,
            act_act: None,
        }
    }
}

impl<'m> From<&'m QuantizedModel> for ModelRef<'m> {
    fn from(m: &'m QuantizedModel) -> Self {
        let scheme = m.scheme.as_ref();
        Self {
            sites: &m.sites,
            act_act: scheme.quantizes_act_act().then_some(scheme),
            ..Self::from(&m.reference)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::{Activation, ModelShape, NormKind};
    use crate::synthetic::SyntheticLlm;
    use tender_quant::tender::{TenderConfig, TenderScheme};
    use tender_tensor::stats::sqnr_db;

    fn tiny() -> (ModelShape, SyntheticLlm) {
        let shape = ModelShape::tiny_test();
        let model = SyntheticLlm::generate(&shape, 11);
        (shape, model)
    }

    fn tokens(n: usize, vocab: usize, salt: usize) -> Vec<usize> {
        (0..n).map(|i| (i * 31 + salt * 17 + 5) % vocab).collect()
    }

    #[test]
    fn forward_shapes() {
        let (shape, model) = tiny();
        let reference = model.reference();
        let t = tokens(16, shape.vocab, 0);
        assert_eq!(reference.forward(&t).shape(), (16, shape.vocab));
        assert_eq!(reference.forward_hidden(&t).shape(), (16, shape.d_model));
    }

    #[test]
    fn forward_is_deterministic_and_finite() {
        let (shape, model) = tiny();
        let reference = model.reference();
        let t = tokens(12, shape.vocab, 1);
        let a = reference.forward(&t);
        let b = reference.forward(&t);
        assert_eq!(a, b);
        assert!(a.is_finite());
    }

    #[test]
    fn causal_mask_means_prefix_invariance() {
        // Decoder: logits at position i must not depend on tokens after i.
        let (shape, model) = tiny();
        let reference = model.reference();
        let mut t1 = tokens(10, shape.vocab, 2);
        let l1 = reference.forward(&t1);
        // Change the final token; logits at earlier positions must be equal.
        t1[9] = (t1[9] + 1) % shape.vocab;
        let l2 = reference.forward(&t1);
        for c in 0..shape.vocab {
            assert_eq!(l1[(5, c)], l2[(5, c)], "position 5 must ignore token 9");
        }
        assert_ne!(l1.row(9), l2.row(9), "position 9 must see its own token");
    }

    #[test]
    fn encoder_has_no_causal_mask() {
        let shape = ModelShape::tiny_encoder_test();
        let model = SyntheticLlm::generate(&shape, 12);
        let reference = model.reference();
        let mut t = tokens(10, shape.vocab, 3);
        let h1 = reference.forward_hidden(&t);
        t[9] = (t[9] + 1) % shape.vocab;
        let h2 = reference.forward_hidden(&t);
        // Bidirectional: early positions DO change.
        assert_ne!(h1.row(0), h2.row(0));
    }

    #[test]
    fn quantized_model_with_exact_scheme_matches_reference() {
        let (shape, model) = tiny();
        let reference = model.reference();
        let calib = vec![tokens(16, shape.vocab, 4)];
        let qm = QuantizedModel::build(model.weights(), Box::new(ExactScheme::new()), &calib);
        let t = tokens(16, shape.vocab, 5);
        let lr = reference.forward(&t);
        let lq = qm.forward(&t);
        assert_eq!(lr, lq, "the exact scheme runs the reference's product");
    }

    #[test]
    fn tender_int8_model_close_to_reference() {
        let (shape, model) = tiny();
        let reference = model.reference();
        let calib = vec![tokens(24, shape.vocab, 6), tokens(24, shape.vocab, 7)];
        let qm = QuantizedModel::build(
            model.weights(),
            Box::new(TenderScheme::new(TenderConfig::int8().with_row_chunk(0))),
            &calib,
        );
        let t = tokens(24, shape.vocab, 8);
        // The tiny test model has far denser outliers (5% of channels)
        // than a real LLM, so logit SQNR is modest — but must stay well
        // above the garbage regime (~0 dB).
        let sqnr = sqnr_db(&reference.forward(&t), &qm.forward(&t));
        assert!(sqnr > 10.0, "tender INT8 logits sqnr {sqnr}");
        assert_eq!(qm.scheme_name(), "Tender INT8");
    }

    #[test]
    fn gated_ffn_forward_works() {
        let mut shape = ModelShape::tiny_test();
        shape.activation = Activation::SiluGated;
        shape.norm = NormKind::RmsNorm;
        let model = SyntheticLlm::generate(&shape, 13);
        let reference = model.reference();
        let t = tokens(8, shape.vocab, 9);
        assert!(reference.forward(&t).is_finite());
        // Quantized build covers the Gate site.
        let qm = QuantizedModel::build(
            model.weights(),
            Box::new(ExactScheme::new()),
            std::slice::from_ref(&t),
        );
        assert!(qm.forward(&t).is_finite());
    }

    #[test]
    #[should_panic(expected = "out of vocabulary")]
    fn rejects_out_of_vocab_token() {
        let (shape, model) = tiny();
        let _ = model.reference().forward(&[shape.vocab]);
    }

    #[test]
    #[should_panic(expected = "empty token sequence")]
    fn rejects_empty_sequence() {
        let (_, model) = tiny();
        let _ = model.reference().forward(&[]);
    }

    #[test]
    fn nan_weight_degrades_site_and_keeps_logits_finite() {
        let (shape, model) = tiny();
        let mut w = model.weights().clone();
        // Poison one projection the way the weight-fault site would (the
        // clone shares it with `model`, so the write copies it first).
        Arc::make_mut(&mut w.layers[1].wv)[(0, 3)] = f32::NAN;
        let calib = vec![tokens(16, shape.vocab, 20)];
        let before = tender_metrics::faults::DEGRADED_SITES.get();
        let qm = QuantizedModel::build(
            &w,
            Box::new(TenderScheme::new(TenderConfig::int8().with_row_chunk(0))),
            &calib,
        );
        // The NaN weight degrades its own site, and the reference capture
        // pass propagates NaN into the later activations of that layer, so
        // O and Fc1 degrade too (with activation reasons). ReLU then maps
        // NaN to 0, so the Fc2 input is finite again and Fc2 survives.
        let got: Vec<(usize, Site)> = qm
            .degraded_sites()
            .iter()
            .map(|d| (d.layer, d.site))
            .collect();
        assert_eq!(got, vec![(1, Site::V), (1, Site::O), (1, Site::Fc1)]);
        let d = &qm.degraded_sites()[0];
        assert_eq!(d.fallback, "INT8");
        assert!(d.reason.contains("non-finite weight"), "{}", d.reason);
        assert!(qm.degraded_sites()[1]
            .reason
            .contains("non-finite calibration activation"));
        assert_eq!(tender_metrics::faults::DEGRADED_SITES.get(), before + 3);
        // The fallback operator sanitized the weight: logits stay finite.
        assert!(qm.forward(&tokens(12, shape.vocab, 21)).is_finite());
    }

    #[test]
    fn reference_try_new_reports_malformed_weights() {
        let (_, model) = tiny();
        let mut w = model.weights().clone();
        let d = w.shape.d_model;
        w.layers[0].wq = Arc::new(Matrix::zeros(d - 1, d));
        let err = ReferenceModel::try_new(w).unwrap_err();
        assert_eq!(err.what, "layer 0 wq");
    }

    #[test]
    fn capture_covers_all_sites() {
        let (shape, model) = tiny();
        let reference = model.reference();
        let batches = [tokens(8, shape.vocab, 10), tokens(5, shape.vocab, 11)];
        let cap = reference.capture_site_activations(&batches);
        let stats = reference.capture_site_stats(&batches);
        for li in 0..shape.layers {
            for site in [Site::Q, Site::K, Site::V, Site::O, Site::Fc1, Site::Fc2] {
                assert!(cap.contains_key(&(li, site)), "missing {li} {site:?}");
                // The folded statistics are those of the kept samples.
                assert_eq!(
                    *stats[&(li, site)],
                    SiteStats::from_samples(&cap[&(li, site)])
                );
            }
            assert!(
                !cap.contains_key(&(li, Site::Gate)) && !stats.contains_key(&(li, Site::Gate)),
                "ungated FFN has no Gate"
            );
            assert!(Arc::ptr_eq(&stats[&(li, Site::Q)], &stats[&(li, Site::V)]));
        }
    }
}
