//! Synthetic weight generation with outlier-channel injection.
//!
//! Prior work (cited in §II-B of the paper) attributes LLM activation
//! outliers to *large LayerNorm gain weights in fixed channels across
//! layers*. The generator reproduces that mechanism directly: a fixed set
//! of channels (chosen once per model) receives norm gains
//! `outlier_gain`× larger than the rest in every layer, so the activations
//! entering the QKV and FC1 projections carry large-magnitude values in
//! those channels for every token — the vertical stripes of Figure 3.

use std::sync::Arc;

use tender_metrics::setup as metrics;
use tender_tensor::rng::DetRng;

use crate::forward::ReferenceModel;
use crate::shape::{Activation, ModelShape};
use crate::weights::{LayerWeights, TransformerWeights};

/// A generated synthetic LLM: weights plus the channels that were made
/// outliers.
#[derive(Debug, Clone)]
pub struct SyntheticLlm {
    weights: TransformerWeights,
    outlier_channels: Vec<usize>,
}

/// Norm-gain multiplier applied to outlier channels, as a fraction of the
/// preset's `outlier_gain` (the rest of the magnitude comes from the
/// residual stream).
pub const GAMMA_OUT_FACTOR: f32 = 0.2;

impl SyntheticLlm {
    /// Generates a model for `shape` from `seed`. Deterministic: the same
    /// `(shape, seed)` always produces the same weights.
    pub fn generate(shape: &ModelShape, seed: u64) -> Self {
        let _span = metrics::MODEL_GEN.span();
        shape.validate();
        let mut rng = DetRng::new(seed ^ 0x7E4D_E47E);
        let d = shape.d_model;
        let f = shape.ffn_dim;

        // Fixed outlier channel set, shared by every layer.
        let outlier_channels = rng.sample_indices(d, shape.outlier_channels);

        // Projections scaled by 1/sqrt(d) so pre-norm inputs of unit scale
        // produce unit-scale outputs. Block outputs are *not* depth-damped:
        // with only a few layers, the residual stream must be dominated by
        // transformed content rather than the raw (tied) token embedding,
        // or the model degenerates into predicting its own input token.
        let proj_std = 1.0 / (d as f32).sqrt();
        let out_damp = 1.0;

        let gamma = |rng: &mut DetRng, outliers: &[usize]| -> Vec<f32> {
            // Ordinary channels draw log-normal gains: real LayerNorm gain
            // distributions are continuously heavy-tailed (median ~1 with a
            // tail of moderately large channels), which is why the paper
            // needs *multiple* channel groups rather than a binary
            // outlier/normal split (Fig. 9).
            let mut g: Vec<f32> = (0..d).map(|_| rng.log_normal(0.0, 0.45)).collect();
            for &c in outliers {
                // Large norm gains on the outlier channels (the LayerNorm-
                // weight mechanism §II-B cites) set the outlier *magnitude*;
                // the residual stream sets its sign-consistency/compactness.
                // Post-norm, a channel's normalized value is capped near
                // √(d/n_outliers), so γ controls the outlier:normal ratio.
                g[c] = (shape.outlier_gain * GAMMA_OUT_FACTOR).max(1.5)
                    * (1.0 + rng.normal(0.0, 0.15).abs());
            }
            g
        };
        // Real LayerNorm biases are substantial (O(0.5)), making per-channel
        // activation ranges asymmetric — the range Tender's channel bias
        // reclaims and symmetric formats waste.
        let beta =
            |rng: &mut DetRng| -> Vec<f32> { (0..d).map(|_| rng.normal(0.0, 0.5)).collect() };

        let layers = (0..shape.layers)
            .map(|_| {
                let ln2_gamma = gamma(&mut rng, &outlier_channels);
                // A gated FFN multiplies two projections of the (outlier-
                // amplified) normed input, so its output scales with the
                // input energy E[b²] rather than its square root; normalize
                // fc2 accordingly or the product's fixed correlation
                // component swamps the residual stream and the model
                // degenerates into a constant prediction. Outlier channels
                // contribute γ²·d/n_o each (their post-norm magnitude is
                // pinned near √(d/n_o)).
                let n_o = outlier_channels.len().max(1) as f32;
                let input_energy: f32 = ln2_gamma
                    .iter()
                    .enumerate()
                    .map(|(c, g)| {
                        if outlier_channels.contains(&c) {
                            g * g * d as f32 / n_o
                        } else {
                            g * g
                        }
                    })
                    .sum::<f32>()
                    / d as f32;
                let fc2_std = match shape.activation {
                    Activation::SiluGated => (1.0 / (f as f32).sqrt()) / input_energy.max(1.0),
                    _ => 1.0 / (f as f32).sqrt(),
                };
                // Residual-stream outliers: the projections that *write*
                // into the residual stream (wo, w_fc2) have amplified
                // columns at the fixed outlier channels, so those channels
                // of the stream carry values `outlier_gain`× larger than
                // the rest. After per-row (Layer|RMS)Norm, the outlier
                // channels' activations are large and *compact* (their
                // magnitude is pinned near √(d/n_outliers)·γ because they
                // dominate the row's variance) with token-dependent sign —
                // the saturated vertical stripes of Figure 3.
                let boost_cols = |m: &mut tender_tensor::Matrix, boost: f32| {
                    for r in 0..m.rows() {
                        for &c in &outlier_channels {
                            m[(r, c)] *= boost;
                        }
                    }
                };
                // Block writes add token-dependent *variation* on top of
                // the sign-consistent base carried by the embeddings.
                let mut wo = rng.normal_matrix(d, d, 0.0, proj_std * out_damp);
                boost_cols(&mut wo, shape.outlier_gain / 16.0);
                let mut w_fc2 = rng.normal_matrix(f, d, 0.0, fc2_std * out_damp);
                boost_cols(&mut w_fc2, shape.outlier_gain / 16.0);
                // Projections *reading* the activations are near-blind to
                // the outlier channels: in trained LLMs those features act
                // as attention sinks / biases, not content — which is the
                // crux of the outlier problem: they inflate quantization
                // scales while the semantic signal lives in the small
                // channels that coarse scales crush.
                let damp_rows = |m: &mut tender_tensor::Matrix| {
                    for &c in &outlier_channels {
                        for j in 0..m.cols() {
                            m[(c, j)] *= 0.02;
                        }
                    }
                };
                let mut wq = rng.normal_matrix(d, d, 0.0, proj_std);
                let mut wk = rng.normal_matrix(d, d, 0.0, proj_std);
                let mut wv = rng.normal_matrix(d, d, 0.0, proj_std);
                let mut w_fc1 = rng.normal_matrix(d, f, 0.0, proj_std);
                for m in [&mut wq, &mut wk, &mut wv, &mut w_fc1] {
                    damp_rows(m);
                }
                let w_gate = match shape.activation {
                    Activation::SiluGated => {
                        let mut g = rng.normal_matrix(d, f, 0.0, proj_std);
                        damp_rows(&mut g);
                        Some(g)
                    }
                    _ => None,
                };
                LayerWeights {
                    ln1_gamma: gamma(&mut rng, &outlier_channels),
                    ln1_beta: beta(&mut rng),
                    wq: Arc::new(wq),
                    wk: Arc::new(wk),
                    wv: Arc::new(wv),
                    wo: Arc::new(wo),
                    ln2_gamma,
                    ln2_beta: beta(&mut rng),
                    w_fc1: Arc::new(w_fc1),
                    w_gate: w_gate.map(Arc::new),
                    w_fc2: Arc::new(w_fc2),
                }
            })
            .collect();

        let weights = TransformerWeights {
            shape: shape.clone(),
            tok_emb: Arc::new({
                // The embedding table seeds the residual-stream outliers:
                // each outlier channel carries a large *sign-consistent*
                // base value with moderate token-dependent variation, so
                // the post-norm activation shows the solidly red-or-blue
                // vertical stripes of Figure 3 — and Tender's channel bias
                // (max+min)/2 can reclaim the wasted symmetric range.
                // Embeddings write only the lower half of the feature
                // space; the LM head reads only the upper half. With the
                // subspaces complementary, every bit of predictive signal
                // must pass through the blocks' matmuls (as in a trained
                // model, where prediction depends on the transformations)
                // instead of riding the residual bypass — otherwise
                // quantization damage to the matmuls would barely reach
                // the logits.
                let mut e = rng.normal_matrix(shape.vocab, d, 0.0, 1.0);
                for r in 0..shape.vocab {
                    for c in d / 2..d {
                        e[(r, c)] = 0.0;
                    }
                }
                let signs: Vec<f32> = outlier_channels
                    .iter()
                    .map(|_| if rng.uniform() < 0.5 { -1.0 } else { 1.0 })
                    .collect();
                for r in 0..shape.vocab {
                    for (oi, &c) in outlier_channels.iter().enumerate() {
                        e[(r, c)] =
                            shape.outlier_gain * signs[oi] * (1.0 + 0.05 * rng.normal(0.0, 1.0));
                    }
                }
                e
            }),
            lm_head: Arc::new({
                // Complementary to the embedding subspace (see tok_emb),
                // and blind to the outlier channels: a trained readout does
                // not amplify a handful of huge noisy channels.
                // Readout gain 2: the head reads only the non-outlier upper half,
                // so its weights are scaled to restore the logit variance a
                // full-width readout would have.
                let mut head = rng.normal_matrix(shape.vocab, d, 0.0, 2.0);
                for r in 0..shape.vocab {
                    for c in 0..d / 2 {
                        head[(r, c)] = 0.0;
                    }
                    for &c in &outlier_channels {
                        head[(r, c)] = 0.0;
                    }
                }
                head
            }),
            pos_emb: Arc::new(rng.normal_matrix(shape.max_seq, d, 0.0, 0.1)),
            layers,
            // The final norm keeps ordinary gains so the LM-head logit
            // distribution stays non-degenerate; outliers live in the
            // per-block norms, which is where the quantized matmuls see
            // their inputs.
            final_gamma: gamma(&mut rng, &[]),
            final_beta: beta(&mut rng),
        };
        let mut weights = weights;
        // Fault injection: with a plan installed, the selected
        // (layer, channel) query-projection weights are poisoned with NaN.
        // The decision is a pure function of (seed, layer, channel), so the
        // same plan corrupts the same weights at any thread count; the
        // degradation ladder in `QuantizedModel::build_with_capture` then
        // falls back on those sites instead of propagating NaN.
        if tender_faults::active() {
            if let Some(plan) = tender_faults::plan() {
                for (li, layer) in weights.layers.iter_mut().enumerate() {
                    for c in 0..d {
                        if plan.weight_nan(li, c) {
                            Arc::make_mut(&mut layer.wq)[(0, c)] = f32::NAN;
                        }
                    }
                }
            }
        }

        Self {
            weights,
            outlier_channels,
        }
    }

    /// The generated weights.
    pub fn weights(&self) -> &TransformerWeights {
        &self.weights
    }

    /// Consumes the generator output, returning the weights.
    pub fn into_weights(self) -> TransformerWeights {
        self.weights
    }

    /// The channels that were given outlier-scale norm gains.
    pub fn outlier_channels(&self) -> &[usize] {
        &self.outlier_channels
    }

    /// Convenience: an FP32 reference model over these weights (sharing
    /// them, not copying them).
    pub fn reference(&self) -> ReferenceModel {
        ReferenceModel::new(self.weights.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tender_tensor::stats;

    #[test]
    fn generation_is_deterministic() {
        let shape = ModelShape::tiny_test();
        let a = SyntheticLlm::generate(&shape, 42);
        let b = SyntheticLlm::generate(&shape, 42);
        assert_eq!(a.weights().layers[0].wq, b.weights().layers[0].wq);
        assert_eq!(a.outlier_channels(), b.outlier_channels());
    }

    #[test]
    fn different_seeds_differ() {
        let shape = ModelShape::tiny_test();
        let a = SyntheticLlm::generate(&shape, 1);
        let b = SyntheticLlm::generate(&shape, 2);
        assert_ne!(a.weights().layers[0].wq, b.weights().layers[0].wq);
    }

    #[test]
    fn outlier_channels_are_boosted_in_residual_writers() {
        let shape = ModelShape::tiny_test();
        let m = SyntheticLlm::generate(&shape, 3);
        let col_energy = |w: &tender_tensor::Matrix, c: usize| -> f32 {
            (0..w.rows()).map(|r| w[(r, c)] * w[(r, c)]).sum::<f32>() / w.rows() as f32
        };
        let normal = (0..shape.d_model)
            .find(|c| !m.outlier_channels().contains(c))
            .unwrap();
        // wo / w_fc2 columns writing the outlier channels carry
        // (outlier_gain/16)² more energy than ordinary columns (in
        // expectation; allow slack for the per-column draw).
        let boost = shape.outlier_gain / 16.0;
        let min_ratio = (boost * boost) * 0.3;
        for l in &m.weights().layers {
            for &c in m.outlier_channels() {
                assert!(
                    col_energy(&l.wo, c) > col_energy(&l.wo, normal) * min_ratio,
                    "wo outlier column not boosted"
                );
                assert!(
                    col_energy(&l.w_fc2, c) > col_energy(&l.w_fc2, normal) * min_ratio,
                    "fc2 outlier column not boosted"
                );
                // Norm gains on outlier channels are elevated at the
                // preset-controlled level.
                let expect = shape.outlier_gain * GAMMA_OUT_FACTOR;
                assert!(
                    l.ln1_gamma[c] > expect * 0.9 && l.ln1_gamma[c] < expect * 1.6,
                    "gamma {} vs expected ~{expect}",
                    l.ln1_gamma[c]
                );
            }
        }
    }

    #[test]
    fn outlier_activations_are_compact_within_channel() {
        // Fig. 3's saturated stripes: within an outlier channel, |value|
        // varies little across tokens (low coefficient of variation of the
        // magnitude) while the sign varies — which is what makes static
        // per-channel calibration effective.
        let shape = ModelShape::tiny_test();
        let m = SyntheticLlm::generate(&shape, 4);
        let tokens: Vec<usize> = (0..48).map(|i| (i * 7 + 3) % shape.vocab).collect();
        let acts = m.reference().qkv_input_activation(&tokens, 1);
        let ch = m.outlier_channels()[0];
        let mags: Vec<f32> = acts.col(ch).iter().map(|x| x.abs()).collect();
        let mean = mags.iter().sum::<f32>() / mags.len() as f32;
        let var = mags.iter().map(|&x| (x - mean) * (x - mean)).sum::<f32>() / mags.len() as f32;
        let cv = var.sqrt() / mean;
        assert!(cv < 0.7, "outlier magnitude CV {cv} should be compact");
        // Signs are predominantly consistent within the channel (the
        // stripes of Fig. 3 are solidly red or blue).
        let pos = acts.col(ch).iter().filter(|&&x| x > 0.0).count();
        let majority = pos.max(48 - pos);
        assert!(
            majority >= 36,
            "sign should be ~consistent, got {pos}/48 positive"
        );
    }

    #[test]
    fn activations_show_channel_outliers_like_figure_2() {
        // The generated model must actually produce activation outliers:
        // the input to QKV (post-norm hidden state) must have per-channel
        // maxima tens of times larger in the outlier channels.
        let shape = ModelShape::tiny_test();
        let m = SyntheticLlm::generate(&shape, 4);
        let reference = m.reference();
        let tokens: Vec<usize> = (0..32).map(|i| (i * 7 + 3) % shape.vocab).collect();
        let acts = reference.qkv_input_activation(&tokens, 1);
        let cmax = stats::col_abs_max(&acts);
        let outlier_max: f32 = m
            .outlier_channels()
            .iter()
            .map(|&c| cmax[c])
            .fold(0.0, f32::max);
        let normal_median = {
            let mut normals: Vec<f32> = (0..shape.d_model)
                .filter(|c| !m.outlier_channels().contains(c))
                .map(|c| cmax[c])
                .collect();
            normals.sort_by(|a, b| a.partial_cmp(b).unwrap());
            normals[normals.len() / 2]
        };
        assert!(
            outlier_max > 10.0 * normal_median,
            "outlier {outlier_max} vs normal median {normal_median}"
        );
    }

    #[test]
    fn activations_have_heavy_tails() {
        let shape = ModelShape::tiny_test();
        let m = SyntheticLlm::generate(&shape, 5);
        let tokens: Vec<usize> = (0..32).map(|i| (i * 13 + 1) % shape.vocab).collect();
        let acts = m.reference().qkv_input_activation(&tokens, 1);
        assert!(stats::excess_kurtosis(&acts) > 5.0, "kurtosis too small");
    }

    #[test]
    fn gated_ffn_only_for_silu() {
        let mut shape = ModelShape::tiny_test();
        assert!(SyntheticLlm::generate(&shape, 1).weights().layers[0]
            .w_gate
            .is_none());
        shape.activation = Activation::SiluGated;
        assert!(SyntheticLlm::generate(&shape, 1).weights().layers[0]
            .w_gate
            .is_some());
    }
}
