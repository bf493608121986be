//! Weight containers for the synthetic Transformer.
//!
//! Every matrix sits behind an [`Arc`], so cloning weights — the reference
//! model over a generated model's weights, a quantized model over the
//! reference's — shares the tensors instead of copying them. A caller that
//! edits a cloned tensor writes through [`Arc::make_mut`], which copies that
//! one tensor first.

use std::sync::Arc;

use tender_tensor::Matrix;

use crate::forward::Site;
use crate::shape::ModelShape;

/// A weight tensor whose dimensions contradict the model shape.
///
/// Returned by [`TransformerWeights::validate`] so malformed weights degrade
/// gracefully (skip the model, report the mismatch) instead of aborting the
/// whole suite.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeError {
    /// Which tensor is malformed, e.g. `"layer 3 wq"`.
    pub what: String,
    /// The (rows, cols) the shape promises. Vectors report `(len, 1)`.
    pub expected: (usize, usize),
    /// The dimensions actually found.
    pub got: (usize, usize),
}

impl std::fmt::Display for ShapeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: expected {}x{}, got {}x{}",
            self.what, self.expected.0, self.expected.1, self.got.0, self.got.1
        )
    }
}

impl std::error::Error for ShapeError {}

fn check(
    what: impl Into<String>,
    expected: (usize, usize),
    got: (usize, usize),
) -> Result<(), ShapeError> {
    if expected == got {
        Ok(())
    } else {
        Err(ShapeError {
            what: what.into(),
            expected,
            got,
        })
    }
}

/// Weights of one Transformer block.
#[derive(Debug, Clone)]
pub struct LayerWeights {
    /// Pre-attention norm gain (per feature).
    pub ln1_gamma: Vec<f32>,
    /// Pre-attention norm bias (unused for RMSNorm).
    pub ln1_beta: Vec<f32>,
    /// Query projection, `d_model × d_model`.
    pub wq: Arc<Matrix>,
    /// Key projection, `d_model × d_model`.
    pub wk: Arc<Matrix>,
    /// Value projection, `d_model × d_model`.
    pub wv: Arc<Matrix>,
    /// Output projection, `d_model × d_model`.
    pub wo: Arc<Matrix>,
    /// Pre-FFN norm gain.
    pub ln2_gamma: Vec<f32>,
    /// Pre-FFN norm bias (unused for RMSNorm).
    pub ln2_beta: Vec<f32>,
    /// First FFN projection, `d_model × ffn_dim`.
    pub w_fc1: Arc<Matrix>,
    /// Gate projection for SiLU-gated FFNs, `d_model × ffn_dim`.
    pub w_gate: Option<Arc<Matrix>>,
    /// Second FFN projection, `ffn_dim × d_model`.
    pub w_fc2: Arc<Matrix>,
}

impl LayerWeights {
    /// The weight of `site`, `None` for a site the layer does not have (the
    /// gate of an ungated FFN) — the model's one map from a [`Site`] to its
    /// weight.
    pub fn site(&self, site: Site) -> Option<&Arc<Matrix>> {
        match site {
            Site::Q => Some(&self.wq),
            Site::K => Some(&self.wk),
            Site::V => Some(&self.wv),
            Site::O => Some(&self.wo),
            Site::Fc1 => Some(&self.w_fc1),
            Site::Gate => self.w_gate.as_ref(),
            Site::Fc2 => Some(&self.w_fc2),
        }
    }
}

/// Complete weights of a synthetic Transformer LM.
#[derive(Debug, Clone)]
pub struct TransformerWeights {
    /// The architecture these weights instantiate.
    pub shape: ModelShape,
    /// Token embedding table, `vocab × d_model`.
    pub tok_emb: Arc<Matrix>,
    /// LM head, `vocab × d_model`. Untied from `tok_emb`: with random
    /// (untrained) weights a tied head hands every position a large
    /// self-token logit through the residual stream, collapsing the
    /// next-token distribution — an artifact real trained models do not
    /// have.
    pub lm_head: Arc<Matrix>,
    /// Positional embedding table, `max_seq × d_model`.
    pub pos_emb: Arc<Matrix>,
    /// Per-block weights.
    pub layers: Vec<LayerWeights>,
    /// Final norm gain.
    pub final_gamma: Vec<f32>,
    /// Final norm bias.
    pub final_beta: Vec<f32>,
}

impl TransformerWeights {
    /// Validates that every weight has the dimensions the shape promises,
    /// reporting the first mismatch as a typed [`ShapeError`].
    pub fn validate(&self) -> Result<(), ShapeError> {
        let d = self.shape.d_model;
        let f = self.shape.ffn_dim;
        check("tok_emb", (self.shape.vocab, d), self.tok_emb.shape())?;
        check("lm_head", (self.shape.vocab, d), self.lm_head.shape())?;
        check("pos_emb", (self.shape.max_seq, d), self.pos_emb.shape())?;
        check("layers", (self.shape.layers, 1), (self.layers.len(), 1))?;
        check("final_gamma", (d, 1), (self.final_gamma.len(), 1))?;
        for (i, l) in self.layers.iter().enumerate() {
            check(format!("layer {i} ln1"), (d, 1), (l.ln1_gamma.len(), 1))?;
            check(format!("layer {i} wq"), (d, d), l.wq.shape())?;
            check(format!("layer {i} wk"), (d, d), l.wk.shape())?;
            check(format!("layer {i} wv"), (d, d), l.wv.shape())?;
            check(format!("layer {i} wo"), (d, d), l.wo.shape())?;
            check(format!("layer {i} fc1"), (d, f), l.w_fc1.shape())?;
            check(format!("layer {i} fc2"), (f, d), l.w_fc2.shape())?;
            if let Some(g) = &l.w_gate {
                check(format!("layer {i} gate"), (d, f), g.shape())?;
            }
        }
        Ok(())
    }

    /// Total parameter count.
    pub fn num_params(&self) -> usize {
        let mut n = self.tok_emb.len()
            + self.lm_head.len()
            + self.pos_emb.len()
            + self.final_gamma.len() * 2;
        for l in &self.layers {
            n += l.ln1_gamma.len() * 2 + l.ln2_gamma.len() * 2;
            n += l.wq.len() + l.wk.len() + l.wv.len() + l.wo.len();
            n += l.w_fc1.len() + l.w_fc2.len();
            n += l.w_gate.as_ref().map_or(0, |g| g.len());
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::SyntheticLlm;

    #[test]
    fn generated_weights_validate() {
        let shape = ModelShape::tiny_test();
        let model = SyntheticLlm::generate(&shape, 1);
        assert!(model.weights().validate().is_ok());
    }

    #[test]
    fn malformed_weights_report_typed_shape_errors() {
        let shape = ModelShape::tiny_test();
        let mut w = SyntheticLlm::generate(&shape, 1).into_weights();
        // Truncate a projection: the error names the tensor and both shapes.
        let d = w.shape.d_model;
        w.layers[1].wk = Arc::new(Matrix::zeros(d - 1, d));
        let err = w.validate().unwrap_err();
        assert_eq!(err.what, "layer 1 wk");
        assert_eq!(err.expected, (d, d));
        assert_eq!(err.got, (d - 1, d));
        assert!(err.to_string().contains("layer 1 wk"));
        // Dropping a whole layer is caught before per-layer checks.
        w.layers[1].wk = Arc::new(Matrix::zeros(d, d));
        w.layers.pop();
        assert_eq!(w.validate().unwrap_err().what, "layers");
    }

    #[test]
    fn param_count_is_plausible() {
        let shape = ModelShape::tiny_test();
        let model = SyntheticLlm::generate(&shape, 1);
        let n = model.weights().num_params();
        // 2 layers × (4·64² + 2·64·128) + embeddings.
        assert!(n > 60_000, "param count {n}");
        assert!(n < 200_000, "param count {n}");
    }
}
