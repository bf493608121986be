//! Activation quantization granularities (Table I of the paper).
//!
//! The paper motivates Tender by showing that per-column (per-channel)
//! activation quantization preserves model quality while per-tensor and
//! per-row (per-token) quantization collapse in the presence of channel
//! outliers — yet per-column is impractical on integer pipelines because
//! each element would need scaling *inside* the reduction. This module
//! implements all three granularities so the comparison can be reproduced.

use tender_tensor::{stats, Matrix};

use crate::quantizer::{fake_quantize, quantize_value, symmetric_scale};
use crate::scheme::{CalibInput, QuantMatmul, Scheme};

/// How scale factors are shared across an activation tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Granularity {
    /// One scale for the whole tensor (statically calibrated).
    PerTensor,
    /// One scale per row / token (computed dynamically at runtime, since
    /// tokens are not known at calibration time).
    PerRow,
    /// One scale per column / channel (statically calibrated). Impractical
    /// in integer pipelines — included as the accuracy oracle.
    PerCol,
}

impl Granularity {
    /// Table-friendly label (`"per-tensor"`, `"per-row"`, `"per-column"`).
    pub fn label(self) -> &'static str {
        match self {
            Granularity::PerTensor => "per-tensor",
            Granularity::PerRow => "per-row",
            Granularity::PerCol => "per-column",
        }
    }
}

/// Plain uniform symmetric quantization at a chosen activation granularity.
///
/// Weights are always quantized per-column (output channel), the standard
/// choice in the prior work the paper compares against.
#[derive(Debug, Clone, Copy)]
pub struct GranularityScheme {
    bits: u32,
    granularity: Granularity,
}

impl GranularityScheme {
    /// Creates a scheme with the given bit width and activation granularity.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `2..=16`.
    pub fn new(bits: u32, granularity: Granularity) -> Self {
        assert!((2..=16).contains(&bits), "unsupported bit width {bits}");
        Self { bits, granularity }
    }

    /// The configured bit width.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// The configured activation granularity.
    pub fn granularity(&self) -> Granularity {
        self.granularity
    }
}

/// Quantizes a weight matrix per output column, returning the
/// fake-quantized weight (the value the integer pipeline effectively uses).
pub fn fake_quantize_weight_per_col(w: &Matrix, bits: u32) -> Matrix {
    let col_max = stats::col_abs_max(w);
    Matrix::from_fn(w.rows(), w.cols(), |r, c| {
        let s = symmetric_scale(col_max[c], bits);
        quantize_value(w[(r, c)], s, bits) as f32 * s
    })
}

/// Fake-quantizes an activation per row with dynamically computed scales.
pub fn fake_quantize_per_row(x: &Matrix, bits: u32) -> Matrix {
    let row_max = stats::row_abs_max(x);
    Matrix::from_fn(x.rows(), x.cols(), |r, c| {
        let s = symmetric_scale(row_max[r], bits);
        quantize_value(x[(r, c)], s, bits) as f32 * s
    })
}

/// Fake-quantizes an activation per column with the given calibrated
/// per-channel scales.
///
/// # Panics
///
/// Panics if `scales.len() != x.cols()`.
pub fn fake_quantize_per_col(x: &Matrix, scales: &[f32], bits: u32) -> Matrix {
    assert_eq!(scales.len(), x.cols(), "per-column scale count mismatch");
    Matrix::from_fn(x.rows(), x.cols(), |r, c| {
        quantize_value(x[(r, c)], scales[c], bits) as f32 * scales[c]
    })
}

struct GranularityMatmul {
    bits: u32,
    granularity: Granularity,
    /// Fake-quantized weight (per-column).
    wq: Matrix,
    /// Calibrated per-tensor activation scale.
    tensor_scale: f32,
    /// Calibrated per-channel activation scales.
    col_scales: Vec<f32>,
}

impl QuantMatmul for GranularityMatmul {
    fn forward(&self, x: &Matrix) -> Matrix {
        let xq = match self.granularity {
            Granularity::PerTensor => fake_quantize(x, self.tensor_scale, self.bits),
            Granularity::PerRow => fake_quantize_per_row(x, self.bits),
            Granularity::PerCol => fake_quantize_per_col(x, &self.col_scales, self.bits),
        };
        xq.matmul(&self.wq)
            .expect("activation/weight shape mismatch")
    }

    fn weight_bits(&self) -> f32 {
        self.bits as f32
    }

    fn act_bits(&self) -> f32 {
        self.bits as f32
    }

    fn resident_bytes(&self) -> usize {
        size_of_val(self.wq.as_slice()) + size_of_val(self.col_scales.as_slice())
    }
}

impl Scheme for GranularityScheme {
    fn name(&self) -> String {
        format!("INT{} {}", self.bits, self.granularity.label())
    }

    fn calibrate(&self, input: CalibInput<'_>, w: &Matrix) -> Box<dyn QuantMatmul> {
        input.stats.assert_calibrates(w.rows());
        let tensor_scale = symmetric_scale(input.stats.abs_max(), self.bits);
        let col_scales = input
            .stats
            .col_abs_max()
            .into_iter()
            .map(|m| symmetric_scale(m, self.bits))
            .collect();
        Box::new(GranularityMatmul {
            bits: self.bits,
            granularity: self.granularity,
            wq: fake_quantize_weight_per_col(w, self.bits),
            tensor_scale,
            col_scales,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tender_tensor::rng::DetRng;
    use tender_tensor::stats::{mse, sqnr_db};

    /// Builds an activation with strong channel outliers, mimicking LLM
    /// activations (paper Fig. 2): most channels small, a couple huge.
    fn outlier_activation(rng: &mut DetRng, rows: usize, cols: usize) -> Matrix {
        let mut x = rng.normal_matrix(rows, cols, 0.0, 0.5);
        for r in 0..rows {
            x[(r, 3)] = rng.normal(0.0, 40.0);
            if cols > 10 {
                x[(r, 10)] = rng.normal(0.0, 25.0);
            }
        }
        x
    }

    #[test]
    fn per_column_preserves_normal_channels_others_crush_them() {
        // Table I's mechanism: at INT4, per-tensor/per-row scales are set by
        // the outlier channels, so *normal* channels — which carry the
        // model's semantic content and drive perplexity — quantize to
        // (near) zero. Per-column keeps them intact. We measure error on
        // the normal channels only (through an identity weight, so the
        // output IS the effectively quantized activation).
        let mut rng = DetRng::new(42);
        let x = outlier_activation(&mut rng, 64, 32);
        let w = Matrix::identity(32);
        let calib = vec![x.clone()];
        let normal_cols: Vec<usize> = (0..32).filter(|&c| c != 3 && c != 10).collect();
        let x_normal = x.gather_cols(&normal_cols);

        let mut errs = vec![];
        for g in [
            Granularity::PerTensor,
            Granularity::PerRow,
            Granularity::PerCol,
        ] {
            let op = GranularityScheme::new(4, g).prepare(&calib, &w);
            let xq_normal = op.forward(&x).gather_cols(&normal_cols);
            errs.push(mse(&x_normal, &xq_normal));
        }
        // Per-column error on normal channels is orders of magnitude lower.
        assert!(
            errs[2] * 50.0 < errs[1],
            "per-col {} !≪ per-row {}",
            errs[2],
            errs[1]
        );
        assert!(
            errs[2] * 50.0 < errs[0],
            "per-col {} !≪ per-tensor {}",
            errs[2],
            errs[0]
        );
        // Per-row (scale from the row's outlier) ≤ per-tensor (scale from
        // the global maximum).
        assert!(
            errs[1] <= errs[0] * 1.05,
            "per-row {} > per-tensor {}",
            errs[1],
            errs[0]
        );
    }

    #[test]
    fn int8_per_column_is_nearly_lossless() {
        let mut rng = DetRng::new(7);
        let x = outlier_activation(&mut rng, 32, 32);
        let w = rng.normal_matrix(32, 8, 0.0, 0.1);
        let exact = x.matmul(&w).unwrap();
        let op =
            GranularityScheme::new(8, Granularity::PerCol).prepare(std::slice::from_ref(&x), &w);
        assert!(sqnr_db(&exact, &op.forward(&x)) > 35.0);
    }

    #[test]
    fn without_outliers_granularities_are_comparable() {
        let mut rng = DetRng::new(9);
        let x = rng.normal_matrix(32, 32, 0.0, 1.0);
        let w = rng.normal_matrix(32, 8, 0.0, 0.1);
        let exact = x.matmul(&w).unwrap();
        let e_tensor = {
            let op = GranularityScheme::new(8, Granularity::PerTensor)
                .prepare(std::slice::from_ref(&x), &w);
            mse(&exact, &op.forward(&x))
        };
        let e_col = {
            let op = GranularityScheme::new(8, Granularity::PerCol)
                .prepare(std::slice::from_ref(&x), &w);
            mse(&exact, &op.forward(&x))
        };
        // Within ~4x of each other when the distribution is homogeneous.
        assert!(e_tensor < e_col * 4.0 + 1e-12);
    }

    #[test]
    fn labels_match_paper_terms() {
        assert_eq!(Granularity::PerTensor.label(), "per-tensor");
        assert_eq!(Granularity::PerRow.label(), "per-row");
        assert_eq!(Granularity::PerCol.label(), "per-column");
        assert_eq!(
            GranularityScheme::new(8, Granularity::PerRow).name(),
            "INT8 per-row"
        );
    }

    #[test]
    fn per_row_scales_are_dynamic() {
        // A runtime activation much larger than calibration must not clip
        // under per-row (dynamic) quantization.
        let mut rng = DetRng::new(21);
        let calib = rng.normal_matrix(8, 8, 0.0, 0.1);
        let w = Matrix::identity(8);
        let op = GranularityScheme::new(8, Granularity::PerRow).prepare(&[calib], &w);
        let big = Matrix::filled(1, 8, 1000.0);
        let y = op.forward(&big);
        assert!((y[(0, 0)] - 1000.0).abs() / 1000.0 < 0.02);
    }

    #[test]
    fn per_tensor_scale_is_static() {
        // Per-tensor clips runtime values beyond the calibrated range.
        let mut rng = DetRng::new(22);
        let calib = rng.normal_matrix(8, 8, 0.0, 0.1);
        let cal_max = calib.abs_max();
        let w = Matrix::identity(8);
        let op = GranularityScheme::new(8, Granularity::PerTensor).prepare(&[calib], &w);
        let big = Matrix::filled(1, 8, 1000.0);
        let y = op.forward(&big);
        assert!(y[(0, 0)] <= cal_max * 1.01, "static scale must clip");
    }

    #[test]
    fn weight_per_col_quantization_bounded_error() {
        let mut rng = DetRng::new(30);
        let w = rng.normal_matrix(16, 16, 0.0, 0.3);
        let wq = fake_quantize_weight_per_col(&w, 8);
        let col_max = stats::col_abs_max(&w);
        for r in 0..16 {
            for c in 0..16 {
                let s = symmetric_scale(col_max[c], 8);
                assert!((w[(r, c)] - wq[(r, c)]).abs() <= s / 2.0 + 1e-6);
            }
        }
    }
}
