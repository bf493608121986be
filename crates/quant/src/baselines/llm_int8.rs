//! LLM.int8()-style mixed-precision decomposition (Dettmers et al., 2022).
//!
//! Activation channels whose calibrated absolute maximum exceeds a
//! threshold are kept in FP16, the rest are quantized to INT8 (per-row
//! activations, per-column weights). The accuracy is excellent, but the
//! FP16 side forces mixed-precision compute and dequantization overhead —
//! the cost §II-C of the paper attributes to this approach and which
//! `tender-sim`'s GPU model charges for in Figure 12.

use tender_tensor::Matrix;

use crate::granularity::{fake_quantize_per_row, fake_quantize_weight_per_col};
use crate::quantizer::round_to_f16;
use crate::scheme::{CalibInput, QuantMatmul, Scheme};

/// The LLM.int8()-style mixed-precision scheme.
#[derive(Debug, Clone, Copy)]
pub struct MixedPrecisionScheme {
    bits: u32,
    /// Absolute channel-maximum threshold above which a channel stays FP16
    /// (6.0 in the original work).
    threshold: f32,
}

impl MixedPrecisionScheme {
    /// Creates the scheme with the original outlier threshold of 6.0.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `2..=16`.
    pub fn new(bits: u32) -> Self {
        Self::with_threshold(bits, 6.0)
    }

    /// Creates the scheme with an explicit outlier threshold.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `2..=16` or the threshold is not
    /// positive.
    pub fn with_threshold(bits: u32, threshold: f32) -> Self {
        assert!((2..=16).contains(&bits), "unsupported bit width {bits}");
        assert!(threshold > 0.0, "threshold must be positive");
        Self { bits, threshold }
    }
}

struct MixedPrecisionMatmul {
    bits: u32,
    outlier_cols: Vec<usize>,
    normal_cols: Vec<usize>,
    /// FP16-rounded weight rows for outlier channels.
    w_outlier: Matrix,
    /// Per-column fake-quantized weight rows for normal channels.
    w_normal: Matrix,
    out_cols: usize,
}

impl QuantMatmul for MixedPrecisionMatmul {
    fn forward(&self, x: &Matrix) -> Matrix {
        let mut y = Matrix::zeros(x.rows(), self.out_cols);
        if !self.outlier_cols.is_empty() {
            let xo = round_to_f16(&x.gather_cols(&self.outlier_cols));
            y = y
                .add(&xo.matmul(&self.w_outlier).expect("outlier shapes"))
                .expect("same output shape");
        }
        if !self.normal_cols.is_empty() {
            let xn = fake_quantize_per_row(&x.gather_cols(&self.normal_cols), self.bits);
            y = y
                .add(&xn.matmul(&self.w_normal).expect("normal shapes"))
                .expect("same output shape");
        }
        y
    }

    fn weight_bits(&self) -> f32 {
        let k = self.outlier_cols.len() + self.normal_cols.len();
        if k == 0 {
            return self.bits as f32;
        }
        (16.0 * self.outlier_cols.len() as f32 + self.bits as f32 * self.normal_cols.len() as f32)
            / k as f32
    }

    fn act_bits(&self) -> f32 {
        self.weight_bits()
    }

    fn resident_bytes(&self) -> usize {
        size_of_val(self.w_outlier.as_slice())
            + size_of_val(self.w_normal.as_slice())
            + size_of_val(self.outlier_cols.as_slice())
            + size_of_val(self.normal_cols.as_slice())
    }
}

impl Scheme for MixedPrecisionScheme {
    fn name(&self) -> String {
        format!("LLM.int{}()", self.bits)
    }

    fn calibrate(&self, input: CalibInput<'_>, w: &Matrix) -> Box<dyn QuantMatmul> {
        input.stats.assert_calibrates(w.rows());
        let cmax = input.stats.col_abs_max();
        let (outlier_cols, normal_cols): (Vec<usize>, Vec<usize>) =
            (0..cmax.len()).partition(|&c| cmax[c] > self.threshold);
        let w_outlier = round_to_f16(&w.gather_rows(&outlier_cols));
        let w_normal = fake_quantize_weight_per_col(&w.gather_rows(&normal_cols), self.bits);
        Box::new(MixedPrecisionMatmul {
            bits: self.bits,
            outlier_cols,
            normal_cols,
            w_outlier,
            w_normal,
            out_cols: w.cols(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tender_tensor::rng::DetRng;
    use tender_tensor::stats::sqnr_db;

    fn outlier_activation(rng: &mut DetRng, rows: usize, cols: usize) -> Matrix {
        let mut x = rng.normal_matrix(rows, cols, 0.0, 0.5);
        for r in 0..rows {
            x[(r, 4)] = rng.normal(0.0, 30.0);
        }
        x
    }

    #[test]
    fn accurate_with_outliers_at_int8() {
        let mut rng = DetRng::new(60);
        let x = outlier_activation(&mut rng, 32, 16);
        let w = rng.normal_matrix(16, 8, 0.0, 0.2);
        let exact = x.matmul(&w).unwrap();
        let op = MixedPrecisionScheme::new(8).prepare(std::slice::from_ref(&x), &w);
        assert!(sqnr_db(&exact, &op.forward(&x)) > 25.0);
    }

    #[test]
    fn detects_outlier_channels() {
        let mut rng = DetRng::new(61);
        let x = outlier_activation(&mut rng, 32, 16);
        let w = rng.normal_matrix(16, 8, 0.0, 0.2);
        let op = MixedPrecisionScheme::new(8).prepare(std::slice::from_ref(&x), &w);
        // Average weight bits must exceed 8 because channel 4 stays FP16.
        assert!(op.weight_bits() > 8.0);
        assert!(op.weight_bits() < 16.0);
    }

    #[test]
    fn no_outliers_means_fully_quantized() {
        let mut rng = DetRng::new(62);
        let x = rng.normal_matrix(16, 8, 0.0, 0.5);
        let w = rng.normal_matrix(8, 4, 0.0, 0.2);
        let op = MixedPrecisionScheme::new(8).prepare(std::slice::from_ref(&x), &w);
        assert_eq!(op.weight_bits(), 8.0);
    }

    #[test]
    fn all_outliers_is_pure_fp16() {
        let x = Matrix::filled(4, 4, 100.0);
        let mut rng = DetRng::new(63);
        let w = rng.normal_matrix(4, 4, 0.0, 0.2);
        let op = MixedPrecisionScheme::new(8).prepare(std::slice::from_ref(&x), &w);
        assert_eq!(op.weight_bits(), 16.0);
        let exact = x.matmul(&w).unwrap();
        assert!(sqnr_db(&exact, &op.forward(&x)) > 40.0);
    }

    #[test]
    fn output_shape_is_preserved() {
        let mut rng = DetRng::new(64);
        let x = outlier_activation(&mut rng, 10, 12);
        let w = rng.normal_matrix(12, 5, 0.0, 0.2);
        let op = MixedPrecisionScheme::new(8).prepare(std::slice::from_ref(&x), &w);
        assert_eq!(op.forward(&x).shape(), (10, 5));
    }
}
