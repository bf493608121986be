//! SmoothQuant (Xiao et al., ICML 2023).
//!
//! SmoothQuant migrates quantization difficulty from activations to weights
//! by dividing each activation channel by a smoothing factor
//! `f_j = max|X_j|^α / max|W_j|^(1-α)` and multiplying the corresponding
//! weight row by it. The smoothed activation is then quantized per token
//! (per row, dynamic) and the smoothed weight per tensor — the "O8" setting
//! the original work recommends.
//!
//! Because smoothing only *partially* flattens outliers (it does not
//! isolate them), SmoothQuant holds up at INT8 but collapses at INT4
//! (paper Table II), which this implementation reproduces.

use tender_tensor::{stats, Matrix};

use crate::granularity::fake_quantize_per_row;
use crate::quantizer::{fake_quantize, symmetric_scale};
use crate::scheme::{CalibInput, QuantMatmul, Scheme};

/// The SmoothQuant scheme.
#[derive(Debug, Clone, Copy)]
pub struct SmoothQuantScheme {
    bits: u32,
    /// Migration strength α ∈ [0, 1]; 0.5 is the paper's default.
    alpha: f32,
}

impl SmoothQuantScheme {
    /// Creates SmoothQuant with the default migration strength α = 0.5.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `2..=16`.
    pub fn new(bits: u32) -> Self {
        Self::with_alpha(bits, 0.5)
    }

    /// Creates SmoothQuant with an explicit migration strength.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `2..=16` or `alpha` outside `[0, 1]`.
    pub fn with_alpha(bits: u32, alpha: f32) -> Self {
        assert!((2..=16).contains(&bits), "unsupported bit width {bits}");
        assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0, 1]");
        Self { bits, alpha }
    }

    /// Computes the per-channel smoothing factors from calibrated
    /// activation and weight channel maxima.
    pub fn smoothing_factors(act_max: &[f32], w_row_max: &[f32], alpha: f32) -> Vec<f32> {
        act_max
            .iter()
            .zip(w_row_max)
            .map(|(&a, &w)| {
                let f = a.max(1e-5).powf(alpha) / w.max(1e-5).powf(1.0 - alpha);
                f.max(1e-5)
            })
            .collect()
    }
}

struct SmoothQuantMatmul {
    bits: u32,
    /// 1 / f_j per channel, applied to runtime activations.
    inv_factors: Vec<f32>,
    /// Smoothed, per-tensor fake-quantized weight.
    wq: Matrix,
}

impl QuantMatmul for SmoothQuantMatmul {
    fn forward(&self, x: &Matrix) -> Matrix {
        let smoothed = x.scale_cols(&self.inv_factors);
        let xq = fake_quantize_per_row(&smoothed, self.bits);
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
        size_of_val(self.wq.as_slice()) + size_of_val(self.inv_factors.as_slice())
    }
}

impl Scheme for SmoothQuantScheme {
    fn name(&self) -> String {
        format!("SmoothQuant INT{}", self.bits)
    }

    fn calibrate(&self, input: CalibInput<'_>, w: &Matrix) -> Box<dyn QuantMatmul> {
        input.stats.assert_calibrates(w.rows());
        let act_max = input.stats.col_abs_max();
        // Per-channel weight maxima along the *input* dimension = row maxima.
        let w_row_max = stats::row_abs_max(w);
        let factors = Self::smoothing_factors(&act_max, &w_row_max, self.alpha);
        let inv_factors: Vec<f32> = factors.iter().map(|&f| 1.0 / f).collect();
        // Migrate difficulty into the weight: scale row j by f_j.
        let w_smoothed = w.scale_rows(&factors);
        let w_scale = symmetric_scale(w_smoothed.abs_max(), self.bits);
        let wq = fake_quantize(&w_smoothed, w_scale, self.bits);
        Box::new(SmoothQuantMatmul {
            bits: self.bits,
            inv_factors,
            wq,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tender_tensor::rng::DetRng;
    use tender_tensor::stats::{mse, sqnr_db};

    fn outlier_activation(rng: &mut DetRng, rows: usize, cols: usize) -> Matrix {
        let mut x = rng.normal_matrix(rows, cols, 0.0, 0.5);
        for r in 0..rows {
            x[(r, 4)] = rng.normal(0.0, 30.0);
        }
        x
    }

    #[test]
    fn smoothing_is_mathematically_transparent() {
        // Without quantization, X diag(1/f) · diag(f) W == X · W.
        let mut rng = DetRng::new(50);
        let x = rng.normal_matrix(4, 6, 0.0, 1.0);
        let w = rng.normal_matrix(6, 3, 0.0, 1.0);
        let f = SmoothQuantScheme::smoothing_factors(
            &stats::col_abs_max(&x),
            &stats::row_abs_max(&w),
            0.5,
        );
        let inv: Vec<f32> = f.iter().map(|&v| 1.0 / v).collect();
        let lhs = x.scale_cols(&inv).matmul(&w.scale_rows(&f)).unwrap();
        let rhs = x.matmul(&w).unwrap();
        assert!(lhs.approx_eq(&rhs, rhs.abs_max() * 1e-5));
    }

    #[test]
    fn int8_smoothquant_is_accurate_with_moderate_outliers() {
        let mut rng = DetRng::new(51);
        let x = outlier_activation(&mut rng, 32, 16);
        let w = rng.normal_matrix(16, 8, 0.0, 0.2);
        let exact = x.matmul(&w).unwrap();
        let op = SmoothQuantScheme::new(8).prepare(std::slice::from_ref(&x), &w);
        assert!(sqnr_db(&exact, &op.forward(&x)) > 20.0);
    }

    #[test]
    fn int4_smoothquant_degrades_sharply() {
        // Table II: SmoothQuant collapses at INT4 while remaining fine at
        // INT8 — the degradation ratio must be much worse than the 16x a
        // well-conditioned tensor would show.
        let mut rng = DetRng::new(52);
        let x = outlier_activation(&mut rng, 32, 16);
        let w = rng.normal_matrix(16, 8, 0.0, 0.2);
        let exact = x.matmul(&w).unwrap();
        let e8 = {
            let op = SmoothQuantScheme::new(8).prepare(std::slice::from_ref(&x), &w);
            mse(&exact, &op.forward(&x))
        };
        let e4 = {
            let op = SmoothQuantScheme::new(4).prepare(std::slice::from_ref(&x), &w);
            mse(&exact, &op.forward(&x))
        };
        assert!(e4 > e8 * 100.0, "INT4 {e4} vs INT8 {e8}");
    }

    #[test]
    fn smoothing_flattens_activation_outliers() {
        let mut rng = DetRng::new(53);
        let x = outlier_activation(&mut rng, 32, 16);
        let w = rng.normal_matrix(16, 8, 0.0, 0.2);
        let f = SmoothQuantScheme::smoothing_factors(
            &stats::col_abs_max(&x),
            &stats::row_abs_max(&w),
            0.5,
        );
        let inv: Vec<f32> = f.iter().map(|&v| 1.0 / v).collect();
        let smoothed = x.scale_cols(&inv);
        let before = stats::col_abs_max(&x);
        let after = stats::col_abs_max(&smoothed);
        let spread = |v: &[f32]| {
            let max = v.iter().fold(0.0_f32, |a, &b| a.max(b));
            let min = v.iter().fold(f32::INFINITY, |a, &b| a.min(b.max(1e-6)));
            max / min
        };
        assert!(
            spread(&after) < spread(&before),
            "smoothing must reduce channel spread"
        );
    }

    #[test]
    #[should_panic(expected = "alpha must be in")]
    fn rejects_bad_alpha() {
        let _ = SmoothQuantScheme::with_alpha(8, 1.5);
    }

    #[test]
    fn name_includes_bits() {
        assert_eq!(SmoothQuantScheme::new(4).name(), "SmoothQuant INT4");
    }
}
