//! Microscaling formats: SMX4 and MXFP4 (Table VII, §VI-C).
//!
//! * **SMX4** (Shared Microexponents, ISCA 2023): 16-element blocks share
//!   an 8-bit exponent; inside a block, every 2-element subgroup carries a
//!   1-bit subscale (halving the effective scale when both members are
//!   small); each element keeps a sign and a 2-bit integer mantissa.
//! * **MXFP4** (OCP MX v1.0): 32-element blocks share a power-of-two scale
//!   (E8M0); each element is an FP4 (E2M1) value from the grid
//!   `{0, 0.5, 1, 1.5, 2, 3, 4, 6}`.
//!
//! Both formats block *adjacent* elements along the reduction axis, so an
//! outlier channel contaminates every block it appears in — unlike Tender,
//! which groups *similar-range channels* regardless of adjacency (§VI-C).
//! SMX4's tiny 2-bit mantissa makes it collapse hardest, MXFP4 degrades
//! more gracefully, and Tender-INT4 wins — the Table VII ordering.

use tender_tensor::Matrix;

use super::grid_quantize_value;
use crate::scheme::{CalibInput, QuantMatmul, Scheme};

/// Which microscaling format to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MxFormat {
    /// Shared microexponents, 4-bit elements.
    Smx4,
    /// OCP MX with FP4 (E2M1) elements.
    Mxfp4,
}

impl MxFormat {
    /// Table label.
    pub fn label(self) -> &'static str {
        match self {
            MxFormat::Smx4 => "SMX4",
            MxFormat::Mxfp4 => "MXFP4",
        }
    }
}

/// The positive FP4 (E2M1) magnitude grid, normalized so the max is 1.0.
pub fn fp4_grid() -> Vec<f32> {
    [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0]
        .iter()
        .map(|v| v / 6.0)
        .collect()
}

/// Quantizes one MXFP4 block: shared power-of-two scale chosen so the block
/// absmax maps into the FP4 range, elements snapped to the FP4 grid.
pub fn mxfp4_quantize_block(vals: &[f32]) -> Vec<f32> {
    let absmax = vals.iter().fold(0.0_f32, |a, &b| a.max(b.abs()));
    if absmax == 0.0 {
        return vec![0.0; vals.len()];
    }
    // Power-of-two scale: smallest 2^e with absmax/2^e ≤ 6.
    let e = (absmax / 6.0).log2().ceil();
    let scale = 2.0_f32.powf(e) * 6.0;
    let grid = fp4_grid();
    vals.iter()
        .map(|&x| grid_quantize_value(x, scale, &grid))
        .collect()
}

/// Quantizes one SMX4 block: shared exponent from the block absmax, 1-bit
/// subscale per 2-element subgroup, 2-bit integer mantissas.
pub fn smx4_quantize_block(vals: &[f32]) -> Vec<f32> {
    let absmax = vals.iter().fold(0.0_f32, |a, &b| a.max(b.abs()));
    if absmax == 0.0 {
        return vec![0.0; vals.len()];
    }
    let e = absmax.log2().ceil();
    let full_scale = 2.0_f32.powf(e);
    let mut out = vec![0.0; vals.len()];
    let mut i = 0;
    while i < vals.len() {
        let j = (i + 1).min(vals.len() - 1);
        let sub_max = vals[i].abs().max(vals[j].abs());
        // Subscale bit: halve the range when the subgroup fits.
        let d = if sub_max <= full_scale / 2.0 { 1 } else { 0 };
        let fs = full_scale / 2.0_f32.powi(d);
        let step = fs / 3.0; // 2-bit magnitude: q ∈ {0, 1, 2, 3}
        for idx in [i, j] {
            let q = ((vals[idx] / step).round() as i32).clamp(-3, 3);
            out[idx] = q as f32 * step;
        }
        i += 2;
    }
    out
}

/// Applies a block quantizer along every row of `m`.
fn quantize_rowwise<F: Fn(&[f32]) -> Vec<f32>>(m: &Matrix, block: usize, f: F) -> Matrix {
    let mut out = Matrix::zeros(m.rows(), m.cols());
    for r in 0..m.rows() {
        for (b, chunk) in m.row(r).chunks(block).enumerate() {
            for (i, &v) in f(chunk).iter().enumerate() {
                out[(r, b * block + i)] = v;
            }
        }
    }
    out
}

/// Applies a block quantizer along every column of `m`.
fn quantize_colwise<F: Fn(&[f32]) -> Vec<f32>>(m: &Matrix, block: usize, f: F) -> Matrix {
    let mut out = Matrix::zeros(m.rows(), m.cols());
    for c in 0..m.cols() {
        let col = m.col(c);
        for (b, chunk) in col.chunks(block).enumerate() {
            for (i, &v) in f(chunk).iter().enumerate() {
                out[(b * block + i, c)] = v;
            }
        }
    }
    out
}

/// The microscaling-format scheme.
#[derive(Debug, Clone, Copy)]
pub struct MxScheme {
    format: MxFormat,
}

impl MxScheme {
    /// Creates a scheme for the given format.
    pub fn new(format: MxFormat) -> Self {
        Self { format }
    }

    /// The configured format.
    pub fn format(&self) -> MxFormat {
        self.format
    }

    fn quantize_act(&self, x: &Matrix) -> Matrix {
        match self.format {
            MxFormat::Smx4 => quantize_rowwise(x, 16, smx4_quantize_block),
            MxFormat::Mxfp4 => quantize_rowwise(x, 32, mxfp4_quantize_block),
        }
    }

    fn quantize_weight(&self, w: &Matrix) -> Matrix {
        // Weight blocks run along the reduction axis: column-wise for K×N.
        match self.format {
            MxFormat::Smx4 => quantize_colwise(w, 16, smx4_quantize_block),
            MxFormat::Mxfp4 => quantize_colwise(w, 32, mxfp4_quantize_block),
        }
    }
}

struct MxMatmul {
    scheme: MxScheme,
    wq: Matrix,
}

impl QuantMatmul for MxMatmul {
    fn forward(&self, x: &Matrix) -> Matrix {
        self.scheme
            .quantize_act(x)
            .matmul(&self.wq)
            .expect("activation/weight shape mismatch")
    }

    fn weight_bits(&self) -> f32 {
        match self.scheme.format {
            // 4-bit element + amortized 8-bit block exp + 1-bit/2-elem subscale.
            MxFormat::Smx4 => 4.0 + 8.0 / 16.0 + 0.5,
            MxFormat::Mxfp4 => 4.0 + 8.0 / 32.0,
        }
    }

    fn act_bits(&self) -> f32 {
        self.weight_bits()
    }

    fn resident_bytes(&self) -> usize {
        size_of_val(self.wq.as_slice())
    }
}

impl Scheme for MxScheme {
    fn name(&self) -> String {
        self.format.label().to_string()
    }

    fn calibrate(&self, _input: CalibInput<'_>, w: &Matrix) -> Box<dyn QuantMatmul> {
        Box::new(MxMatmul {
            scheme: *self,
            wq: self.quantize_weight(w),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tender_tensor::rng::DetRng;
    use tender_tensor::stats::mse;

    #[test]
    fn fp4_grid_is_e2m1() {
        let g = fp4_grid();
        assert_eq!(g.len(), 8);
        assert_eq!(*g.last().unwrap(), 1.0);
        assert_eq!(g[1] * 6.0, 0.5);
    }

    #[test]
    fn mxfp4_represents_block_max_exactly() {
        let q = mxfp4_quantize_block(&[6.0, 1.0, 0.4, -3.0]);
        assert_eq!(q[0], 6.0);
        assert_eq!(q[1], 1.0);
        assert_eq!(q[2], 0.5);
        assert_eq!(q[3], -3.0);
    }

    #[test]
    fn smx4_subscale_helps_small_subgroups() {
        // Block absmax 8 → full scale 8; subgroup (0.9, 0.4) gets d=1 →
        // step 8/2/3 = 1.333; without subscale the step would be 2.667.
        let q = smx4_quantize_block(&[8.0, 7.0, 0.9, 0.4]);
        assert!((q[2] - 1.333).abs() < 0.01, "got {}", q[2]);
        assert_eq!(q[3], 0.0);
    }

    #[test]
    fn smx4_collapses_harder_than_mxfp4_with_outliers() {
        // Table VII ordering: SMX4 worst, MXFP4 middling.
        let mut rng = DetRng::new(95);
        let mut x = rng.normal_matrix(32, 64, 0.0, 0.5);
        for r in 0..32 {
            x[(r, 9)] = rng.normal(0.0, 50.0);
        }
        let w = rng.normal_matrix(64, 16, 0.0, 0.2);
        let exact = x.matmul(&w).unwrap();
        let e_smx = {
            let op = MxScheme::new(MxFormat::Smx4).prepare(std::slice::from_ref(&x), &w);
            mse(&exact, &op.forward(&x))
        };
        let e_mx = {
            let op = MxScheme::new(MxFormat::Mxfp4).prepare(std::slice::from_ref(&x), &w);
            mse(&exact, &op.forward(&x))
        };
        assert!(e_smx > e_mx, "SMX4 {e_smx} must be worse than MXFP4 {e_mx}");
    }

    #[test]
    fn zero_blocks_quantize_to_zero() {
        assert_eq!(mxfp4_quantize_block(&[0.0; 4]), vec![0.0; 4]);
        assert_eq!(smx4_quantize_block(&[0.0; 4]), vec![0.0; 4]);
    }

    #[test]
    fn output_shapes_preserved() {
        let mut rng = DetRng::new(96);
        let x = rng.normal_matrix(8, 40, 0.0, 1.0); // not a multiple of 16/32
        let w = rng.normal_matrix(40, 4, 0.0, 0.2);
        for fmt in [MxFormat::Smx4, MxFormat::Mxfp4] {
            let op = MxScheme::new(fmt).prepare(std::slice::from_ref(&x), &w);
            let y = op.forward(&x);
            assert_eq!(y.shape(), (8, 4));
            assert!(y.is_finite());
        }
    }

    #[test]
    fn labels() {
        assert_eq!(MxScheme::new(MxFormat::Smx4).name(), "SMX4");
        assert_eq!(MxScheme::new(MxFormat::Mxfp4).name(), "MXFP4");
    }
}
