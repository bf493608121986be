//! MSFP: Microsoft floating point / block floating point (Table VI).
//!
//! MSFP groups elements into blocks that share one 8-bit exponent; each
//! element keeps only a sign and a short mantissa. `MSFP12` shares the
//! exponent across 16 elements *in a row* — which, for LLM activations,
//! mixes an outlier channel into every block it touches and crushes the
//! neighbors' mantissas. The paper's `MSFP12-OL` variant shares across
//! 8 elements in a *column* (within one channel), which helps but still
//! loses to Tender because intra-channel variance is represented with only
//! a few mantissa bits.

use tender_tensor::Matrix;

use crate::scheme::{forward_each_row, QuantMatmul, Scheme};

/// Which MSFP blocking variant to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsfpVariant {
    /// 16-element blocks along rows (the format's default layout).
    Msfp12,
    /// 8-element blocks along columns (the paper's outlier-aware variant).
    Msfp12Ol,
}

impl MsfpVariant {
    /// Table label.
    pub fn label(self) -> &'static str {
        match self {
            MsfpVariant::Msfp12 => "MSFP12",
            MsfpVariant::Msfp12Ol => "MSFP12-OL",
        }
    }
}

/// Shared-exponent block quantization of a slice of values in place of a
/// block: returns quantized copies.
///
/// The shared exponent is `ceil(log2(absmax))`; each value keeps
/// `mant_bits` magnitude bits: `q = round(x / 2^(E - mant_bits))`, clamped.
pub fn bfp_quantize_block(vals: &[f32], mant_bits: u32) -> Vec<f32> {
    let absmax = vals.iter().fold(0.0_f32, |a, &b| a.max(b.abs()));
    if absmax == 0.0 {
        return vec![0.0; vals.len()];
    }
    let e = absmax.log2().ceil() as i32;
    let step = 2.0_f32.powi(e - mant_bits as i32);
    // The block maximum itself (2^e) is representable: q ranges to 2^mb.
    let qcap = 1_i32 << mant_bits;
    vals.iter()
        .map(|&x| ((x / step).round() as i32).clamp(-qcap, qcap) as f32 * step)
        .collect()
}

/// Block-quantizes every row of `m` in blocks of `block` consecutive
/// elements (shared exponent per block).
pub fn bfp_quantize_rowwise(m: &Matrix, block: usize, mant_bits: u32) -> Matrix {
    assert!(block > 0, "block size must be positive");
    let mut out = Matrix::zeros(m.rows(), m.cols());
    for r in 0..m.rows() {
        let row = m.row(r);
        for (b, chunk) in row.chunks(block).enumerate() {
            let q = bfp_quantize_block(chunk, mant_bits);
            for (i, &v) in q.iter().enumerate() {
                out[(r, b * block + i)] = v;
            }
        }
    }
    out
}

/// Block-quantizes every column of `m` in blocks of `block` consecutive
/// elements (shared exponent per block).
pub fn bfp_quantize_colwise(m: &Matrix, block: usize, mant_bits: u32) -> Matrix {
    assert!(block > 0, "block size must be positive");
    let mut out = Matrix::zeros(m.rows(), m.cols());
    for c in 0..m.cols() {
        let col = m.col(c);
        for (b, chunk) in col.chunks(block).enumerate() {
            let q = bfp_quantize_block(chunk, mant_bits);
            for (i, &v) in q.iter().enumerate() {
                out[(b * block + i, c)] = v;
            }
        }
    }
    out
}

/// The MSFP block-floating-point scheme.
#[derive(Debug, Clone, Copy)]
pub struct MsfpScheme {
    variant: MsfpVariant,
}

impl MsfpScheme {
    /// Creates an MSFP scheme for the given variant.
    pub fn new(variant: MsfpVariant) -> Self {
        Self { variant }
    }

    /// Mantissa magnitude bits per element (sign + 3 bits for MSFP12).
    pub const MANT_BITS: u32 = 3;

    fn quantize_act(&self, x: &Matrix) -> Matrix {
        match self.variant {
            // Row-wise: 16-element blocks along the reduction axis.
            MsfpVariant::Msfp12 => bfp_quantize_rowwise(x, 16, Self::MANT_BITS),
            // Column-wise: 8-element blocks within a channel.
            MsfpVariant::Msfp12Ol => bfp_quantize_colwise(x, 8, Self::MANT_BITS),
        }
    }

    fn quantize_weight(&self, w: &Matrix) -> Matrix {
        match self.variant {
            // Weight blocks run along the reduction axis (K) in both
            // variants; for W (K×N) that is column-wise.
            MsfpVariant::Msfp12 => bfp_quantize_colwise(w, 16, Self::MANT_BITS),
            MsfpVariant::Msfp12Ol => bfp_quantize_colwise(w, 8, Self::MANT_BITS),
        }
    }
}

struct MsfpMatmul {
    scheme: MsfpScheme,
    wq: Matrix,
}

impl QuantMatmul for MsfpMatmul {
    fn forward(&self, x: &Matrix) -> Matrix {
        self.scheme
            .quantize_act(x)
            .matmul(&self.wq)
            .expect("activation/weight shape mismatch")
    }

    /// MSFP12-OL shares an exponent down a *column* of the call's rows, so
    /// its `forward` is not row-independent. Independent tokens have no
    /// neighbours to share with: each row is quantized as the one-row call
    /// a decode step has always made for it (a block of one per channel).
    fn forward_rows(&self, x: &Matrix, positions: &[usize]) -> Matrix {
        match self.scheme.variant {
            MsfpVariant::Msfp12 => self.forward(x),
            MsfpVariant::Msfp12Ol => {
                forward_each_row(x, positions, self.wq.cols(), |row, _| self.forward(row))
            }
        }
    }

    // The deliberate 8.0 / 8.0 keeps the "8-bit exponent over a bounding
    // box of 8" derivation visible.
    #[allow(clippy::eq_op)]
    fn weight_bits(&self) -> f32 {
        // sign + 3 mantissa bits + amortized 8-bit shared exponent.
        match self.scheme.variant {
            MsfpVariant::Msfp12 => 4.0 + 8.0 / 16.0,
            MsfpVariant::Msfp12Ol => 4.0 + 8.0 / 8.0,
        }
    }

    fn act_bits(&self) -> f32 {
        self.weight_bits()
    }
}

impl Scheme for MsfpScheme {
    fn name(&self) -> String {
        self.variant.label().to_string()
    }

    fn prepare(&self, _calib_acts: &[Matrix], w: &Matrix) -> Box<dyn QuantMatmul> {
        Box::new(MsfpMatmul {
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
    fn block_quantize_error_scales_with_blockmax() {
        let q = bfp_quantize_block(&[1.0, 0.5, 0.25, 0.1], 3);
        // absmax 1 → E = 0 → step = 1/8.
        assert_eq!(q[0], 1.0);
        assert_eq!(q[1], 0.5);
        assert_eq!(q[2], 0.25);
        // 0.1 rounds to 1/8 = 0.125.
        assert!((q[3] - 0.125).abs() < 1e-7);
    }

    #[test]
    fn outlier_in_block_crushes_neighbors() {
        // absmax 64 → step = 64/8 = 8: small values vanish entirely.
        let q = bfp_quantize_block(&[64.0, 0.5, -1.0, 2.0], 3);
        assert_eq!(q[0], 64.0);
        assert_eq!(q[1], 0.0);
        assert_eq!(q[2], 0.0);
        assert_eq!(q[3], 0.0);
    }

    #[test]
    fn zero_block_stays_zero() {
        assert_eq!(bfp_quantize_block(&[0.0, 0.0], 3), vec![0.0, 0.0]);
    }

    #[test]
    fn colwise_blocks_isolate_channels() {
        // Outlier channel in column 0: row-wise blocks poison columns 0..16,
        // column-wise blocks confine the damage to column 0.
        let mut rng = DetRng::new(90);
        let mut x = rng.normal_matrix(16, 32, 0.0, 0.5);
        for r in 0..16 {
            x[(r, 0)] = 50.0;
        }
        let row_q = bfp_quantize_rowwise(&x, 16, 3);
        let col_q = bfp_quantize_colwise(&x, 8, 3);
        let e_row = mse(&x, &row_q);
        let e_col = mse(&x, &col_q);
        assert!(e_col < e_row, "col-wise {e_col} !< row-wise {e_row}");
    }

    #[test]
    fn msfp12_ol_beats_msfp12_with_channel_outliers() {
        // Table VI ordering: MSFP12-OL ≪ MSFP12 on outlier-heavy tensors.
        // LLM outlier channels are consistently large in magnitude (Fig. 3),
        // which is exactly what a within-channel shared exponent exploits.
        let mut rng = DetRng::new(91);
        let mut x = rng.normal_matrix(32, 32, 0.0, 0.5);
        for r in 0..32 {
            let sign = if rng.uniform() < 0.5 { -1.0 } else { 1.0 };
            x[(r, 5)] = (40.0 + rng.normal(0.0, 5.0)) * sign;
        }
        let w = rng.normal_matrix(32, 8, 0.0, 0.2);
        let exact = x.matmul(&w).unwrap();
        let e12 = {
            let op = MsfpScheme::new(MsfpVariant::Msfp12).prepare(std::slice::from_ref(&x), &w);
            mse(&exact, &op.forward(&x))
        };
        let e_ol = {
            let op = MsfpScheme::new(MsfpVariant::Msfp12Ol).prepare(std::slice::from_ref(&x), &w);
            mse(&exact, &op.forward(&x))
        };
        assert!(e_ol < e12, "OL {e_ol} !< plain {e12}");
    }

    #[test]
    fn labels() {
        assert_eq!(MsfpScheme::new(MsfpVariant::Msfp12).name(), "MSFP12");
        assert_eq!(MsfpScheme::new(MsfpVariant::Msfp12Ol).name(), "MSFP12-OL");
    }

    #[test]
    fn ragged_final_block_is_handled() {
        let m = Matrix::from_fn(1, 20, |_, c| c as f32 / 20.0);
        let q = bfp_quantize_rowwise(&m, 16, 3);
        assert_eq!(q.shape(), (1, 20));
        assert!(q.is_finite());
    }
}
