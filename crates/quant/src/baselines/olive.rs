//! OliVe: outlier-victim pair quantization (Guo et al., ISCA 2023).
//!
//! OliVe keeps everything at a single low bit width by letting an outlier
//! *borrow* the encoding slot of its memory-adjacent neighbor (the
//! "victim", pruned to zero). The outlier itself is encoded with `abfloat`,
//! a coarse exponent-only format reaching far beyond the normal range.
//!
//! The consequences the paper measures fall out of this construction:
//! INT8 OliVe is close to lossless (victims are rare and abfloat error is
//! small relative to outlier magnitude), while INT4 OliVe suffers from the
//! coarse 4-bit outlier encoding and pruned victims (Table II).

use tender_tensor::{stats, Matrix};

use crate::quantizer::{dequantize, qmax, quantize_value, symmetric_scale};
use crate::scheme::{stack_samples, CalibInput, QuantMatmul, Scheme};

/// The OliVe outlier-victim pair scheme.
#[derive(Debug, Clone, Copy)]
pub struct OliveScheme {
    bits: u32,
}

impl OliveScheme {
    /// Creates OliVe at the given bit width.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `3..=16`.
    pub fn new(bits: u32) -> Self {
        assert!((3..=16).contains(&bits), "unsupported bit width {bits}");
        Self { bits }
    }

    /// Quantizes an outlier magnitude with `abfloat`: a biased float whose
    /// exponent extends the normal range geometrically. The mantissa width
    /// scales with the format: `bits - 4` mantissa bits (so 4-bit OliVe has
    /// an exponent-only, power-of-two ladder while 8-bit OliVe keeps four
    /// mantissa bits and encodes outliers precisely).
    pub fn abfloat_quantize(x: f32, normal_max: f32, bits: u32) -> f32 {
        if normal_max <= 0.0 || x == 0.0 {
            return 0.0;
        }
        let max_e = (1_i32 << (bits - 1)) - 1;
        let mant_bits = bits.saturating_sub(4);
        let mant_levels = (1_u32 << mant_bits) as f32;
        let ratio = (x.abs() / normal_max).max(1.0);
        let e = (ratio.log2().floor() as i32).clamp(0, max_e);
        let frac = (ratio / 2.0_f32.powi(e)).clamp(1.0, 2.0); // in [1, 2)
        let mant = ((frac - 1.0) * mant_levels).round() / mant_levels;
        normal_max * 2.0_f32.powi(e) * (1.0 + mant) * x.signum()
    }

    /// Fake-quantizes a matrix with outlier-victim pair encoding.
    ///
    /// `scale` is the normal-value scale; elements beyond `scale · qmax`
    /// become outliers: their pair partner (element at index `c ^ 1` within
    /// the row) is pruned to zero and the outlier is abfloat-encoded. When
    /// both partners are outliers, the smaller one is clipped into the
    /// normal range (only one encoding slot is available).
    pub fn fake_quantize_ovp(m: &Matrix, scale: f32, bits: u32) -> Matrix {
        let k = qmax(bits);
        let normal_max = scale * k as f32;
        let mut out = Matrix::zeros(m.rows(), m.cols());
        for r in 0..m.rows() {
            let mut c = 0;
            while c < m.cols() {
                let c2 = (c + 1).min(m.cols() - 1);
                let a = m[(r, c)];
                let b = if c2 != c { m[(r, c2)] } else { 0.0 };
                let a_out = a.abs() > normal_max;
                let b_out = c2 != c && b.abs() > normal_max;
                let quant_normal = |x: f32| dequantize(quantize_value(x, scale, bits), scale);
                match (a_out, b_out) {
                    (false, false) => {
                        out[(r, c)] = quant_normal(a);
                        if c2 != c {
                            out[(r, c2)] = quant_normal(b);
                        }
                    }
                    (true, false) => {
                        // b is the victim: pruned so a can take its slot.
                        out[(r, c)] = Self::abfloat_quantize(a, normal_max, bits);
                        if c2 != c {
                            out[(r, c2)] = 0.0;
                        }
                    }
                    (false, true) => {
                        out[(r, c)] = 0.0;
                        out[(r, c2)] = Self::abfloat_quantize(b, normal_max, bits);
                    }
                    (true, true) => {
                        // Only one outlier per pair: keep the larger, clip
                        // the smaller into the normal range.
                        if a.abs() >= b.abs() {
                            out[(r, c)] = Self::abfloat_quantize(a, normal_max, bits);
                            out[(r, c2)] = normal_max.copysign(b);
                        } else {
                            out[(r, c)] = normal_max.copysign(a);
                            out[(r, c2)] = Self::abfloat_quantize(b, normal_max, bits);
                        }
                    }
                }
                c += 2;
            }
        }
        out
    }

    /// Chooses the normal-value scale by searching candidate magnitude
    /// quantiles and picking the one whose outlier-victim-pair encoding
    /// minimizes MSE on the calibration tensor — the software analogue of
    /// OliVe's tuned scale selection.
    pub fn normal_scale(m: &Matrix, bits: u32) -> f32 {
        let mut mags: Vec<f32> = m.as_slice().iter().map(|x| x.abs()).collect();
        if mags.is_empty() {
            return symmetric_scale(0.0, bits);
        }
        mags.sort_by(|a, b| a.partial_cmp(b).expect("finite magnitudes"));
        let quantile = |q: f32| {
            let idx = ((mags.len() as f32 * q) as usize).min(mags.len() - 1);
            mags[idx].max(f32::MIN_POSITIVE)
        };
        let mut best = (f64::INFINITY, symmetric_scale(mags[mags.len() - 1], bits));
        for q in [0.80, 0.90, 0.95, 0.99, 0.995, 0.999, 1.0] {
            let scale = symmetric_scale(quantile(q), bits);
            let err = stats::mse(m, &Self::fake_quantize_ovp(m, scale, bits));
            if err < best.0 {
                best = (err, scale);
            }
        }
        best.1
    }
}

struct OliveMatmul {
    bits: u32,
    act_scale: f32,
    wq: Matrix,
}

impl QuantMatmul for OliveMatmul {
    fn forward(&self, x: &Matrix) -> Matrix {
        let xq = OliveScheme::fake_quantize_ovp(x, self.act_scale, self.bits);
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
        size_of_val(self.wq.as_slice())
    }
}

impl Scheme for OliveScheme {
    fn name(&self) -> String {
        format!("OliVe INT{}", self.bits)
    }

    fn reads_samples(&self) -> bool {
        true
    }

    fn calibrate(&self, input: CalibInput<'_>, w: &Matrix) -> Box<dyn QuantMatmul> {
        let stacked = stack_samples(input.samples());
        assert_eq!(
            stacked.cols(),
            w.rows(),
            "activation channels must match weight rows"
        );
        let act_scale = Self::normal_scale(&stacked, self.bits);
        let w_scale = Self::normal_scale(w, self.bits);
        let wq = Self::fake_quantize_ovp(w, w_scale, self.bits);
        Box::new(OliveMatmul {
            bits: self.bits,
            act_scale,
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
    fn abfloat_ladder_doubles_at_four_bits() {
        // 4-bit abfloat has no mantissa: rungs are normal_max · 2^e.
        let nm = 1.0;
        assert_eq!(OliveScheme::abfloat_quantize(2.0, nm, 4), 2.0);
        assert_eq!(OliveScheme::abfloat_quantize(4.0, nm, 4), 4.0);
        assert_eq!(OliveScheme::abfloat_quantize(-8.0, nm, 4), -8.0);
        // Values between rungs snap to the nearest (linear within octave).
        assert_eq!(OliveScheme::abfloat_quantize(3.2, nm, 4), 4.0);
        assert_eq!(OliveScheme::abfloat_quantize(2.7, nm, 4), 2.0);
    }

    #[test]
    fn abfloat_has_mantissa_at_eight_bits() {
        // 8-bit abfloat keeps 4 mantissa bits: 1/16 steps within an octave.
        let nm = 1.0;
        let q = OliveScheme::abfloat_quantize(2.7, nm, 8);
        assert!((q - 2.75).abs() < 1e-6, "got {q}");
        let rel_err = (OliveScheme::abfloat_quantize(37.3, nm, 8) - 37.3).abs() / 37.3;
        assert!(rel_err < 0.04, "rel err {rel_err}");
    }

    #[test]
    fn victim_is_pruned() {
        // Pair (outlier, normal): the normal partner must become zero.
        let m = Matrix::from_rows(&[vec![100.0, 0.5, 0.3, 0.2]]).unwrap();
        let scale = symmetric_scale(1.0, 4); // normal range ±1
        let q = OliveScheme::fake_quantize_ovp(&m, scale, 4);
        assert!(q[(0, 0)] > 10.0, "outlier preserved coarsely");
        assert_eq!(q[(0, 1)], 0.0, "victim pruned");
        assert!(q[(0, 2)] != 0.0, "unrelated normals survive");
    }

    #[test]
    fn double_outlier_pair_clips_smaller() {
        let m = Matrix::from_rows(&[vec![100.0, -50.0]]).unwrap();
        let scale = symmetric_scale(1.0, 4);
        let q = OliveScheme::fake_quantize_ovp(&m, scale, 4);
        assert!(q[(0, 0)] > 10.0);
        assert_eq!(q[(0, 1)], -1.0, "smaller outlier clipped to normal max");
    }

    #[test]
    fn int8_olive_accurate_with_outliers() {
        let mut rng = DetRng::new(80);
        let x = outlier_activation(&mut rng, 32, 16);
        let w = rng.normal_matrix(16, 8, 0.0, 0.2);
        let exact = x.matmul(&w).unwrap();
        let op = OliveScheme::new(8).prepare(std::slice::from_ref(&x), &w);
        assert!(sqnr_db(&exact, &op.forward(&x)) > 20.0);
    }

    #[test]
    fn int4_much_worse_than_int8() {
        let mut rng = DetRng::new(81);
        let x = outlier_activation(&mut rng, 32, 16);
        let w = rng.normal_matrix(16, 8, 0.0, 0.2);
        let exact = x.matmul(&w).unwrap();
        let e8 = {
            let op = OliveScheme::new(8).prepare(std::slice::from_ref(&x), &w);
            mse(&exact, &op.forward(&x))
        };
        let e4 = {
            let op = OliveScheme::new(4).prepare(std::slice::from_ref(&x), &w);
            mse(&exact, &op.forward(&x))
        };
        assert!(e4 > e8 * 10.0, "INT4 {e4} vs INT8 {e8}");
    }

    #[test]
    fn normal_scale_excludes_rare_outliers() {
        // OliVe's design point: outliers are rare (~1% of elements). With
        // one outlier channel out of 64, the MSE-tuned scale must track the
        // normal range, not the global maximum.
        let mut rng = DetRng::new(82);
        let mut x = rng.normal_matrix(64, 64, 0.0, 0.5);
        for r in 0..64 {
            x[(r, 9)] = rng.normal(0.0, 100.0);
        }
        let s_with = OliveScheme::normal_scale(&x, 8);
        let s_naive = symmetric_scale(x.abs_max(), 8);
        assert!(
            s_with < s_naive / 3.0,
            "tuned scale {s_with} must ignore outliers (naive {s_naive})"
        );
    }

    #[test]
    fn odd_column_count_handled() {
        let m = Matrix::from_rows(&[vec![0.5, 100.0, 0.25]]).unwrap();
        let scale = symmetric_scale(1.0, 4);
        let q = OliveScheme::fake_quantize_ovp(&m, scale, 4);
        assert_eq!(q.shape(), (1, 3));
        assert!(q[(0, 1)].abs() > 10.0);
        assert_eq!(q[(0, 0)], 0.0, "partner of outlier pruned");
    }
}
