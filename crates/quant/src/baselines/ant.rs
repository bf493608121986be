//! ANT: adaptive numerical datatypes (Guo et al., MICRO 2022).
//!
//! ANT picks, *per tensor*, the datatype grid (`int` or `flint`) that
//! minimizes quantization error. `flint` is ANT's float-int hybrid: the
//! first half of its codes are linear (int-like, precise for small values)
//! and the rest grow geometrically (float-like, reaching further). Because
//! selection is per tensor, a handful of outlier channels still dictate the
//! scale for everything else — which is why ANT trails Tender on
//! outlier-heavy LLMs (paper Tables II and IV).

use tender_tensor::{stats, Matrix};

use super::grid_quantize_value;
use crate::scheme::{stack_samples, CalibInput, QuantMatmul, Scheme};

/// Signed-magnitude linear grid for `bits`: `{0, 1, …, 2^(b-1)-1}` scaled so
/// the maximum is 1.0.
pub fn int_grid(bits: u32) -> Vec<f32> {
    let k = (1_i32 << (bits - 1)) - 1;
    (0..=k).map(|i| i as f32 / k as f32).collect()
}

/// ANT's `flint` grid for `bits`: a linear segment up to `2^(b-2)` followed
/// by a geometric extension (`1.5×, 2×` per octave), normalized to max 1.0.
///
/// For 4 bits this yields the canonical flint-4 magnitude set
/// `{0, 1, 2, 3, 4, 6, 8, 12, 16} / 16`.
pub fn flint_grid(bits: u32) -> Vec<f32> {
    assert!((3..=16).contains(&bits), "flint needs at least 3 bits");
    let linear_max = 1_i64 << (bits - 2);
    let mut grid: Vec<f32> = (0..=linear_max).map(|i| i as f32).collect();
    // Geometric extension: 1.5·L·2^i and 2·L·2^i per octave, capped at a
    // dynamic-range expansion of 4x beyond the linear segment (flint keeps
    // a bounded exponent field).
    let mut base = linear_max as f32;
    while base < linear_max as f32 * 4.0 {
        grid.push(base * 1.5);
        grid.push(base * 2.0);
        base *= 2.0;
    }
    let max = *grid.last().expect("grid non-empty");
    for g in &mut grid {
        *g /= max;
    }
    grid
}

/// The ANT adaptive-datatype scheme.
#[derive(Debug, Clone, Copy)]
pub struct AntScheme {
    bits: u32,
}

impl AntScheme {
    /// Creates ANT at the given bit width.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `3..=16`.
    pub fn new(bits: u32) -> Self {
        assert!((3..=16).contains(&bits), "unsupported bit width {bits}");
        Self { bits }
    }

    /// Per-tensor adaptive selection: quantizes `m` with whichever grid
    /// (int or flint) gives lower MSE against the original, returning the
    /// fake-quantized tensor and the winning grid's name.
    pub fn adapt_quantize(m: &Matrix, bits: u32) -> (Matrix, &'static str) {
        let scale = m.abs_max();
        let candidates: [(&'static str, Vec<f32>); 2] =
            [("int", int_grid(bits)), ("flint", flint_grid(bits))];
        let mut best: Option<(Matrix, &'static str, f64)> = None;
        for (name, grid) in candidates {
            let q = m.map(|x| grid_quantize_value(x, scale, &grid));
            let err = stats::mse(m, &q);
            if best.as_ref().is_none_or(|(_, _, e)| err < *e) {
                best = Some((q, name, err));
            }
        }
        let (q, name, _) = best.expect("two candidates evaluated");
        (q, name)
    }
}

struct AntMatmul {
    bits: u32,
    /// Adaptively fake-quantized weight.
    wq: Matrix,
    /// Grid chosen for activations at calibration time (re-applied with a
    /// statically calibrated scale).
    act_grid: Vec<f32>,
    act_scale: f32,
}

impl QuantMatmul for AntMatmul {
    fn forward(&self, x: &Matrix) -> Matrix {
        let xq = x.map(|v| grid_quantize_value(v, self.act_scale, &self.act_grid));
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
        size_of_val(self.wq.as_slice()) + size_of_val(self.act_grid.as_slice())
    }
}

impl Scheme for AntScheme {
    fn name(&self) -> String {
        format!("ANT INT{}", self.bits)
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
        let (wq, _) = Self::adapt_quantize(w, self.bits);
        // Select the activation grid on calibration data; keep the scale static.
        let act_scale = stacked.abs_max();
        let int_g = int_grid(self.bits);
        let flint_g = flint_grid(self.bits);
        let err_int = stats::mse(
            &stacked,
            &stacked.map(|v| grid_quantize_value(v, act_scale, &int_g)),
        );
        let err_flint = stats::mse(
            &stacked,
            &stacked.map(|v| grid_quantize_value(v, act_scale, &flint_g)),
        );
        let act_grid = if err_flint < err_int { flint_g } else { int_g };
        Box::new(AntMatmul {
            bits: self.bits,
            wq,
            act_grid,
            act_scale,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tender_tensor::rng::DetRng;
    use tender_tensor::stats::{mse, sqnr_db};

    #[test]
    fn flint4_matches_canonical_values() {
        let g = flint_grid(4);
        let expected: Vec<f32> = [0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0]
            .iter()
            .map(|v| v / 16.0)
            .collect();
        assert_eq!(g, expected);
    }

    #[test]
    fn int_grid_is_uniform() {
        let g = int_grid(4);
        assert_eq!(g.len(), 8);
        assert_eq!(g[0], 0.0);
        assert_eq!(*g.last().unwrap(), 1.0);
        for w in g.windows(2) {
            assert!((w[1] - w[0] - 1.0 / 7.0).abs() < 1e-6);
        }
    }

    #[test]
    fn adapt_picks_flint_for_heavy_tails() {
        // Laplace-like data: most mass near zero, long tail → flint wins.
        let mut rng = DetRng::new(70);
        let m = Matrix::from_fn(64, 64, |_, _| rng.laplace(0.0, 0.2));
        let (_, name) = AntScheme::adapt_quantize(&m, 4);
        assert_eq!(name, "flint");
    }

    #[test]
    fn adapt_picks_int_for_uniform_data() {
        let mut rng = DetRng::new(71);
        let m = rng.uniform_matrix(64, 64, -1.0, 1.0);
        let (_, name) = AntScheme::adapt_quantize(&m, 4);
        assert_eq!(name, "int");
    }

    #[test]
    fn ant_reasonable_without_outliers() {
        let mut rng = DetRng::new(72);
        let x = rng.normal_matrix(32, 16, 0.0, 1.0);
        let w = rng.normal_matrix(16, 8, 0.0, 0.2);
        let exact = x.matmul(&w).unwrap();
        let op = AntScheme::new(8).prepare(std::slice::from_ref(&x), &w);
        assert!(sqnr_db(&exact, &op.forward(&x)) > 20.0);
    }

    #[test]
    fn ant_suffers_with_extreme_outliers() {
        // Per-tensor selection cannot isolate outlier channels: error must
        // be much worse than in the outlier-free case, relatively.
        let mut rng = DetRng::new(73);
        let clean = rng.normal_matrix(32, 16, 0.0, 0.5);
        let mut dirty = clean.clone();
        for r in 0..32 {
            dirty[(r, 3)] = rng.normal(0.0, 100.0);
        }
        let w = rng.normal_matrix(16, 8, 0.0, 0.2);

        let op_clean = AntScheme::new(4).prepare(std::slice::from_ref(&clean), &w);
        let op_dirty = AntScheme::new(4).prepare(std::slice::from_ref(&dirty), &w);
        // Compare error on the normal channels' contribution by zeroing the
        // outlier channel in both runs' references.
        let e_clean = mse(&clean.matmul(&w).unwrap(), &op_clean.forward(&clean));
        let e_dirty = mse(&dirty.matmul(&w).unwrap(), &op_dirty.forward(&dirty));
        assert!(
            e_dirty > e_clean * 10.0,
            "dirty {e_dirty} vs clean {e_clean}"
        );
    }

    #[test]
    fn grids_are_sorted() {
        for bits in [3, 4, 8] {
            for grid in [int_grid(bits), flint_grid(bits)] {
                assert!(grid.windows(2).all(|w| w[0] < w[1]), "bits={bits}");
            }
        }
    }
}
