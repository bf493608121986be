//! RPTQ: reorder-based post-training quantization (Yuan et al., 2023).
//!
//! The related-work baseline the paper contrasts with classification
//! (§III-B "Why use classification?" and §VII): RPTQ groups activation
//! channels by **K-means clustering** on their calibrated (min, max)
//! ranges and quantizes each cluster asymmetrically. Clustering groups
//! channels more tightly than fixed power-of-2 thresholds, but (a) the
//! scale ratios between clusters are arbitrary, so partial products must
//! be *explicitly* dequantized and summed (no shift trick), and (b) the
//! clustering itself is far costlier than classification — both costs the
//! paper's design avoids. This implementation exposes the cluster
//! assignment so the ablation harness can compare classification vs
//! clustering head-to-head.

use tender_tensor::Matrix;

use crate::quantizer::qmax;
use crate::scheme::{CalibInput, QuantMatmul, Scheme};

/// K-means over per-channel `(min, max)` feature pairs.
///
/// Deterministic: centroids are seeded at quantiles of the range-sorted
/// channels, then refined with standard Lloyd iterations.
///
/// Returns the per-channel cluster index in `0..k`.
///
/// # Panics
///
/// Panics if `features` is empty or `k == 0`.
pub fn kmeans_min_max(features: &[(f32, f32)], k: usize, iterations: usize) -> Vec<usize> {
    assert!(!features.is_empty(), "no channels to cluster");
    assert!(k > 0, "need at least one cluster");
    let k = k.min(features.len());
    // Seed centroids at quantiles of the range (max - min) ordering.
    let mut order: Vec<usize> = (0..features.len()).collect();
    order.sort_by(|&a, &b| {
        let ra = features[a].1 - features[a].0;
        let rb = features[b].1 - features[b].0;
        ra.partial_cmp(&rb).expect("finite ranges")
    });
    let mut centroids: Vec<(f32, f32)> = (0..k)
        .map(|i| features[order[i * (features.len() - 1) / k.max(1)]])
        .collect();
    let mut assign = vec![0_usize; features.len()];
    for _ in 0..iterations {
        // Assignment step.
        for (i, &(lo, hi)) in features.iter().enumerate() {
            let mut best = (0, f32::INFINITY);
            for (c, &(clo, chi)) in centroids.iter().enumerate() {
                let d = (lo - clo) * (lo - clo) + (hi - chi) * (hi - chi);
                if d < best.1 {
                    best = (c, d);
                }
            }
            assign[i] = best.0;
        }
        // Update step.
        let mut sums = vec![(0.0_f32, 0.0_f32, 0_usize); k];
        for (i, &(lo, hi)) in features.iter().enumerate() {
            let s = &mut sums[assign[i]];
            s.0 += lo;
            s.1 += hi;
            s.2 += 1;
        }
        for (c, &(slo, shi, n)) in sums.iter().enumerate() {
            if n > 0 {
                centroids[c] = (slo / n as f32, shi / n as f32);
            }
        }
    }
    assign
}

/// The RPTQ scheme.
#[derive(Debug, Clone, Copy)]
pub struct RptqScheme {
    bits: u32,
    clusters: usize,
}

impl RptqScheme {
    /// Creates RPTQ with the given bit width and cluster count.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `2..=16` or `clusters == 0`.
    pub fn new(bits: u32, clusters: usize) -> Self {
        assert!((2..=16).contains(&bits), "unsupported bit width {bits}");
        assert!(clusters > 0, "need at least one cluster");
        Self { bits, clusters }
    }

    /// The cluster count.
    pub fn clusters(&self) -> usize {
        self.clusters
    }
}

struct RptqMatmul {
    bits: u32,
    /// Per-channel cluster index.
    assign: Vec<usize>,
    /// Per-cluster asymmetric (scale, zero_point) pairs.
    params: Vec<(f32, f32)>,
    /// Per-column fake-quantized weight.
    wq: Matrix,
}

impl QuantMatmul for RptqMatmul {
    fn forward(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.assign.len(), "channel count mismatch");
        let k = qmax(self.bits) as f32;
        // Asymmetric fake quantization per channel group:
        // q = round((x - zp)/s) clamped to [-(k+1), k]; x̂ = q·s + zp.
        let xq = Matrix::from_fn(x.rows(), x.cols(), |r, c| {
            let (s, zp) = self.params[self.assign[c]];
            let q = ((x[(r, c)] - zp) / s).round().clamp(-(k + 1.0), k);
            q * s + zp
        });
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
            + size_of_val(self.assign.as_slice())
            + size_of_val(self.params.as_slice())
    }
}

impl Scheme for RptqScheme {
    fn name(&self) -> String {
        format!("RPTQ INT{} (k={})", self.bits, self.clusters)
    }

    fn calibrate(&self, input: CalibInput<'_>, w: &Matrix) -> Box<dyn QuantMatmul> {
        input.stats.assert_calibrates(w.rows());
        let min_max = input.stats.col_min_max();
        let assign = kmeans_min_max(&min_max, self.clusters, 20);
        let k = qmax(self.bits) as f32;
        // Per-cluster asymmetric params from the cluster's pooled range.
        let clusters = assign.iter().copied().max().unwrap_or(0) + 1;
        let mut lo = vec![f32::INFINITY; clusters];
        let mut hi = vec![f32::NEG_INFINITY; clusters];
        for (c, &(l, h)) in min_max.iter().enumerate() {
            lo[assign[c]] = lo[assign[c]].min(l);
            hi[assign[c]] = hi[assign[c]].max(h);
        }
        let params = lo
            .iter()
            .zip(&hi)
            .map(|(&l, &h)| {
                let (l, h) = if l.is_finite() { (l, h) } else { (0.0, 0.0) };
                let zp = (l + h) / 2.0;
                let s = ((h - l) / 2.0 / k).max(f32::MIN_POSITIVE);
                (s, zp)
            })
            .collect();
        Box::new(RptqMatmul {
            bits: self.bits,
            assign,
            params,
            wq: crate::granularity::fake_quantize_weight_per_col(w, self.bits),
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
            x[(r, 4)] = 20.0 + rng.normal(0.0, 4.0);
        }
        x
    }

    #[test]
    fn kmeans_separates_outlier_channels() {
        let mut rng = DetRng::new(8);
        let x = outlier_activation(&mut rng, 32, 16);
        let mm = tender_tensor::stats::col_min_max(&x);
        let assign = kmeans_min_max(&mm, 3, 20);
        // Channel 4 must sit alone (or with other outliers), not with the
        // normals.
        let outlier_cluster = assign[4];
        let normals_in_outlier_cluster = (0..16)
            .filter(|&c| c != 4 && assign[c] == outlier_cluster)
            .count();
        assert_eq!(normals_in_outlier_cluster, 0, "assign: {assign:?}");
    }

    #[test]
    fn kmeans_is_deterministic() {
        let mm: Vec<(f32, f32)> = (0..20).map(|i| (-(i as f32), i as f32 * 2.0)).collect();
        assert_eq!(kmeans_min_max(&mm, 4, 20), kmeans_min_max(&mm, 4, 20));
    }

    #[test]
    fn kmeans_handles_more_clusters_than_channels() {
        let mm = vec![(-1.0, 1.0), (-2.0, 2.0)];
        let assign = kmeans_min_max(&mm, 8, 5);
        assert_eq!(assign.len(), 2);
        assert!(assign.iter().all(|&a| a < 2));
    }

    #[test]
    fn rptq_int8_is_accurate_with_outliers() {
        let mut rng = DetRng::new(9);
        let x = outlier_activation(&mut rng, 32, 16);
        let w = rng.normal_matrix(16, 8, 0.0, 0.2);
        let exact = x.matmul(&w).unwrap();
        let op = RptqScheme::new(8, 4).prepare(std::slice::from_ref(&x), &w);
        assert!(sqnr_db(&exact, &op.forward(&x)) > 25.0);
    }

    #[test]
    fn more_clusters_reduce_error() {
        let mut rng = DetRng::new(10);
        let x = outlier_activation(&mut rng, 32, 16);
        let w = rng.normal_matrix(16, 8, 0.0, 0.2);
        let exact = x.matmul(&w).unwrap();
        let e1 = {
            let op = RptqScheme::new(4, 1).prepare(std::slice::from_ref(&x), &w);
            mse(&exact, &op.forward(&x))
        };
        let e4 = {
            let op = RptqScheme::new(4, 4).prepare(std::slice::from_ref(&x), &w);
            mse(&exact, &op.forward(&x))
        };
        assert!(e4 < e1, "4 clusters {e4} !< 1 cluster {e1}");
    }

    #[test]
    fn asymmetric_params_center_sign_consistent_channels() {
        // A channel living in [10, 30] must get zp ≈ 20, like Tender's bias.
        let x = Matrix::from_rows(&[vec![10.0, -1.0], vec![30.0, 1.0]]).unwrap();
        let op = RptqScheme::new(8, 2).prepare(std::slice::from_ref(&x), &Matrix::identity(2));
        let y = op.forward(&x);
        // Reconstruction error for the big channel well below its range.
        assert!((y[(0, 0)] - 10.0).abs() < 0.2);
        assert!((y[(1, 0)] - 30.0).abs() < 0.2);
    }

    #[test]
    fn name_reports_configuration() {
        assert_eq!(RptqScheme::new(4, 8).name(), "RPTQ INT4 (k=8)");
    }
}
