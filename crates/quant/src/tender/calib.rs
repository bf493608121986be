//! Offline calibration for Tender (§III-B).
//!
//! Calibration pre-computes, per row chunk: the per-channel bias
//! `(max + min) / 2`, the per-channel group assignment, the per-group scale
//! factors, and the channel processing order. At runtime only this metadata
//! is applied — the paper's Index Buffer streams the channel order to the
//! systolic array, and the Execution Controller raises the rescale signal at
//! group boundaries.

use tender_tensor::{stats, Matrix};

use super::config::TenderConfig;
use super::decompose::{classify_channels, group_scales, DecompositionError};
use crate::scheme::SiteStats;

/// Calibration metadata for one row chunk.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkCalibration {
    /// Per-channel bias `(max + min) / 2`, subtracted before quantization.
    pub bias: Vec<f32>,
    /// Per-channel group index (0 = largest-scale group).
    pub group_of: Vec<usize>,
    /// Per-group scale factors, descending by factor α.
    pub scales: Vec<f32>,
    /// Channel indices per group, in processing order (group 0 first).
    pub order: Vec<Vec<usize>>,
    /// Absolute maximum of the (bias-subtracted) chunk.
    pub tmax: f32,
}

impl ChunkCalibration {
    /// Computes calibration metadata from the stacked calibration rows of
    /// one chunk.
    ///
    /// # Panics
    ///
    /// Panics if `x` has no columns or the config is invalid.
    pub fn from_activation(x: &Matrix, config: &TenderConfig) -> Self {
        Self::from_min_max(&stats::col_min_max(x), config)
    }

    /// Computes calibration metadata from one chunk's per-column
    /// `(min, max)` ([`stats::col_min_max`] of its stacked rows): everything
    /// a chunk's calibration reads of its rows.
    ///
    /// # Panics
    ///
    /// Panics if `min_max` is empty or the config is invalid.
    pub(crate) fn from_min_max(min_max: &[(f32, f32)], config: &TenderConfig) -> Self {
        config.validate();
        assert!(
            !min_max.is_empty(),
            "cannot calibrate an activation with no channels"
        );
        let bias: Vec<f32> = if config.subtract_bias {
            min_max.iter().map(|&(lo, hi)| (lo + hi) / 2.0).collect()
        } else {
            vec![0.0; min_max.len()]
        };
        // After subtracting the bias, CMax is the residual absolute max.
        let cmax: Vec<f32> = min_max
            .iter()
            .zip(&bias)
            .map(|(&(lo, hi), &b)| (hi - b).abs().max((lo - b).abs()))
            .collect();
        let tmax = cmax.iter().fold(0.0_f32, |a, &b| a.max(b));
        let group_of = match classify_channels(&cmax, tmax, config.num_groups, config.alpha) {
            Ok(g) => g,
            Err(DecompositionError::NonFinite { .. }) => {
                // NaN/Inf activations cannot be ranked by magnitude.
                // Degrade gracefully: treat the offending channels as
                // unbounded and classify them into group 0 (the
                // largest-scale group — the only safe placement), leaving
                // finite channels thresholded as usual. f32::MAX outranks
                // every finite threshold, so the substitution is exact.
                let sane: Vec<f32> = cmax
                    .iter()
                    .map(|&c| if c.is_finite() { c } else { f32::MAX })
                    .collect();
                classify_channels(&sane, tmax, config.num_groups, config.alpha)
                    .expect("sanitized CMax values are finite")
            }
            Err(e) => unreachable!("validated config and non-empty input: {e}"),
        };
        let scales = group_scales(tmax, config.num_groups, config.alpha, config.bits);
        let mut order = vec![Vec::new(); config.num_groups];
        for (ch, &g) in group_of.iter().enumerate() {
            order[g].push(ch);
        }
        Self {
            bias,
            group_of,
            scales,
            order,
            tmax,
        }
    }

    /// The number of channels this chunk was calibrated for.
    pub fn num_channels(&self) -> usize {
        self.bias.len()
    }

    /// The flattened channel processing order (group 0's channels first).
    pub fn channel_order(&self) -> Vec<usize> {
        self.order.iter().flatten().copied().collect()
    }

    /// Sizes of each group (number of channels).
    pub fn group_sizes(&self) -> Vec<usize> {
        self.order.iter().map(Vec::len).collect()
    }
}

/// Full calibration for one matmul site: one [`ChunkCalibration`] per row
/// chunk.
#[derive(Debug, Clone, PartialEq)]
pub struct TenderCalibration {
    chunks: Vec<ChunkCalibration>,
    chunk_rows: usize,
}

impl TenderCalibration {
    /// Calibrates from sample activations: [`TenderCalibration::from_stats`]
    /// of their [`SiteStats`].
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or sample shapes are inconsistent.
    pub fn from_samples(samples: &[Matrix], config: &TenderConfig) -> Self {
        Self::from_stats(&SiteStats::from_samples(samples), config)
    }

    /// Calibrates from a site's statistics.
    ///
    /// Each sample is an `n × K` activation; rows at the same position
    /// across samples belong to the same chunk, matching the paper's use of
    /// fixed-sequence-length calibration data. A chunk's calibration reads
    /// only the per-column `(min, max)` of its rows of every sample, which
    /// the statistics fold per row position. A sample shorter than a
    /// chunk's first row adds nothing to it; the chunk count follows the
    /// first sample.
    ///
    /// # Panics
    ///
    /// Panics if the statistics hold no sample or a chunk holds no row.
    pub fn from_stats(stats: &SiteStats, config: &TenderConfig) -> Self {
        assert!(
            stats.samples() > 0,
            "calibration requires at least one sample"
        );
        let rows = stats.first_rows();
        let chunk_rows = config.chunk_rows(rows);
        let n_chunks = rows.div_ceil(chunk_rows).max(1);
        let chunks = (0..n_chunks)
            .map(|c| {
                let r0 = c * chunk_rows;
                assert!(
                    stats.rows() > r0,
                    "chunk must contain rows from at least one sample"
                );
                ChunkCalibration::from_min_max(&stats.min_max(r0..r0 + chunk_rows), config)
            })
            .collect();
        Self { chunks, chunk_rows }
    }

    /// Reassembles a calibration from its parts (used by the binary
    /// deserializer).
    ///
    /// # Panics
    ///
    /// Panics if `chunks` is empty or `chunk_rows == 0`.
    pub fn from_parts(chunks: Vec<ChunkCalibration>, chunk_rows: usize) -> Self {
        assert!(!chunks.is_empty(), "calibration needs at least one chunk");
        assert!(chunk_rows > 0, "chunk rows must be positive");
        Self { chunks, chunk_rows }
    }

    /// Calibration metadata for the chunk containing runtime row `row`.
    ///
    /// Rows beyond the calibrated range reuse the final chunk's metadata.
    pub fn chunk_for_row(&self, row: usize) -> &ChunkCalibration {
        &self.chunks[self.chunk_index_for_row(row)]
    }

    /// Index into [`chunks`](Self::chunks) of the chunk
    /// [`chunk_for_row`](Self::chunk_for_row) returns.
    pub fn chunk_index_for_row(&self, row: usize) -> usize {
        (row / self.chunk_rows).min(self.chunks.len() - 1)
    }

    /// All chunk calibrations.
    pub fn chunks(&self) -> &[ChunkCalibration] {
        &self.chunks
    }

    /// Rows per chunk.
    pub fn chunk_rows(&self) -> usize {
        self.chunk_rows
    }

    /// Bytes of the per-chunk tables: biases, group indices, group scales
    /// and the channel order (elements only).
    pub fn resident_bytes(&self) -> usize {
        self.chunks
            .iter()
            .map(|c| {
                size_of_val(c.bias.as_slice())
                    + size_of_val(c.group_of.as_slice())
                    + size_of_val(c.scales.as_slice())
                    + c.order
                        .iter()
                        .map(|g| size_of_val(g.as_slice()))
                        .sum::<usize>()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tender_tensor::rng::DetRng;

    fn cfg() -> TenderConfig {
        TenderConfig::int8().with_groups(4).with_row_chunk(8)
    }

    #[test]
    fn non_finite_activation_channel_lands_in_group_zero() {
        // A NaN channel must not fall through to the smallest-scale group
        // (the pre-fix behaviour) and must not panic calibration.
        let x = Matrix::from_rows(&[
            vec![4.9, f32::NAN, 0.1, 8.0],
            vec![-4.9, f32::NAN, -0.1, -8.0],
        ])
        .unwrap();
        let cc = ChunkCalibration::from_activation(&x, &cfg().with_row_chunk(0));
        assert_eq!(cc.group_of[1], 0, "NaN channel → largest-scale group");
        assert_eq!(cc.group_of[3], 0, "true max channel keeps group 0");
        assert!(
            cc.group_of[2] > cc.group_of[0],
            "finite channels still rank by magnitude"
        );
        assert!(cc.scales.iter().all(|s| s.is_finite() && *s > 0.0));
    }

    #[test]
    fn bias_centers_channels() {
        let x = Matrix::from_rows(&[vec![2.0, -10.0], vec![6.0, 30.0]]).unwrap();
        let cc = ChunkCalibration::from_activation(&x, &cfg().with_row_chunk(0));
        assert_eq!(cc.bias, vec![4.0, 10.0]);
        // After bias subtraction both channels are symmetric: CMax = 2, 20.
        assert_eq!(cc.tmax, 20.0);
    }

    #[test]
    fn every_channel_appears_once_in_order() {
        let mut rng = DetRng::new(5);
        let x = rng.normal_matrix(32, 16, 0.0, 1.0);
        let cc = ChunkCalibration::from_activation(&x, &cfg());
        let mut order = cc.channel_order();
        order.sort_unstable();
        assert_eq!(order, (0..16).collect::<Vec<_>>());
        assert_eq!(cc.group_sizes().iter().sum::<usize>(), 16);
    }

    #[test]
    fn outlier_channel_lands_in_group_zero() {
        let mut rng = DetRng::new(6);
        let mut x = rng.normal_matrix(16, 8, 0.0, 0.3);
        for r in 0..16 {
            // Sign-varying outlier channel (large CMax even after bias).
            x[(r, 5)] = rng.normal(0.0, 50.0);
        }
        let cc = ChunkCalibration::from_activation(&x, &cfg().with_row_chunk(0));
        assert_eq!(cc.group_of[5], 0);
        // Normal channels land in the last (finest) group.
        assert!(cc.group_of[0] >= 2);
    }

    #[test]
    fn disabling_bias_doubles_the_effective_range() {
        // Ablation knob: with subtract_bias = false, a sign-consistent
        // channel must be covered symmetrically, doubling CMax.
        let x = Matrix::from_rows(&[vec![10.0, -1.0], vec![20.0, 1.0]]).unwrap();
        let with_bias = ChunkCalibration::from_activation(&x, &cfg().with_row_chunk(0));
        let without =
            ChunkCalibration::from_activation(&x, &cfg().with_row_chunk(0).with_bias(false));
        assert_eq!(with_bias.bias[0], 15.0);
        assert_eq!(without.bias[0], 0.0);
        // With bias: residual range ±5; without: ±20.
        assert_eq!(with_bias.tmax, 5.0);
        assert_eq!(without.tmax, 20.0);
    }

    #[test]
    fn bias_neutralizes_sign_consistent_outliers() {
        // A channel that is consistently ≈ +50 has a small range after the
        // bias subtraction — Tender's bias handles it without needing a
        // coarse group (§III-B, Figure 4 step 1).
        let mut rng = DetRng::new(61);
        let mut x = rng.normal_matrix(16, 8, 0.0, 0.3);
        for r in 0..16 {
            x[(r, 5)] = 50.0 + rng.normal(0.0, 0.3);
        }
        let cc = ChunkCalibration::from_activation(&x, &cfg().with_row_chunk(0));
        assert!((cc.bias[5] - 50.0).abs() < 2.0);
        // After bias subtraction the channel is ordinary.
        assert!(cc.tmax < 5.0);
    }

    #[test]
    fn chunks_are_calibrated_independently() {
        // First 8 rows small, last 8 rows large: the two chunks must get
        // different TMax values — this is exactly what row chunking is for
        // (intra-channel variance, §III-B Optimization). Values alternate
        // sign so the bias does not absorb the magnitude.
        let x = Matrix::from_fn(16, 4, |r, c| {
            let sign = if (r + c) % 2 == 0 { 1.0 } else { -1.0 };
            sign * if r < 8 { 0.5 } else { 100.0 }
        });
        let cal = TenderCalibration::from_samples(&[x], &cfg());
        assert_eq!(cal.chunks().len(), 2);
        assert!(cal.chunks()[0].tmax < 1.0);
        assert!(cal.chunks()[1].tmax > 10.0);
        assert_eq!(cal.chunk_for_row(0).tmax, cal.chunks()[0].tmax);
        assert_eq!(cal.chunk_for_row(15).tmax, cal.chunks()[1].tmax);
        // Rows past the calibrated range reuse the last chunk.
        assert_eq!(cal.chunk_for_row(99).tmax, cal.chunks()[1].tmax);
    }

    #[test]
    fn multiple_samples_are_pooled() {
        let a = Matrix::filled(4, 2, 1.0);
        let b = Matrix::filled(4, 2, -3.0);
        let cal = TenderCalibration::from_samples(&[a, b], &cfg().with_row_chunk(0));
        let cc = &cal.chunks()[0];
        // Pooled min = -3, max = 1 → bias = -1, CMax = 2.
        assert_eq!(cc.bias, vec![-1.0, -1.0]);
        assert_eq!(cc.tmax, 2.0);
    }

    #[test]
    fn zero_row_chunk_means_single_chunk() {
        let mut rng = DetRng::new(8);
        let x = rng.normal_matrix(100, 4, 0.0, 1.0);
        let cal = TenderCalibration::from_samples(&[x], &cfg().with_row_chunk(0));
        assert_eq!(cal.chunks().len(), 1);
    }

    #[test]
    fn group_scale_count_matches_config() {
        let mut rng = DetRng::new(9);
        let x = rng.normal_matrix(8, 4, 0.0, 1.0);
        let cc = ChunkCalibration::from_activation(&x, &cfg().with_groups(6));
        assert_eq!(cc.scales.len(), 6);
        assert_eq!(cc.order.len(), 6);
    }
}
