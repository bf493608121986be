//! "Power of 2" channel decomposition (Eq. 3 of the paper).
//!
//! Channels are *classified* (not clustered) against thresholds obtained by
//! repeatedly halving the tensor's absolute maximum: channel `i` lands in
//! group `g` when `TMax/α^g < CMax_i ≤ TMax/α^(g-1)`. Classification is a
//! single comparison per channel, cheap enough for runtime use, and the
//! power-of-two spacing is what makes requantization a 1-bit shift.
//!
//! The runtime user is the KV-cache row encoder, which classifies every
//! element of every appended row: [`group_thresholds`] and [`group_of`] are
//! the allocation-free core it calls directly (thresholds once per row),
//! and [`classify_channels`] is the validated, allocating wrapper over the
//! same two functions that calibration uses.

use std::error::Error;
use std::fmt;

use crate::quantizer::qmax;

/// Error raised when decomposition inputs are degenerate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecompositionError {
    /// No channels were provided.
    NoChannels,
    /// The group count was zero.
    NoGroups,
    /// A channel's `CMax` was NaN or infinite and cannot be ranked by
    /// magnitude.
    NonFinite {
        /// Index of the first offending channel.
        channel: usize,
    },
}

impl fmt::Display for DecompositionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecompositionError::NoChannels => write!(f, "no channels to decompose"),
            DecompositionError::NoGroups => write!(f, "group count must be at least one"),
            DecompositionError::NonFinite { channel } => {
                write!(f, "channel {channel} has a non-finite CMax")
            }
        }
    }
}

impl Error for DecompositionError {}

/// The degenerate-`tmax` guard, shared with [`group_scales`]: a `TMax` that
/// is zero, negative, NaN, or infinite is replaced by a tiny positive value
/// so thresholding (and scale division) stays well-defined.
fn sanitize_tmax(tmax: f32) -> f32 {
    if tmax > 0.0 && tmax.is_finite() {
        tmax
    } else {
        f32::MIN_POSITIVE
    }
}

/// The classification thresholds of Eq. 3: `out[g] = TMax / α^(g+1)`,
/// obtained by dividing by α `g + 1` times in turn (not by one division by
/// a power, which rounds differently). A degenerate `tmax` (zero, negative,
/// NaN, infinite) is sanitized with the guard [`group_scales`] applies, so
/// classification and scale generation agree on the effective `TMax`.
///
/// Together with [`group_of`] this is the allocation-free core of
/// [`classify_channels`]; the KV-cache row encoder calls the two directly,
/// once per row and once per element.
pub fn group_thresholds(tmax: f32, alpha: u32, out: &mut [f32]) {
    let alpha = alpha as f32;
    let mut threshold = sanitize_tmax(tmax);
    for t in out {
        threshold /= alpha;
        *t = threshold;
    }
}

/// The group of a channel whose absolute maximum is `cmax`, against
/// [`group_thresholds`]: the first `g` with `cmax > thresholds[g]`, the
/// last group for every smaller channel. `cmax` must be finite
/// ([`classify_channels`] rejects the rest); a NaN compares false
/// everywhere and would land in the last group.
///
/// # Panics
///
/// Panics if `thresholds` is empty.
#[inline]
pub fn group_of(cmax: f32, thresholds: &[f32]) -> usize {
    thresholds
        .iter()
        .position(|&t| cmax > t)
        .unwrap_or(thresholds.len() - 1)
}

/// Classifies each channel into a group index in `0..num_groups`
/// (0 = largest-scale group) using the power-of-α rule.
///
/// Group `g` (0-indexed) holds channels with
/// `TMax/α^(g+1) < CMax ≤ TMax/α^g`; the final group also absorbs every
/// smaller channel so the mapping is total.
///
/// A degenerate `tmax` (zero, negative, NaN, infinite) is sanitized with
/// the same guard [`group_scales`] applies, so classification and scale
/// generation always agree on the effective `TMax`.
///
/// # Errors
///
/// Returns [`DecompositionError`] if `cmax` is empty, `num_groups == 0`, or
/// any channel's `CMax` is non-finite ([`DecompositionError::NonFinite`] —
/// NaN/Inf cannot be ranked by magnitude; earlier revisions silently
/// dropped such channels into the *smallest-scale* group via comparison
/// fall-through, the worst possible placement for an unbounded channel).
///
/// # Example
///
/// The paper's walking example (Fig. 4): six channels, `TMax = 22.4`,
/// three groups.
///
/// ```
/// use tender_quant::tender::classify_channels;
///
/// let cmax = [3.1, 22.4, 2.0, 8.4, 4.9, 10.3];
/// let groups = classify_channels(&cmax, 22.4, 3, 2).unwrap();
/// // Channel 2 (CMax 22.4) → group A1; channels 4 & 6 → A2; rest → A3.
/// assert_eq!(groups, vec![2, 0, 2, 1, 2, 1]);
/// ```
pub fn classify_channels(
    cmax: &[f32],
    tmax: f32,
    num_groups: usize,
    alpha: u32,
) -> Result<Vec<usize>, DecompositionError> {
    if cmax.is_empty() {
        return Err(DecompositionError::NoChannels);
    }
    if num_groups == 0 {
        return Err(DecompositionError::NoGroups);
    }
    if let Some(channel) = cmax.iter().position(|c| !c.is_finite()) {
        return Err(DecompositionError::NonFinite { channel });
    }
    let mut thresholds = vec![0.0; num_groups];
    group_thresholds(tmax, alpha, &mut thresholds);
    Ok(cmax.iter().map(|&c| group_of(c, &thresholds)).collect())
}

/// Scale factor for every group: `TMax / (α^g · (2^(b-1) - 1))`, descending
/// with `g` (group 0 has the largest scale).
///
/// # Panics
///
/// Panics if `bits` is outside `2..=31`.
pub fn group_scales(tmax: f32, num_groups: usize, alpha: u32, bits: u32) -> Vec<f32> {
    let k = qmax(bits) as f32;
    // Shared degenerate-TMax guard (see `sanitize_tmax`): a sanitized TMax
    // of MIN_POSITIVE yields a smallest representable group-0 scale of
    // MIN_POSITIVE after the division by k below.
    let tmax = if tmax > 0.0 && tmax.is_finite() {
        tmax
    } else {
        k * sanitize_tmax(tmax)
    };
    let mut scales = Vec::with_capacity(num_groups);
    let mut numer = tmax;
    for _ in 0..num_groups {
        scales.push(numer / k);
        numer /= alpha as f32;
    }
    scales
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_channel_in_exactly_one_group() {
        let cmax = [0.01, 5.0, 2.4, 9.9, 0.0, 10.0];
        let g = classify_channels(&cmax, 10.0, 4, 2).unwrap();
        assert_eq!(g.len(), cmax.len());
        assert!(g.iter().all(|&gi| gi < 4));
    }

    #[test]
    fn classification_respects_thresholds() {
        // TMax = 16, α = 2, 4 groups: thresholds 8, 4, 2 (then catch-all).
        let cmax = [16.0, 8.1, 8.0, 4.1, 4.0, 2.1, 2.0, 0.1];
        let g = classify_channels(&cmax, 16.0, 4, 2).unwrap();
        assert_eq!(g, vec![0, 0, 1, 1, 2, 2, 3, 3]);
    }

    #[test]
    fn max_channel_is_group_zero() {
        let cmax = [1.0, 100.0, 3.0];
        let g = classify_channels(&cmax, 100.0, 8, 2).unwrap();
        assert_eq!(g[1], 0);
    }

    #[test]
    fn single_group_collapses_to_per_tensor() {
        let cmax = [0.5, 100.0];
        let g = classify_channels(&cmax, 100.0, 1, 2).unwrap();
        assert_eq!(g, vec![0, 0]);
    }

    #[test]
    fn alpha_four_widens_bins() {
        // α = 4: thresholds 25, 6.25 for TMax = 100, 3 groups.
        let cmax = [100.0, 25.1, 25.0, 6.3, 6.2, 0.1];
        let g = classify_channels(&cmax, 100.0, 3, 4).unwrap();
        assert_eq!(g, vec![0, 0, 1, 1, 2, 2]);
    }

    #[test]
    fn errors_on_degenerate_input() {
        assert_eq!(
            classify_channels(&[], 1.0, 2, 2).unwrap_err(),
            DecompositionError::NoChannels
        );
        assert_eq!(
            classify_channels(&[1.0], 1.0, 0, 2).unwrap_err(),
            DecompositionError::NoGroups
        );
    }

    #[test]
    fn non_finite_cmax_is_a_typed_error() {
        // Regression: NaN/Inf CMax used to fall through every `c > threshold`
        // comparison and land in the smallest-scale group — the worst
        // placement for an unbounded channel. Now it is a typed error.
        assert_eq!(
            classify_channels(&[1.0, f32::NAN, 2.0], 2.0, 4, 2).unwrap_err(),
            DecompositionError::NonFinite { channel: 1 }
        );
        assert_eq!(
            classify_channels(&[f32::INFINITY], 1.0, 2, 2).unwrap_err(),
            DecompositionError::NonFinite { channel: 0 }
        );
        let msg = DecompositionError::NonFinite { channel: 3 }.to_string();
        assert!(msg.contains("channel 3"), "{msg}");
    }

    #[test]
    fn degenerate_tmax_guard_matches_group_scales() {
        // NaN / zero / negative TMax must not panic or produce NaN
        // thresholds; the sanitized TMax mirrors group_scales' guard, so
        // any finite positive channel outranks it into group 0.
        for bad in [f32::NAN, 0.0, -3.0, f32::INFINITY] {
            let g = classify_channels(&[5.0, 0.0], bad, 3, 2).unwrap();
            assert_eq!(g[0], 0, "tmax={bad}: positive channel → group 0");
            assert_eq!(g[1], 2, "tmax={bad}: zero channel → last group");
            let s = group_scales(bad, 3, 2, 8);
            assert!(s.iter().all(|&x| x > 0.0 && x.is_finite()), "tmax={bad}");
        }
    }

    #[test]
    fn thresholds_divide_in_turn_and_share_the_tmax_guard() {
        let mut t = [0.0_f32; 3];
        group_thresholds(10.0, 3, &mut t);
        assert_eq!(t, [10.0 / 3.0, 10.0 / 3.0 / 3.0, 10.0 / 3.0 / 3.0 / 3.0]);
        assert_eq!(group_of(10.0, &t), 0);
        assert_eq!(group_of(t[0], &t), 1, "a threshold itself is not above it");
        assert_eq!(group_of(0.0, &t), 2, "the last group absorbs the rest");
        for bad in [f32::NAN, 0.0, -3.0, f32::INFINITY] {
            group_thresholds(bad, 2, &mut t);
            assert_eq!(t[0], f32::MIN_POSITIVE / 2.0, "tmax={bad}");
        }
    }

    #[test]
    fn scales_are_powers_of_two_apart() {
        let s = group_scales(22.4, 3, 2, 8);
        assert_eq!(s.len(), 3);
        assert!((s[0] - 22.4 / 127.0).abs() < 1e-6);
        assert!((s[0] / s[1] - 2.0).abs() < 1e-6);
        assert!((s[1] / s[2] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn walking_example_scale_values() {
        // Paper Fig. 4: S1 = 22.4/k, S2 = 11.2/k, S3 = 5.6/k.
        let s = group_scales(22.4, 3, 2, 4);
        let k = 7.0;
        assert!((s[0] - 22.4 / k).abs() < 1e-6);
        assert!((s[1] - 11.2 / k).abs() < 1e-6);
        assert!((s[2] - 5.6 / k).abs() < 1e-6);
    }

    #[test]
    fn zero_tmax_yields_positive_scales() {
        let s = group_scales(0.0, 4, 2, 8);
        assert!(s.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn lower_bound_of_quantization_level() {
        // "Power of 2" guarantee: a channel assigned to group g has
        // CMax > threshold/2, so at least n-1 bits are used. Verify the
        // quantized absolute max is ≥ (qmax+1)/2 - 1.
        let tmax = 64.0;
        let bits = 8;
        let groups = 4;
        let scales = group_scales(tmax, groups, 2, bits);
        // Channel barely above each group's lower threshold:
        for (g, &scale) in scales.iter().enumerate().take(groups - 1) {
            let lower = tmax / 2.0_f32.powi(g as i32 + 1);
            let cmax = lower * 1.0001;
            let assigned = classify_channels(&[cmax], tmax, groups, 2).unwrap()[0];
            assert_eq!(assigned, g);
            let q = (cmax / scale).round() as i32;
            assert!(q >= (qmax(bits) + 1) / 2 - 1, "group {g}: q = {q}");
        }
    }
}
