//! Statistics and error metrics over matrices.
//!
//! The Tender algorithm is driven by per-channel absolute-maximum scans
//! (`CMax`, `TMax` in the paper), and the evaluation compares schemes via
//! mean-square error, signal-to-quantization-noise ratio, and KL divergence.

use crate::Matrix;

/// Per-column absolute maximum (`CMax` in the paper, when columns are
/// channels).
pub fn col_abs_max(m: &Matrix) -> Vec<f32> {
    let mut out = vec![0.0_f32; m.cols()];
    for row in m.iter_rows() {
        for (c, &x) in row.iter().enumerate() {
            out[c] = out[c].max(x.abs());
        }
    }
    out
}

/// Per-row absolute maximum.
pub fn row_abs_max(m: &Matrix) -> Vec<f32> {
    m.iter_rows()
        .map(|row| row.iter().fold(0.0_f32, |a, &b| a.max(b.abs())))
        .collect()
}

/// Per-column `(min, max)` pairs, used to compute Tender's channel bias
/// `(max + min) / 2`.
pub fn col_min_max(m: &Matrix) -> Vec<(f32, f32)> {
    rows_min_max(m.cols(), m.iter_rows())
}

/// One step of a running minimum: `x` if it ranks below `lo`, else `lo`.
/// A NaN `x` is skipped, as `f32::min` skips it, and `-0.0` ranks below
/// `+0.0`, which `f32::min` leaves to the compiler. So a fold that starts
/// at `+∞` is the minimum of its non-NaN inputs *as bits*, whatever their
/// order and however the fold is split and merged.
#[inline(always)]
pub fn fold_min(lo: f32, x: f32) -> f32 {
    if x < lo || (x == lo && x.is_sign_negative()) {
        x
    } else {
        lo
    }
}

/// One step of a running maximum, [`fold_min`]'s mirror: NaN is skipped and
/// `+0.0` ranks above `-0.0`.
#[inline(always)]
pub fn fold_max(hi: f32, x: f32) -> f32 {
    if x > hi || (x == hi && hi.is_sign_negative()) {
        x
    } else {
        hi
    }
}

/// [`col_min_max`] of the matrix whose rows, in order, are `rows`, without
/// building it: a fold over `cols`-wide rows wherever they lie
/// ([`fold_min`] / [`fold_max`], so the row order does not matter).
///
/// # Panics
///
/// Panics if a row is not `cols` wide.
pub fn rows_min_max<'a>(cols: usize, rows: impl IntoIterator<Item = &'a [f32]>) -> Vec<(f32, f32)> {
    let mut out = vec![(f32::INFINITY, f32::NEG_INFINITY); cols];
    let mut any_row = false;
    for row in rows {
        assert_eq!(row.len(), cols, "min/max row width mismatch");
        for (o, &x) in out.iter_mut().zip(row) {
            o.0 = fold_min(o.0, x);
            o.1 = fold_max(o.1, x);
        }
        any_row = true;
    }
    if !any_row {
        out.fill((0.0, 0.0));
    }
    out
}

/// Mean of all elements.
pub fn mean(m: &Matrix) -> f32 {
    if m.is_empty() {
        return 0.0;
    }
    (m.as_slice().iter().map(|&x| x as f64).sum::<f64>() / m.len() as f64) as f32
}

/// Mean squared error between two matrices.
///
/// # Panics
///
/// Panics if the shapes differ.
pub fn mse(a: &Matrix, b: &Matrix) -> f64 {
    assert_eq!(a.shape(), b.shape(), "mse shape mismatch");
    if a.is_empty() {
        return 0.0;
    }
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(&x, &y)| {
            let d = (x - y) as f64;
            d * d
        })
        .sum::<f64>()
        / a.len() as f64
}

/// Signal-to-quantization-noise ratio in dB: `10 log10(E[x²] / E[(x-x̂)²])`.
///
/// Returns `f64::INFINITY` for a perfect reconstruction.
///
/// # Panics
///
/// Panics if the shapes differ.
pub fn sqnr_db(reference: &Matrix, approx: &Matrix) -> f64 {
    assert_eq!(reference.shape(), approx.shape(), "sqnr shape mismatch");
    let signal: f64 = reference
        .as_slice()
        .iter()
        .map(|&x| (x as f64) * (x as f64))
        .sum();
    let noise: f64 = reference
        .as_slice()
        .iter()
        .zip(approx.as_slice())
        .map(|(&x, &y)| {
            let d = (x - y) as f64;
            d * d
        })
        .sum();
    if noise == 0.0 {
        return f64::INFINITY;
    }
    10.0 * (signal / noise).log10()
}

/// KL divergence `KL(p ‖ q)` between two probability rows, in nats.
///
/// Entries of `q` are floored at `q_floor` to keep the divergence finite when
/// the approximate model assigns (near-)zero probability — exactly the
/// situation a catastrophically bad quantization scheme produces.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn kl_divergence(p: &[f32], q: &[f32], q_floor: f32) -> f64 {
    assert_eq!(p.len(), q.len(), "kl_divergence length mismatch");
    let mut kl = 0.0_f64;
    for (&pi, &qi) in p.iter().zip(q) {
        if pi > 0.0 {
            kl += pi as f64 * ((pi as f64) / (qi.max(q_floor) as f64)).ln();
        }
    }
    kl.max(0.0)
}

/// Average row-wise KL divergence between two matrices of probability rows.
///
/// # Panics
///
/// Panics if the shapes differ.
pub fn mean_row_kl(p: &Matrix, q: &Matrix, q_floor: f32) -> f64 {
    assert_eq!(p.shape(), q.shape(), "mean_row_kl shape mismatch");
    if p.rows() == 0 {
        return 0.0;
    }
    let total: f64 = (0..p.rows())
        .map(|r| kl_divergence(p.row(r), q.row(r), q_floor))
        .sum();
    total / p.rows() as f64
}

/// Histogram of `values` over `bins` equal-width buckets spanning
/// `[lo, hi]`; values outside the range clamp to the edge buckets.
///
/// Used by the Figure 2/3 reproduction to characterize channel magnitude
/// distributions.
pub fn histogram(values: &[f32], lo: f32, hi: f32, bins: usize) -> Vec<usize> {
    assert!(bins > 0, "histogram needs at least one bin");
    assert!(hi > lo, "histogram range must be non-empty");
    let mut out = vec![0_usize; bins];
    let width = (hi - lo) / bins as f32;
    for &v in values {
        let idx = (((v - lo) / width) as isize).clamp(0, bins as isize - 1) as usize;
        out[idx] += 1;
    }
    out
}

/// Kurtosis (Fisher, excess) of the elements — heavy-tailed activations have
/// large positive kurtosis, which is the signature of outlier channels.
pub fn excess_kurtosis(m: &Matrix) -> f64 {
    let n = m.len() as f64;
    if n < 2.0 {
        return 0.0;
    }
    let mu = mean(m) as f64;
    let mut m2 = 0.0;
    let mut m4 = 0.0;
    for &x in m.as_slice() {
        let d = x as f64 - mu;
        m2 += d * d;
        m4 += d * d * d * d;
    }
    m2 /= n;
    m4 /= n;
    if m2 == 0.0 {
        return 0.0;
    }
    m4 / (m2 * m2) - 3.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn col_abs_max_finds_outlier_channels() {
        let m = Matrix::from_rows(&[vec![1.0, -60.0, 0.5], vec![-2.0, 55.0, 0.1]]).unwrap();
        let cmax = col_abs_max(&m);
        assert_eq!(cmax, vec![2.0, 60.0, 0.5]);
    }

    #[test]
    fn row_abs_max_basic() {
        let m = Matrix::from_rows(&[vec![1.0, -3.0], vec![0.0, 0.5]]).unwrap();
        assert_eq!(row_abs_max(&m), vec![3.0, 0.5]);
    }

    #[test]
    fn col_min_max_and_bias() {
        let m = Matrix::from_rows(&[vec![-1.0, 4.0], vec![3.0, 8.0]]).unwrap();
        let mm = col_min_max(&m);
        assert_eq!(mm, vec![(-1.0, 3.0), (4.0, 8.0)]);
        // Bias = (max + min) / 2 recenters the channel.
        let bias: Vec<f32> = mm.iter().map(|(lo, hi)| (lo + hi) / 2.0).collect();
        assert_eq!(bias, vec![1.0, 6.0]);
    }

    #[test]
    fn min_max_folds_rank_signed_zeros_and_skip_nan() {
        let bits = |x: f32| x.to_bits();
        for (a, b) in [(0.0, -0.0), (-0.0, 0.0)] {
            assert_eq!(bits(fold_min(a, b)), bits(-0.0), "min({a}, {b})");
            assert_eq!(bits(fold_max(a, b)), bits(0.0), "max({a}, {b})");
        }
        assert_eq!(fold_min(f32::INFINITY, f32::NAN), f32::INFINITY);
        assert_eq!(fold_max(f32::NEG_INFINITY, f32::NAN), f32::NEG_INFINITY);
        assert_eq!(fold_min(2.0, f32::NEG_INFINITY), f32::NEG_INFINITY);
        assert_eq!(fold_max(-1.0, 3.0), 3.0);
        // Any order of the same rows folds to the same bits.
        let rows = [
            [0.0, -0.0, f32::NAN],
            [-0.0, 0.0, 1.0],
            [0.0, 0.0, f32::NAN],
        ];
        let fwd = rows_min_max(3, rows.iter().map(|r| &r[..]));
        let rev = rows_min_max(3, rows.iter().rev().map(|r| &r[..]));
        let as_bits = |v: &[(f32, f32)]| {
            v.iter()
                .map(|&(l, h)| (bits(l), bits(h)))
                .collect::<Vec<_>>()
        };
        assert_eq!(as_bits(&fwd), as_bits(&rev));
        assert_eq!(as_bits(&fwd)[0], (bits(-0.0), bits(0.0)));
    }

    #[test]
    fn mse_zero_for_identical() {
        let m = Matrix::from_fn(3, 3, |r, c| (r * c) as f32);
        assert_eq!(mse(&m, &m), 0.0);
    }

    #[test]
    fn mse_known_value() {
        let a = Matrix::from_rows(&[vec![0.0, 0.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![1.0, 3.0]]).unwrap();
        assert!((mse(&a, &b) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn sqnr_infinite_for_perfect() {
        let m = Matrix::from_fn(2, 2, |r, c| (r + c) as f32 + 1.0);
        assert_eq!(sqnr_db(&m, &m), f64::INFINITY);
    }

    #[test]
    fn sqnr_decreases_with_noise() {
        let m = Matrix::from_fn(4, 4, |r, c| (r * 4 + c) as f32 + 1.0);
        let small = m.map(|x| x + 0.01);
        let large = m.map(|x| x + 1.0);
        assert!(sqnr_db(&m, &small) > sqnr_db(&m, &large));
    }

    #[test]
    fn kl_zero_for_identical_distributions() {
        let p = [0.25, 0.25, 0.5];
        assert!(kl_divergence(&p, &p, 1e-10) < 1e-12);
    }

    #[test]
    fn kl_positive_and_floor_applies() {
        let p = [1.0, 0.0];
        let q = [0.0, 1.0]; // q assigns zero to the true outcome
        let kl = kl_divergence(&p, &q, 1e-9);
        assert!(kl > 10.0); // ln(1e9) ≈ 20.7
        assert!(kl.is_finite());
    }

    #[test]
    fn mean_row_kl_averages() {
        let p = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.5, 0.5]]).unwrap();
        let q = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.5, 0.5]]).unwrap();
        assert!(mean_row_kl(&p, &q, 1e-9) < 1e-12);
    }

    #[test]
    fn histogram_counts_and_clamps() {
        let h = histogram(&[-10.0, 0.1, 0.9, 10.0], 0.0, 1.0, 2);
        assert_eq!(h, vec![2, 2]);
    }

    #[test]
    fn kurtosis_heavy_tail_positive() {
        // Mostly small values with a few huge outliers → positive excess kurtosis.
        let mut vals = vec![0.1_f32; 102];
        vals[0] = 100.0;
        vals[1] = -100.0;
        let m = Matrix::from_vec(1, 102, vals).unwrap();
        assert!(excess_kurtosis(&m) > 10.0);
        // Uniform-ish data → negative excess kurtosis.
        let u = Matrix::from_fn(1, 100, |_, c| c as f32);
        assert!(excess_kurtosis(&u) < 0.0);
    }
}
