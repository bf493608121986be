//! What calibration keeps of a site's activations: statistics, not the
//! activations.
//!
//! Every statistic the stats-calibrated schemes read is a fold over the
//! calibration rows: Tender's per-chunk bias, CMax and TMax are per-column
//! `(min, max)` over a chunk's rows; SmoothQuant, LLM.int8() and the
//! granularity schemes read per-column and whole-tensor absolute maxima,
//! which are `max(|min|, |max|)`; RPTQ reads per-column `(min, max)`. A
//! [`SiteStats`] therefore holds, per row position, the per-column
//! `(min, max)` over every sample's row at that position — any row chunk of
//! any size is a fold of consecutive positions — plus the first non-finite
//! element, which is all the typed non-finite screen reports.
//!
//! The folds rank `-0.0` below `+0.0` and skip NaN
//! ([`stats::fold_min`] / [`stats::fold_max`]), so they are order-free: a
//! chunk folded position by position equals the same chunk folded sample by
//! sample, and statistics folded on several threads and [merged](SiteStats::merge)
//! in any order equal the sequential fold, bit for bit.

use tender_tensor::{stats, Matrix};

use crate::scheme::first_non_finite;

/// Per-column running `(min, max)` per row position, row-major
/// (`positions × cols`).
#[derive(Debug, Clone, PartialEq)]
struct Ranges {
    lo: Vec<f32>,
    hi: Vec<f32>,
}

impl Ranges {
    /// Grows to `positions` rows, new ones empty (`+∞`, `−∞`).
    fn grow(&mut self, positions: usize, cols: usize) {
        if self.lo.len() < positions * cols {
            self.lo.resize(positions * cols, f32::INFINITY);
            self.hi.resize(positions * cols, f32::NEG_INFINITY);
        }
    }

    /// Folds row `p` of a sample, mapped element-wise by `f`.
    fn fold_row(&mut self, p: usize, row: &[f32], f: impl Fn(f32) -> f32) {
        let at = p * row.len();
        let lo = &mut self.lo[at..at + row.len()];
        let hi = &mut self.hi[at..at + row.len()];
        for ((lo, hi), &x) in lo.iter_mut().zip(hi.iter_mut()).zip(row) {
            let x = f(x);
            *lo = stats::fold_min(*lo, x);
            *hi = stats::fold_max(*hi, x);
        }
    }

    fn merge(&mut self, other: &Ranges, cols: usize) {
        self.grow(other.lo.len() / cols.max(1), cols);
        for (a, &b) in self.lo.iter_mut().zip(&other.lo) {
            *a = stats::fold_min(*a, b);
        }
        for (a, &b) in self.hi.iter_mut().zip(&other.hi) {
            *a = stats::fold_max(*a, b);
        }
    }
}

/// One matmul site's calibration statistics: per row position, per column,
/// the `(min, max)` over every sample's row at that position, NaN skipped;
/// the rows of the first sample (row chunking follows them); and the first
/// non-finite element in sample order. Built by folding samples in, one at a
/// time ([`SiteStats::fold`]), anywhere the samples are produced — the
/// calibration capture folds each sample as its layer runs — and
/// [merged](SiteStats::merge) across threads.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteStats {
    cols: usize,
    samples: usize,
    first_rows: Option<usize>,
    ranges: Ranges,
    /// The ranges of the samples with every non-finite element replaced by
    /// zero — what the degradation ladder's fallback calibrates on — kept
    /// only once a non-finite element has been folded; until then they are
    /// `ranges`.
    sanitized: Option<Ranges>,
    non_finite: Option<(usize, (usize, usize))>,
}

impl SiteStats {
    /// Statistics of no sample yet, for `cols`-column samples.
    pub fn new(cols: usize) -> Self {
        Self {
            cols,
            samples: 0,
            first_rows: None,
            ranges: Ranges {
                lo: Vec::new(),
                hi: Vec::new(),
            },
            sanitized: None,
            non_finite: None,
        }
    }

    /// The statistics of `samples`, sample `i` at index `i`. No samples
    /// give empty statistics (zero columns).
    ///
    /// # Panics
    ///
    /// Panics if the column counts differ.
    pub fn from_samples(samples: &[Matrix]) -> Self {
        let mut out = Self::new(samples.first().map_or(0, Matrix::cols));
        for (i, s) in samples.iter().enumerate() {
            out.fold(i, s);
        }
        out
    }

    /// Folds in sample number `sample` (its index in the calibration set,
    /// which orders the non-finite screen and picks the first sample).
    ///
    /// # Panics
    ///
    /// Panics if `m` is not `cols` wide.
    pub fn fold(&mut self, sample: usize, m: &Matrix) {
        assert_eq!(
            m.cols(),
            self.cols,
            "calibration samples must share column count"
        );
        self.samples += 1;
        if sample == 0 {
            self.first_rows = Some(m.rows());
        }
        self.ranges.grow(m.rows(), self.cols);
        if let Some(at) = first_non_finite(m) {
            if self.non_finite.is_none_or(|(s, _)| sample < s) {
                self.non_finite = Some((sample, at));
            }
            if self.sanitized.is_none() {
                self.sanitized = Some(self.ranges.clone());
            }
        }
        if let Some(san) = &mut self.sanitized {
            san.grow(m.rows(), self.cols);
            for (p, row) in m.iter_rows().enumerate() {
                san.fold_row(p, row, |x| if x.is_finite() { x } else { 0.0 });
            }
        }
        for (p, row) in m.iter_rows().enumerate() {
            self.ranges.fold_row(p, row, |x| x);
        }
    }

    /// Merges the statistics of another, disjoint set of samples.
    ///
    /// # Panics
    ///
    /// Panics if the column counts differ.
    pub fn merge(&mut self, other: &SiteStats) {
        assert_eq!(
            other.cols, self.cols,
            "calibration samples must share column count"
        );
        if self.sanitized.is_some() || other.sanitized.is_some() {
            let mut san = self.sanitized.take().unwrap_or_else(|| self.ranges.clone());
            san.merge(other.sanitized.as_ref().unwrap_or(&other.ranges), self.cols);
            self.sanitized = Some(san);
        }
        self.ranges.merge(&other.ranges, self.cols);
        self.samples += other.samples;
        self.first_rows = self.first_rows.or(other.first_rows);
        self.non_finite = match (self.non_finite, other.non_finite) {
            (Some(a), Some(b)) => Some(if b.0 < a.0 { b } else { a }),
            (a, b) => a.or(b),
        };
    }

    /// Columns (channels) per sample.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Samples folded in.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Row positions: the rows of the longest sample.
    pub fn rows(&self) -> usize {
        self.ranges.lo.len().checked_div(self.cols).unwrap_or(0)
    }

    /// Rows of sample 0 (0 before it is folded in).
    pub fn first_rows(&self) -> usize {
        self.first_rows.unwrap_or(0)
    }

    /// The first non-finite element in sample order: its sample and its
    /// `(row, col)` within the sample.
    pub fn non_finite(&self) -> Option<(usize, (usize, usize))> {
        self.non_finite
    }

    /// Per-column `(min, max)` over rows `rows` of every sample (the
    /// positions past [`SiteStats::rows`] hold no row) — `stats::col_min_max`
    /// of those rows stacked, bit for bit; `(0, 0)` per column when no
    /// sample has a row there.
    pub fn min_max(&self, rows: std::ops::Range<usize>) -> Vec<(f32, f32)> {
        let cols = self.cols;
        let rows = rows.start.min(self.rows())..rows.end.min(self.rows());
        if rows.is_empty() {
            return vec![(0.0, 0.0); cols];
        }
        let mut out = vec![(f32::INFINITY, f32::NEG_INFINITY); cols];
        for p in rows {
            let at = p * cols;
            let (lo, hi) = (
                &self.ranges.lo[at..at + cols],
                &self.ranges.hi[at..at + cols],
            );
            for ((o, &l), &h) in out.iter_mut().zip(lo).zip(hi) {
                o.0 = stats::fold_min(o.0, l);
                o.1 = stats::fold_max(o.1, h);
            }
        }
        out
    }

    /// Per-column `(min, max)` over every row of every sample.
    pub fn col_min_max(&self) -> Vec<(f32, f32)> {
        self.min_max(0..self.rows())
    }

    /// Per-column absolute maximum over every row — `stats::col_abs_max` of
    /// the stacked samples: `max(|min|, |max|)`, and zero for a column that
    /// holds nothing but NaN.
    pub fn col_abs_max(&self) -> Vec<f32> {
        self.col_min_max()
            .into_iter()
            .map(
                |(lo, hi)| {
                    if lo > hi {
                        0.0
                    } else {
                        lo.abs().max(hi.abs())
                    }
                },
            )
            .collect()
    }

    /// Absolute maximum over every element — `Matrix::abs_max` of the
    /// stacked samples.
    pub fn abs_max(&self) -> f32 {
        self.col_abs_max().into_iter().fold(0.0_f32, f32::max)
    }

    /// The statistics of the same samples with every non-finite element
    /// replaced by zero: what the degradation ladder's fallback rungs
    /// calibrate on. No element is non-finite there.
    pub fn sanitized(&self) -> SiteStats {
        SiteStats {
            cols: self.cols,
            samples: self.samples,
            first_rows: self.first_rows,
            ranges: self.sanitized.as_ref().unwrap_or(&self.ranges).clone(),
            sanitized: None,
            non_finite: None,
        }
    }

    /// Panics unless the statistics can calibrate a site whose weight has
    /// `weight_rows` rows: at least one sample, one column per weight row.
    pub fn assert_calibrates(&self, weight_rows: usize) {
        assert!(self.samples > 0, "calibration requires at least one sample");
        assert_eq!(
            self.cols, weight_rows,
            "activation channels must match weight rows"
        );
    }

    /// Heap bytes of the statistics.
    pub fn bytes(&self) -> usize {
        let ranges = |r: &Ranges| size_of_val(r.lo.as_slice()) + size_of_val(r.hi.as_slice());
        ranges(&self.ranges) + self.sanitized.as_ref().map_or(0, ranges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(v: &[(f32, f32)]) -> Vec<(u32, u32)> {
        v.iter().map(|&(l, h)| (l.to_bits(), h.to_bits())).collect()
    }

    #[test]
    fn ragged_samples_fold_per_position() {
        let a = Matrix::from_rows(&[vec![1.0, -2.0], vec![3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![-5.0, 0.5]]).unwrap();
        let s = SiteStats::from_samples(&[a.clone(), b.clone()]);
        assert_eq!((s.rows(), s.first_rows(), s.samples()), (2, 2, 2));
        assert_eq!(s.min_max(0..1), vec![(-5.0, 1.0), (-2.0, 0.5)]);
        assert_eq!(s.min_max(1..9), vec![(3.0, 3.0), (4.0, 4.0)]);
        assert_eq!(s.min_max(5..9), vec![(0.0, 0.0); 2]);
        assert_eq!(s.col_abs_max(), vec![5.0, 4.0]);
        assert_eq!(s.abs_max(), 5.0);
        // Folded the other way round, merged from halves: the same stats,
        // but sample 1 is now the first.
        let mut halves = SiteStats::new(2);
        halves.fold(1, &a);
        let mut first = SiteStats::new(2);
        first.fold(0, &b);
        halves.merge(&first);
        assert_eq!(bits(&halves.col_min_max()), bits(&s.col_min_max()));
        assert_eq!(halves.first_rows(), 1);
    }

    #[test]
    fn the_screen_reports_the_first_sample_and_sanitizes_the_rest() {
        let clean = Matrix::from_rows(&[vec![1.0, -2.0]]).unwrap();
        let nan = Matrix::from_rows(&[vec![1.0, 7.0], vec![f32::NAN, -9.0]]).unwrap();
        let inf = Matrix::from_rows(&[vec![f32::INFINITY, 0.5]]).unwrap();
        let s = SiteStats::from_samples(&[clean, nan, inf]);
        assert_eq!(s.non_finite(), Some((1, (1, 0))));
        assert_eq!(s.col_min_max(), vec![(1.0, f32::INFINITY), (-9.0, 7.0)]);
        let san = s.sanitized();
        assert_eq!(san.non_finite(), None);
        assert_eq!(san.col_min_max(), vec![(0.0, 1.0), (-9.0, 7.0)]);
        assert_eq!(san.col_abs_max(), vec![1.0, 9.0]);
    }

    #[test]
    fn a_nan_only_column_has_no_abs_max() {
        let m = Matrix::from_rows(&[vec![f32::NAN, 2.0], vec![f32::NAN, -3.0]]).unwrap();
        let s = SiteStats::from_samples(std::slice::from_ref(&m));
        assert_eq!(s.col_abs_max(), stats::col_abs_max(&m));
        assert_eq!(s.abs_max(), m.abs_max());
    }

    #[test]
    fn no_samples_are_empty_statistics() {
        let s = SiteStats::from_samples(&[]);
        assert_eq!((s.cols(), s.samples(), s.rows()), (0, 0, 0));
        assert!(std::panic::catch_unwind(|| s.assert_calibrates(0)).is_err());
    }
}
