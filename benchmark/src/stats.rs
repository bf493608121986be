//! Order statistics for repetition values and latency samples.

/// Sorted copy of `xs` (NaN-free by construction: every sample is a
/// measured duration or a count).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    v
}

/// `(q1, median, q3)` by the rule of Python's
/// `statistics.quantiles(xs, n=4)` (the "exclusive" method), so the spread
/// this program prints is the one the driver computes from its own runs.
/// Fewer than two values have no spread: all three are the value itself
/// (0 for an empty slice).
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let v = sorted(xs);
    let m = v.len();
    if m < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// `(q1, q3, (q3 - q1) / |median|)`: the spread of repetition values as a
/// share of their median (0 where the median is 0).
pub fn spread(xs: &[f64]) -> (f64, f64, f64) {
    let (q1, med, q3) = quartiles(xs);
    let share = if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    };
    (q1, q3, share)
}

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    quartiles(xs).1
}

/// Nearest-rank percentile (`pct` in 0..=100) — the rule
/// `tender_serve` uses for its own latency gauges.
pub fn percentile(xs: &[f64], pct: usize) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (pct * v.len()).div_ceil(100).clamp(1, v.len());
    v[rank - 1]
}

/// The piecewise-linear function through `knots` (ascending in `.0`) at
/// `x`, held constant beyond either end (0 for no knots).
pub fn interpolate(knots: &[(f64, f64)], x: f64) -> f64 {
    let after = knots.partition_point(|k| k.0 < x);
    match (after.checked_sub(1).map(|i| knots[i]), knots.get(after)) {
        (Some((x0, y0)), Some(&(x1, y1))) => y0 + (y1 - y0) * (x - x0) / (x1 - x0),
        (None, Some(&(_, y))) | (Some((_, y)), None) => y,
        (None, None) => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolate_is_linear_between_knots_and_flat_outside() {
        let knots = [(0.0, 10.0), (8.0, 90.0), (12.0, 100.0)];
        assert_eq!(interpolate(&knots, 0.0), 10.0);
        assert_eq!(interpolate(&knots, 4.0), 50.0);
        assert_eq!(interpolate(&knots, 8.0), 90.0);
        assert_eq!(interpolate(&knots, 10.0), 95.0);
        assert_eq!(interpolate(&knots, 13.0), 100.0);
        assert_eq!(interpolate(&knots, -1.0), 10.0);
        assert_eq!(interpolate(&[], 1.0), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50), 10.0);
        assert_eq!(percentile(&xs, 95), 19.0);
        assert_eq!(percentile(&xs, 100), 20.0);
        assert_eq!(percentile(&[], 50), 0.0);
    }
}
