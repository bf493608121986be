//! Calibration statistics fold over the samples where they lie: the
//! property that licenses it.
//!
//! `TenderCalibration::from_samples` reads each chunk's rows of every sample
//! through their `SiteStats`. Its definition is the stacked one — rows
//! `r0..r1` of every sample, in sample order, stacked into one matrix and
//! handed to `ChunkCalibration::from_activation` — kept here as a test-local
//! copy. Every chunk must match it bit for bit, over ragged samples (a
//! sample may end before a later chunk starts, or run past the first
//! sample) and over ±0, NaN, ±∞ and subnormal values, including a column
//! that is NaN throughout. The rows fold under `stats::col_min_max` gets the
//! same check, down to zero rows.
//!
//! The calibration capture folds each batch into statistics of its own on
//! the pool and merges them afterwards; that fold, run on pools of one and
//! four threads and merged in batch order or in contiguous runs, must give
//! the stacked definition's bits too — Tender's chunks, and every statistic
//! the other stats-calibrated baselines read (`col_abs_max`, `abs_max`,
//! `col_min_max` of the stacked samples), the screen's first non-finite
//! element and the sanitized ranges the degradation ladder falls back on.
//! Each migrated baseline then builds the same operator from the statistics
//! as from the samples.

use std::sync::{LazyLock, Mutex};

use proptest::prelude::*;
use tender_quant::baselines::{MixedPrecisionScheme, RptqScheme, SmoothQuantScheme};
use tender_quant::granularity::{Granularity, GranularityScheme};
use tender_quant::scheme::{first_non_finite, stack_samples, CalibInput, Scheme, SiteStats};
use tender_quant::tender::{ChunkCalibration, TenderCalibration, TenderConfig, TenderScheme};
use tender_tensor::pool::Pool;
use tender_tensor::rng::DetRng;
use tender_tensor::{stats, Matrix};

/// The stacked definition: one `from_activation` per chunk over the
/// explicitly stacked rows `r0..r1` of every sample.
fn stacked_definition(samples: &[Matrix], config: &TenderConfig) -> Vec<ChunkCalibration> {
    let rows = samples[0].rows();
    let chunk_rows = config.chunk_rows(rows);
    (0..rows.div_ceil(chunk_rows).max(1))
        .map(|c| {
            let r0 = c * chunk_rows;
            let mut acc: Option<Matrix> = None;
            for s in samples {
                let r1 = (r0 + chunk_rows).min(s.rows());
                if r0 >= r1 {
                    continue;
                }
                let slice = s.slice_rows(r0, r1);
                acc = Some(match acc {
                    None => slice,
                    Some(a) => a.vstack(&slice).unwrap(),
                });
            }
            ChunkCalibration::from_activation(&acc.expect("chunk has rows"), config)
        })
        .collect()
}

/// One value of column `col`: mostly normal draws, sometimes an IEEE
/// special. With specials, every fourth column is never below zero and the
/// next never above it, so a chunk's minimum (or maximum) is often a zero
/// of either sign: the case where an order-dependent fold would differ.
fn draw(rng: &mut DetRng, specials: bool, col: usize) -> f32 {
    if !specials {
        return rng.normal(0.0, 4.0);
    }
    let x = match rng.below(48) {
        0 => 0.0,
        1 => -0.0,
        2 => f32::NAN,
        3 => f32::INFINITY,
        4 => f32::NEG_INFINITY,
        5 => f32::from_bits(1 + rng.below(0x007f_ffff) as u32),
        6 => -f32::from_bits(1 + rng.below(0x007f_ffff) as u32),
        _ => rng.normal(0.0, 4.0),
    };
    // Negation flips the sign of everything but the zero it keeps.
    match col % 4 {
        1 if x < 0.0 => -x,
        2 if x > 0.0 => -x,
        _ => x,
    }
}

/// Samples of `lens[i]` rows and `cols` columns; column `nan_col`, when in
/// range, is NaN in every row of every sample.
fn samples(seed: u64, lens: &[usize], cols: usize, specials: bool, nan_col: usize) -> Vec<Matrix> {
    let mut rng = DetRng::new(seed);
    lens.iter()
        .map(|&n| {
            Matrix::from_fn(n, cols, |_, c| {
                if c == nan_col {
                    f32::NAN
                } else {
                    draw(&mut rng, specials, c)
                }
            })
        })
        .collect()
}

fn assert_same(got: &ChunkCalibration, want: &ChunkCalibration, chunk: usize) {
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&got.bias), bits(&want.bias), "chunk {chunk} bias");
    assert_eq!(
        bits(&got.scales),
        bits(&want.scales),
        "chunk {chunk} scales"
    );
    assert_eq!(
        got.tmax.to_bits(),
        want.tmax.to_bits(),
        "chunk {chunk} tmax"
    );
    assert_eq!(got.group_of, want.group_of, "chunk {chunk} group_of");
    assert_eq!(got.order, want.order, "chunk {chunk} order");
}

/// Pools of one and four threads, shared by every case.
static POOLS: LazyLock<[Pool; 2]> = LazyLock::new(|| [Pool::new(1), Pool::new(4)]);

/// The capture's fold: each sample folded into statistics of its own on a
/// pool (`four` threads or one), then merged — in sample order, or as
/// contiguous runs folded in order and merged last run first.
fn pooled_stats(samples: &[Matrix], cols: usize, four: bool, runs: bool) -> SiteStats {
    let slots: Vec<Mutex<Option<SiteStats>>> = samples.iter().map(|_| Mutex::new(None)).collect();
    POOLS[four as usize].run(samples.len(), &|i| {
        let mut s = SiteStats::new(cols);
        s.fold(i, &samples[i]);
        *slots[i].lock().unwrap() = Some(s);
    });
    let parts: Vec<SiteStats> = slots
        .into_iter()
        .map(|s| s.into_inner().unwrap().expect("every sample folded"))
        .collect();
    let mut out = SiteStats::new(cols);
    if runs {
        let mid = parts.len() / 2;
        for run in [&parts[mid..], &parts[..mid]] {
            let mut acc = SiteStats::new(cols);
            run.iter().for_each(|p| acc.merge(p));
            out.merge(&acc);
        }
    } else {
        parts.iter().for_each(|p| out.merge(p));
    }
    out
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn pair_bits(v: &[(f32, f32)]) -> Vec<(u32, u32)> {
    v.iter().map(|&(l, h)| (l.to_bits(), h.to_bits())).collect()
}

/// The product of `op` on `x`, as bits.
fn product_bits(op: &dyn tender_quant::QuantMatmul, x: &Matrix) -> Vec<u32> {
    bits(op.forward(x).as_slice())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every chunk of `from_samples` equals the stacked definition's.
    #[test]
    fn from_samples_is_the_stacked_definition(
        seed in any::<u64>(),
        first in 1_usize..24,
        tail in proptest::collection::vec(0_usize..30, 0..40),
        cols in 1_usize..12,
        specials in any::<bool>(),
        nan_col in 0_usize..24,
        int4 in any::<bool>(),
        chunk in 0_usize..3,
    ) {
        let mut lens = vec![first];
        lens.extend(tail);
        let samples = samples(seed, &lens, cols, specials, nan_col);
        let base = if int4 { TenderConfig::int4() } else { TenderConfig::int8() };
        // The default chunk (one chunk here), chunks of 4, one chunk of all rows.
        let config = match chunk {
            0 => base,
            1 => base.with_row_chunk(4),
            _ => base.with_row_chunk(0),
        };

        let cal = TenderCalibration::from_samples(&samples, &config);
        let want = stacked_definition(&samples, &config);
        prop_assert_eq!(cal.chunk_rows(), config.chunk_rows(first));
        prop_assert_eq!(cal.chunks().len(), want.len());
        for (c, (got, want)) in cal.chunks().iter().zip(&want).enumerate() {
            assert_same(got, want, c);
        }
    }

    /// The capture's fold — per-sample statistics merged after a pool run,
    /// at one and four threads, in order or as runs — gives the stacked
    /// definition of every statistic the stats-calibrated schemes read.
    #[test]
    fn capture_fold_is_the_stacked_definition(
        seed in any::<u64>(),
        first in 1_usize..24,
        tail in proptest::collection::vec(0_usize..30, 0..12),
        cols in 1_usize..12,
        specials in any::<bool>(),
        nan_col in 0_usize..24,
        chunk in 0_usize..3,
        pool_mode in 0_usize..4,
    ) {
        // One or four threads; merged in sample order or as runs.
        let (four, runs) = (pool_mode & 1 == 1, pool_mode & 2 == 2);
        let mut lens = vec![first];
        lens.extend(tail);
        let samples = samples(seed, &lens, cols, specials, nan_col);
        let config = match chunk {
            0 => TenderConfig::int4(),
            1 => TenderConfig::int8().with_row_chunk(4),
            _ => TenderConfig::int8().with_row_chunk(0),
        };
        let folded = pooled_stats(&samples, cols, four, runs);
        prop_assert_eq!(folded.samples(), samples.len());

        let cal = TenderCalibration::from_stats(&folded, &config);
        let want = stacked_definition(&samples, &config);
        prop_assert_eq!(cal.chunks().len(), want.len());
        for (c, (got, want)) in cal.chunks().iter().zip(&want).enumerate() {
            assert_same(got, want, c);
        }

        let stacked = stack_samples(&samples);
        prop_assert_eq!(pair_bits(&folded.col_min_max()), pair_bits(&stats::col_min_max(&stacked)));
        prop_assert_eq!(bits(&folded.col_abs_max()), bits(&stats::col_abs_max(&stacked)));
        prop_assert_eq!(folded.abs_max().to_bits(), stacked.abs_max().to_bits());
        let screen = samples
            .iter()
            .enumerate()
            .find_map(|(i, s)| first_non_finite(s).map(|at| (i, at)));
        prop_assert_eq!(folded.non_finite(), screen);
        let sanitized = stacked.map(|x| if x.is_finite() { x } else { 0.0 });
        prop_assert_eq!(
            pair_bits(&folded.sanitized().col_min_max()),
            pair_bits(&stats::col_min_max(&sanitized))
        );
        prop_assert_eq!(folded.sanitized().non_finite(), None);
    }

    /// Each migrated baseline builds the operator from the capture's
    /// statistics that it builds from the samples: the same product, bit
    /// for bit.
    #[test]
    fn stats_calibrated_baselines_match_their_samples_path(
        seed in any::<u64>(),
        lens in proptest::collection::vec(1_usize..10, 1..5),
        cols in 1_usize..12,
        four in any::<bool>(),
    ) {
        // Finite values, ±0 and subnormals included: a non-finite sample
        // is the screen's business, not the operator's.
        let samples: Vec<Matrix> = samples(seed, &lens, cols, true, usize::MAX)
            .into_iter()
            .map(|s| s.map(|x| if x.is_finite() { x } else { -0.0 }))
            .collect();
        let mut rng = DetRng::new(seed ^ 0x5eed);
        let w = rng.normal_matrix(cols, 5, 0.0, 0.3);
        let x = rng.normal_matrix(3, cols, 0.0, 2.0);
        let folded = pooled_stats(&samples, cols, four, true);
        let schemes: Vec<Box<dyn Scheme>> = vec![
            Box::new(SmoothQuantScheme::new(8)),
            Box::new(MixedPrecisionScheme::new(8)),
            Box::new(RptqScheme::new(4, 3)),
            Box::new(GranularityScheme::new(8, Granularity::PerTensor)),
            Box::new(GranularityScheme::new(4, Granularity::PerCol)),
            Box::new(TenderScheme::new(TenderConfig::int4().with_row_chunk(4))),
        ];
        for scheme in &schemes {
            prop_assert!(!scheme.reads_samples(), "{}", scheme.name());
            let from_samples = scheme.prepare(&samples, &w);
            let from_stats = scheme.calibrate(CalibInput::stats(&folded), &w);
            prop_assert_eq!(
                product_bits(from_samples.as_ref(), &x),
                product_bits(from_stats.as_ref(), &x),
                "{}", scheme.name()
            );
        }
    }

    /// The rows fold under `col_min_max` equals it on the stacked matrix,
    /// including at zero rows.
    #[test]
    fn rows_min_max_is_col_min_max_of_the_stack(
        seed in any::<u64>(),
        lens in proptest::collection::vec(0_usize..8, 0..6),
        cols in 1_usize..10,
        nan_col in 0_usize..20,
    ) {
        let samples = samples(seed, &lens, cols, true, nan_col);
        let stacked = samples
            .iter()
            .fold(Matrix::zeros(0, cols), |a, s| a.vstack(s).unwrap());
        let bits = |v: Vec<(f32, f32)>| {
            v.into_iter().map(|(lo, hi)| (lo.to_bits(), hi.to_bits())).collect::<Vec<_>>()
        };
        prop_assert_eq!(
            bits(stats::rows_min_max(cols, samples.iter().flat_map(Matrix::iter_rows))),
            bits(stats::col_min_max(&stacked))
        );
        if stacked.rows() == 0 {
            prop_assert_eq!(stats::col_min_max(&stacked), vec![(0.0, 0.0); cols]);
        }
    }
}

#[test]
fn a_sample_ending_before_a_later_chunk_adds_nothing_to_it() {
    // Chunks of 4 over a 12-row first sample; the second sample stops in
    // chunk 0, so chunk 1 and 2 see only the first and third samples.
    let config = TenderConfig::int8().with_row_chunk(4);
    let samples = samples(7, &[12, 3, 9], 5, true, 2);
    let cal = TenderCalibration::from_samples(&samples, &config);
    let want = stacked_definition(&samples, &config);
    assert_eq!(cal.chunks().len(), 3);
    for (c, (got, want)) in cal.chunks().iter().zip(&want).enumerate() {
        assert_same(got, want, c);
    }
}

#[test]
#[should_panic(expected = "chunk must contain rows from at least one sample")]
fn a_chunk_without_rows_still_panics() {
    let _ = TenderCalibration::from_samples(&[Matrix::zeros(0, 3)], &TenderConfig::int8());
}
