//! Calibration statistics fold over the samples where they lie: the
//! property that licenses it.
//!
//! `TenderCalibration::from_samples` reads each chunk's rows of every sample
//! in place. Its definition is the stacked one — rows `r0..r1` of every
//! sample, in sample order, stacked into one matrix and handed to
//! `ChunkCalibration::from_activation` — kept here as a test-local copy.
//! Every chunk must match it bit for bit, over ragged samples (a sample may
//! end before a later chunk starts, or run past the first sample) and over
//! ±0, NaN, ±∞ and subnormal values, including a column that is NaN
//! throughout. The rows fold under `stats::col_min_max` gets the same check,
//! down to zero rows.

use proptest::prelude::*;
use tender_quant::tender::{ChunkCalibration, TenderCalibration, TenderConfig};
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

/// One value: mostly normal draws, sometimes an IEEE special.
fn draw(rng: &mut DetRng, specials: bool) -> f32 {
    if !specials {
        return rng.normal(0.0, 4.0);
    }
    match rng.below(48) {
        0 => 0.0,
        1 => -0.0,
        2 => f32::NAN,
        3 => f32::INFINITY,
        4 => f32::NEG_INFINITY,
        5 => f32::from_bits(1 + rng.below(0x007f_ffff) as u32),
        6 => -f32::from_bits(1 + rng.below(0x007f_ffff) as u32),
        _ => rng.normal(0.0, 4.0),
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
                    draw(&mut rng, specials)
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
