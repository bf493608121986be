//! `QuantMatmul::forward_rows` at the Tender operator: rows stacked at
//! scattered absolute positions — the decode rows of several sessions in one
//! product — are, bit for bit and count for count, the rows run alone.
//!
//! Tender is the one scheme whose operator reads the positions (row-chunked
//! calibration is keyed by absolute row index), so this is where stacking
//! could go wrong: a row quantized against a neighbour's chunk, a run cut in
//! the wrong place, a counter ticking per call where it should tick per
//! value. Covered: the implicit and the explicit kernel, licensed chunks at
//! both operand widths and chunks the accumulator bound sends through the
//! checked `i64` loop (with real overflow events), positions shuffled over
//! more than three calibration chunks and past the calibrated range. (The
//! registry-wide check that every *other* scheme's rows are independent
//! lives beside `scheme_by_name`.)
//!
//! The test reads process-global counters, so this file is a test binary of
//! its own.

use tender_metrics::kernel as metrics;
use tender_quant::scheme::Scheme;
use tender_quant::tender::{TenderConfig, TenderScheme};
use tender_tensor::rng::DetRng;
use tender_tensor::Matrix;

const ROW_CHUNK: usize = 4;
/// Fourteen rows over chunks 0–3 of a 16-row calibration and chunks 5 and 7
/// past it, unordered, with neighbours that share a chunk and chunks that
/// come back later as a new run.
const POSITIONS: [usize; 14] = [13, 2, 3, 9, 8, 15, 0, 5, 21, 22, 30, 7, 6, 1];

fn config(bits: u32, groups: usize) -> TenderConfig {
    TenderConfig {
        bits,
        num_groups: groups,
        ..TenderConfig::int8()
    }
    .with_row_chunk(ROW_CHUNK)
}

/// Activations with two outlier channels and a different magnitude per
/// calibration chunk, so a row quantized against the wrong chunk differs.
fn activation(rng: &mut DetRng, rows: usize, cols: usize) -> Matrix {
    let mut x = Matrix::from_fn(rows, cols, |r, _| {
        rng.normal(0.0, 0.5) * (1 + r / ROW_CHUNK) as f32
    });
    for r in 0..rows {
        x[(r, 1)] = rng.normal(3.0, 25.0);
        x[(r, 6)] = rng.normal(0.0, 12.0);
    }
    x
}

fn bits(row: &[f32]) -> Vec<u32> {
    row.iter().map(|v| v.to_bits()).collect()
}

/// What a product quantized, saturated and overflowed — per value, so the
/// same whichever rows shared a call.
fn value_counters(groups: usize) -> Vec<u64> {
    let mut v = vec![
        metrics::QUANTIZED_VALUES.get(),
        metrics::SATURATED_VALUES.get(),
        metrics::OVERFLOW_EVENTS.get(),
    ];
    v.extend((0..groups).map(|g| metrics::GROUP_QUANTIZED.get(g)));
    v
}

/// `(kernel calls, chunk runs)` — per call, so they fall when rows stack.
fn call_counters() -> (u64, u64) {
    (
        metrics::IMPLICIT_MATMULS.get() + metrics::EXPLICIT_MATMULS.get(),
        metrics::CHUNKS_FAST_PATH.get() + metrics::CHUNKS_CHECKED.get(),
    )
}

fn delta(after: &[u64], before: &[u64]) -> Vec<u64> {
    after.iter().zip(before).map(|(a, b)| a - b).collect()
}

#[test]
fn stacked_rows_equal_their_solo_calls() {
    let runs = 1 + POSITIONS
        .windows(2)
        .filter(|p| p[0] / ROW_CHUNK != p[1] / ROW_CHUNK)
        .count();
    assert_eq!(runs, 10);
    // (bits, groups, licensed): INT8 and INT4 run on the 32-bit kernel;
    // 16-bit codes against 16-bit weights exceed the accumulator bound.
    for (width, groups, licensed) in [(8, 4, true), (4, 8, true), (16, 2, false)] {
        for explicit in [false, true] {
            let what = format!("bits {width} groups {groups} explicit {explicit}");
            let mut rng = DetRng::new(7 + width as u64);
            let calib = activation(&mut rng, 16, 16);
            let x = activation(&mut rng, POSITIONS.len(), 16);
            let w = rng.normal_matrix(16, 8, 0.0, 0.2);
            let mut scheme = TenderScheme::new(config(width, groups));
            if explicit {
                scheme = scheme.with_explicit_requant();
            }
            let op = scheme.prepare(std::slice::from_ref(&calib), &w);

            let (values, calls) = (value_counters(groups), call_counters());
            let (fast, checked) = (
                metrics::CHUNKS_FAST_PATH.get(),
                metrics::CHUNKS_CHECKED.get(),
            );
            let stacked = op.forward_rows(&x, &POSITIONS);
            let stacked_values = delta(&value_counters(groups), &values);
            let stacked_calls = call_counters();
            assert_eq!(stacked_calls.0 - calls.0, 1, "{what}: one kernel call");
            if !explicit {
                assert_eq!(
                    stacked_calls.1 - calls.1,
                    runs as u64,
                    "{what}: one chunk per run"
                );
                let on_fast_path = metrics::CHUNKS_FAST_PATH.get() - fast;
                let on_checked = metrics::CHUNKS_CHECKED.get() - checked;
                assert_eq!(
                    (on_fast_path > 0, on_checked > 0),
                    (licensed, !licensed),
                    "{what}: wrong kernel"
                );
            }

            let (values, calls) = (value_counters(groups), call_counters());
            for (r, &position) in POSITIONS.iter().enumerate() {
                let solo = op.forward_at(&x.slice_rows(r, r + 1), position);
                assert_eq!(
                    bits(solo.row(0)),
                    bits(stacked.row(r)),
                    "{what}: row {r} at position {position}"
                );
            }
            assert_eq!(
                delta(&value_counters(groups), &values),
                stacked_values,
                "{what}: value counters"
            );
            assert_eq!(call_counters().0 - calls.0, POSITIONS.len() as u64);
            assert_eq!(stacked_values[0], (POSITIONS.len() * 16) as u64);
            assert_eq!(
                stacked_values[2] > 0,
                !licensed && !explicit,
                "{what}: only the checked implicit loop can count an overflow"
            );
        }
    }
}
