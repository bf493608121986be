//! Differential tests for the 32-bit-accumulator kernel behind
//! `implicit_requant_matmul{,_at}`: its `f32` output bits, saturation count
//! and overflow count must equal what the per-step `i64` oracle
//! (`accumulate_chunk_implicit_with`) gives when its accumulator is
//! dequantized by the defining expression `acc · s_last · w_scale + bias ·
//! W_deq` — and that accumulator must equal the explicit-shifted order
//! (`accumulate_chunk_explicit_shifted`, Eq. 1), the order the kernel's
//! pre-scaled codes actually realise.
//!
//! Shapes cover the kernel's seams: 1–9 rows (inline, row-tile remainders)
//! and 150–280 rows (pooled blocks, a short last block), K and N off every
//! tile width (N = 1 included), activation widths 2–8 and 16 bits, weight
//! widths up to 28 bits (past 16 the packed weight codes are `i32`), α ∈
//! {2, 3}, 1–16 groups (both operand widths, licensed and unlicensed
//! chunks), and `row0 > 0` runs that straddle a calibration-chunk boundary.
//! The prefill-sized sweep also drives the per-step checked loop itself
//! through the pool, at widths where single MACs leave `i32`. CI runs this
//! at both thread counts; the pool is pinned to 4 threads here so the
//! pooled path is real.
//!
//! The licensed path quantizes its activations through the runtime row
//! quantizer over the flattened Index Buffer, the oracle through the scalar
//! definition in Index-Buffer order; the fixed sweep at the end holds the
//! two together on the inputs where a quantizer can go wrong (NaN, ±∞,
//! ±`f32::MAX`, exact ties, rows that saturate everywhere) at row widths
//! around the quantizer's chunk width, and the prepared operator against
//! the per-call free function.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use tender_quant::scheme::Scheme;
use tender_quant::tender::{
    accumulate_chunk_explicit_shifted, accumulate_chunk_implicit_with, chunk_cannot_overflow,
    implicit_requant_matmul, implicit_requant_matmul_at, ChunkCalibration, QuantizedWeight,
    TenderCalibration, TenderConfig, TenderScheme,
};
use tender_tensor::pool;
use tender_tensor::rng::DetRng;
use tender_tensor::Matrix;

/// Pins the global pool to 4 threads before its first use in this binary.
fn init_pool() {
    static INIT: std::sync::Once = std::sync::Once::new();
    INIT.call_once(|| pool::set_threads(4));
}

const BITS: [u32; 8] = [2, 3, 4, 5, 6, 7, 8, 16];
/// Weight widths: [`BITS`] plus widths whose codes no longer fit `i16`.
const W_BITS: [u32; 12] = [2, 3, 4, 5, 6, 7, 8, 16, 17, 20, 26, 28];

/// One drawn case; see [`check`].
#[derive(Debug, Clone, Copy)]
struct Case {
    m: usize,
    k: usize,
    n: usize,
    act_bits: u32,
    w_bits: u32,
    alpha: u32,
    groups: usize,
    row_chunk: usize,
    row0: usize,
    /// Calibrate on the runtime tensor itself ([`overflow_prone_activation`])
    /// rather than on a shorter, quieter sample.
    self_calibrated: bool,
    seed: u64,
}

/// Activations with two outlier channels (so the groups spread) whose
/// runtime rows overshoot the calibration sample (so the quantizer
/// saturates).
fn activations(rng: &mut DetRng, rows: usize, cols: usize, gain: f32) -> Matrix {
    let mut x = rng.normal_matrix(rows, cols, 0.0, gain);
    for r in 0..rows {
        x[(r, 0)] = rng.normal(0.5, 30.0 * gain);
        x[(r, cols / 2)] = rng.normal(-1.0, 6.0 * gain);
    }
    x
}

/// An activation with one heavy outlier column, so group scales spread and
/// (at high bit widths) accumulators overflow.
fn overflow_prone_activation(rng: &mut DetRng, rows: usize, cols: usize) -> Matrix {
    let mut x = rng.normal_matrix(rows, cols, 0.0, 1.0);
    for r in 0..rows {
        x[(r, 0)] = rng.normal(0.0, 30.0);
    }
    x
}

/// `bias · W_deq` by its definition (zero biases skipped, channels
/// ascending).
fn bias_row(bias: &[f32], w: &QuantizedWeight) -> Vec<f32> {
    let deq = w.dequantized();
    let mut corr = vec![0.0_f32; deq.cols()];
    for (j, &b) in bias.iter().enumerate() {
        if b == 0.0 {
            continue;
        }
        for (c, corr_c) in corr.iter_mut().enumerate() {
            *corr_c += b * deq[(j, c)];
        }
    }
    corr
}

/// Runs one case through the kernel and through the oracle, run by run.
/// Returns how many of its runs the overflow bound licensed, and the
/// overflow-event total.
fn check(case: Case) -> Result<(usize, usize), TestCaseError> {
    init_pool();
    let Case { m, k, n, row0, .. } = case;
    let config = TenderConfig {
        bits: case.act_bits,
        num_groups: case.groups,
        alpha: case.alpha,
        row_chunk: case.row_chunk,
        quant_act_act: false,
        subtract_bias: true,
    };
    let mut rng = DetRng::new(case.seed);
    let (sample, x) = if case.self_calibrated {
        let x = overflow_prone_activation(&mut rng, m, k);
        (x.clone(), x)
    } else {
        // Calibrate on fewer rows than the run reaches, so late rows reuse
        // the last chunk, and at a smaller gain than the runtime rows.
        let sample = activations(&mut rng, (row0 + m).div_ceil(2).max(2), k, 1.0);
        (sample, activations(&mut rng, m, k, 1.3))
    };
    let wf = rng.normal_matrix(k, n, 0.0, 0.5);
    let calib = TenderCalibration::from_samples(std::slice::from_ref(&sample), &config);
    let w = QuantizedWeight::per_col(&wf, case.w_bits);

    check_against_oracle(&x, row0, &w, &calib, &config, &format!("{case:?}"))
}

/// The kernel's output for `x` at `row0` against the per-step `i64` oracle,
/// run by run: `f32` bits of every output element, saturation and overflow
/// totals, run count. Returns how many runs the overflow bound licensed,
/// and the overflow-event total.
fn check_against_oracle(
    x: &Matrix,
    row0: usize,
    w: &QuantizedWeight,
    calib: &TenderCalibration,
    config: &TenderConfig,
    label: &str,
) -> Result<(usize, usize), TestCaseError> {
    let (m, n) = (x.rows(), w.values().cols());
    let got = implicit_requant_matmul_at(x, row0, w, calib, config);
    if row0 == 0 {
        let plain = implicit_requant_matmul(x, w, calib, config);
        prop_assert_eq!(plain.result.as_slice(), got.result.as_slice());
    }

    let chunk_rows = calib.chunk_rows();
    let (mut runs, mut licensed, mut overflow, mut saturated) = (0, 0, 0, 0);
    let mut r0 = 0;
    while r0 < m {
        let r1 = (((row0 + r0) / chunk_rows + 1) * chunk_rows - row0).min(m);
        let cc = calib.chunk_for_row(row0 + r0);
        let x_run = x.slice_rows(r0, r1);
        let (acc, run_overflow, run_saturated) =
            accumulate_chunk_implicit_with(&x_run, cc, w, config);
        let (shifted, _) = accumulate_chunk_explicit_shifted(&x_run, cc, w, config);
        prop_assert_eq!(&acc, &shifted, "Eq. 2 ≡ Eq. 1 on rows {}..{}", r0, r1);
        if chunk_cannot_overflow(cc, w.bits(), config) {
            prop_assert_eq!(run_overflow, 0, "licensed chunk overflowed");
            licensed += 1;
        }
        let corr = bias_row(&cc.bias, w);
        let s_last = cc.scales[config.num_groups - 1];
        for (i, &a) in acc.iter().enumerate() {
            let c = i % n;
            let want = a as f32 * s_last * w.scales()[c] + corr[c];
            let have = got.result[(r0 + i / n, c)];
            prop_assert_eq!(
                want.to_bits(),
                have.to_bits(),
                "row {} col {}: oracle {} vs kernel {} ({})",
                r0 + i / n,
                c,
                want,
                have,
                label
            );
        }
        overflow += run_overflow;
        saturated += run_saturated;
        runs += 1;
        r0 = r1;
    }
    prop_assert_eq!(got.chunks_processed, runs);
    prop_assert_eq!(got.overflow_events, overflow);
    prop_assert_eq!(got.saturated_values, saturated, "{}", label);
    Ok((licensed, overflow))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Decode-sized calls: 1–9 rows, inline, every row-tile remainder.
    #[test]
    fn kernel_matches_oracle_on_few_rows(
        m in 1_usize..=9,
        k in 1_usize..=70,
        n in 1_usize..=21,
        widths in (0_usize..8, 0_usize..12),
        decomposition in (2_u32..=3, 1_usize..=16),
        chunking in (0_usize..=6, 0_usize..=11),
        self_calibrated in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let (act_sel, w_sel) = widths;
        let (alpha, groups) = decomposition;
        let (row_chunk, row0) = chunking;
        check(Case {
            m, k, n, alpha, groups, row_chunk, row0, self_calibrated, seed,
            act_bits: BITS[act_sel],
            w_bits: W_BITS[w_sel],
        })?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Prefill-sized chunks straddling the pool's dispatch threshold. At
    /// the paper's widths every run must be licensed, so this is the 32-bit
    /// kernel itself, pooled (4 threads) and inline; at 16-bit activations ×
    /// 26-bit weights single MACs can leave `i32`, so no run is and the
    /// pooled per-step loop must report the oracle's (nonzero) overflow
    /// total.
    #[test]
    fn kernel_matches_oracle_on_prefill_chunks(
        m in 150_usize..=280,
        k in 100_usize..=139,
        n in 97_usize..=131,
        widths in 0_usize..3,
        alpha in 2_u32..=3,
        row0 in 0_usize..=200,
        seed in any::<u64>(),
    ) {
        let (act_bits, w_bits, groups) = [(4, 4, 12), (8, 8, 4), (16, 26, 2)][widths];
        let case = Case {
            m, k, n, alpha, groups, row0, seed, act_bits, w_bits,
            row_chunk: 256,
            self_calibrated: widths == 2,
        };
        let (licensed, overflow) = check(case)?;
        if widths == 2 {
            prop_assert_eq!(licensed, 0, "16 × 26 bits cannot be licensed: {:?}", case);
            prop_assert!(overflow > 0, "bit widths chosen to overflow: {:?}", case);
        } else {
            prop_assert!(licensed > 0, "paper-scale chunk was not licensed: {:?}", case);
        }
    }
}

#[test]
fn few_row_cases_reach_both_paths_and_both_operand_widths() {
    // The random sweep above is only a differential test of the new kernel
    // if a good share of its cases are licensed; pin that for its corners.
    let base = Case {
        m: 7,
        k: 37,
        n: 5,
        act_bits: 8,
        w_bits: 8,
        alpha: 2,
        groups: 4,
        row_chunk: 4,
        row0: 3,
        self_calibrated: false,
        seed: 11,
    };
    // i16 codes, i16 weights; rows 3..4, 4..8, 8..10 → three licensed runs.
    assert_eq!(check(base).unwrap().0, 3);
    // i32 codes (7 · 2^15 > i16::MAX), still licensed.
    let wide_codes = Case {
        act_bits: 4,
        w_bits: 4,
        groups: 16,
        ..base
    };
    assert_eq!(check(wide_codes).unwrap().0, 3);
    // 17-bit weights: the packed codes are i32, still licensed at 4-bit
    // activations.
    let wide_weights = Case {
        act_bits: 4,
        w_bits: 17,
        ..base
    };
    assert_eq!(check(wide_weights).unwrap().0, 3);
    // 16 × 16 bits: a single MAC can leave i32, so every run is checked.
    let unlicensed = Case {
        act_bits: 16,
        w_bits: 16,
        ..base
    };
    assert_eq!(check(unlicensed).unwrap().0, 0);
}

/// `x` with the inputs a quantizer can get wrong written over it: NaN, ±∞
/// and ±`f32::MAX` in its first rows, a row that saturates every channel in
/// each direction, and a row of exact ties (`(x − bias) / scale` a
/// half-integer for the channel's own group scale). Returns how many of the
/// tie row's quotients really are ties after `f32` rounding.
fn poison(x: &mut Matrix, calib: &TenderCalibration, row0: usize) -> usize {
    let (m, k) = x.shape();
    let specials = [
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::MAX,
        f32::MIN,
    ];
    for (i, &v) in specials.iter().enumerate() {
        x[(i % m, (i * 3) % k)] = v;
    }
    for (r, v) in [(1, 1e30_f32), (2, -1e30)] {
        if r < m {
            x.row_mut(r).fill(v);
        }
    }
    let tie_row = m - 1;
    let cc = calib.chunk_for_row(row0 + tie_row);
    let mut ties = 0;
    for ch in 0..k {
        let scale = cc.scales[cc.group_of[ch]];
        let v = cc.bias[ch] + ((ch % 9) as f32 - 4.5) * scale;
        x[(tie_row, ch)] = v;
        ties += (((v - cc.bias[ch]) / scale).fract().abs() == 0.5) as usize;
    }
    ties
}

#[test]
fn licensed_operator_matches_the_checked_walk_on_hostile_rows() {
    // Row widths around the quantizer's 8-lane chunk (1, 7, 8, 9), around
    // the engine's (255, 256) and a long ragged one; row counts around the
    // 16-row block and the prefill size. Every run must be licensed, so the
    // kernel side is the row quantizer + 32-bit GEMM and the oracle side
    // the scalar definition + per-step i64 walk.
    init_pool();
    let mut total_ties = 0;
    for config in [TenderConfig::int8(), TenderConfig::int4()] {
        for k in [1, 7, 8, 9, 255, 256, 1000] {
            for m in [1, 16, 17, 160] {
                let mut rng = DetRng::new((k * 1000 + m) as u64);
                let sample = activations(&mut rng, m.max(2), k, 1.0);
                let mut x = activations(&mut rng, m, k, 1.3);
                let calib = TenderCalibration::from_samples(std::slice::from_ref(&sample), &config);
                total_ties += poison(&mut x, &calib, 0);
                let wf = rng.normal_matrix(k, 5, 0.0, 0.5);
                let w = QuantizedWeight::per_col(&wf, config.bits);
                let label = format!("INT{} k={k} m={m}", config.bits);
                let (licensed, overflow) =
                    check_against_oracle(&x, 0, &w, &calib, &config, &label).unwrap();
                assert_eq!((licensed, overflow), (1, 0), "{label}");
                let stats = implicit_requant_matmul(&x, &w, &calib, &config);
                assert!(
                    stats.saturated_values > 0 || m == 1,
                    "{label}: nothing saturated"
                );

                // The prepared operator (rows built once) against the free
                // function (rows built per call), bit for bit, whole and
                // one row at a time.
                let op =
                    TenderScheme::new(config.clone()).prepare(std::slice::from_ref(&sample), &wf);
                let bits =
                    |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&op.forward(&x)), bits(&stats.result), "{label}");
                let r = m - 1;
                let row = x.slice_rows(r, r + 1);
                assert_eq!(
                    bits(&op.forward_at(&row, r)),
                    bits(&implicit_requant_matmul_at(&row, r, &w, &calib, &config).result),
                    "{label} row {r}"
                );
            }
        }
    }
    assert!(
        total_ties > 1000,
        "the tie rows must hit real ties: {total_ties}"
    );
}

#[test]
fn a_channel_the_index_buffer_omits_contributes_nothing() {
    // Only a hand-built calibration can leave a channel out of `order`. The
    // group walks never visit it; the flattened rows must give it a zero
    // code and no saturation event either, whatever the activation holds.
    let config = TenderConfig::int8().with_groups(2).with_row_chunk(0);
    let tmax = 8.0;
    let cc = ChunkCalibration {
        bias: vec![0.5, 0.0, -1.0, 0.25],
        group_of: vec![0, 1, 0, 1],
        scales: tender_quant::tender::group_scales(tmax, 2, 2, 8),
        order: vec![vec![0], vec![3, 1]], // channel 2 is in no group
        tmax,
    };
    let calib = TenderCalibration::from_parts(vec![cc], 4);
    let w = QuantizedWeight::per_col(&Matrix::from_fn(4, 3, |r, c| (r + c) as f32 - 2.0), 8);
    let x = Matrix::from_rows(&[
        vec![1.0, -3.0, 1e30, 0.5],
        vec![100.0, 2.0, f32::NAN, -100.0],
        vec![-7.5, 0.25, f32::NEG_INFINITY, 3.0],
    ])
    .unwrap();
    let (licensed, overflow) =
        check_against_oracle(&x, 0, &w, &calib, &config, "omitted channel").unwrap();
    assert_eq!((licensed, overflow), (1, 0));
    // Saturation: row 1's channels 0 and 3 only — never channel 2.
    assert_eq!(
        implicit_requant_matmul(&x, &w, &calib, &config).saturated_values,
        2
    );
}
