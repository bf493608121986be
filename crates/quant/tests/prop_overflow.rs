//! Property tests for hardware-faithful overflow accounting.
//!
//! The kernel's `overflow_events` must equal a naive reference that checks
//! the `i64` accumulator against `i32` range after **every** mutation (each
//! MAC and each inter-group α-shift) — for arbitrary shapes, bit widths,
//! group counts, and chunk sizes, including rows that are not a multiple of
//! the chunk size (chunk-edge coverage).
//!
//! The equality also proves two subtler properties:
//!
//! * **Fast-path soundness** — when `chunk_cannot_overflow` licenses a
//!   chunk for the 32-bit-accumulator kernel (which reports zero events
//!   without looking), the naive reference (which always checks) must
//!   still find zero events; any unsound bound shows up as a mismatch.
//! * **Thread parity** — the pool here is pinned to 4 threads, while the
//!   naive reference is single-threaded by construction and small shapes
//!   take the kernel's serial dispatch path (identical to a 1-thread pool).
//!   Both dispatch paths equalling the same reference means the count is
//!   independent of the thread count, the claim `tests/determinism.rs` in
//!   `tender-bench` pins at process level.

use proptest::prelude::*;
use tender_quant::quantizer::quantize_value;
use tender_quant::tender::{
    accumulate_chunk_implicit, chunk_cannot_overflow, implicit_requant_matmul, QuantizedWeight,
    TenderCalibration, TenderConfig,
};
use tender_tensor::pool;
use tender_tensor::rng::DetRng;
use tender_tensor::Matrix;

/// Pins the global pool to 4 threads before its first use in this binary.
fn init_pool() {
    static INIT: std::sync::Once = std::sync::Once::new();
    INIT.call_once(|| pool::set_threads(4));
}

fn outside_i32(a: i64) -> bool {
    a > i32::MAX as i64 || a < i32::MIN as i64
}

/// Naive reference: serial, per-row accumulation in the implicit order
/// (groups ascending, α-shift between groups, Index-Buffer channel order),
/// checking the accumulator after every single mutation.
fn naive_overflow(
    x: &Matrix,
    calib: &TenderCalibration,
    w: &QuantizedWeight,
    config: &TenderConfig,
) -> usize {
    let n = w.values().cols();
    let chunk_rows = calib.chunk_rows();
    let mut events = 0_usize;
    let mut r0 = 0;
    while r0 < x.rows() {
        let r1 = (r0 + chunk_rows).min(x.rows());
        let cc = calib.chunk_for_row(r0);
        for r in r0..r1 {
            let mut acc = vec![0_i64; n];
            for g in 0..config.num_groups {
                if g > 0 {
                    for a in acc.iter_mut() {
                        *a *= config.alpha as i64;
                        events += outside_i32(*a) as usize;
                    }
                }
                for &ch in &cc.order[g] {
                    let xq =
                        quantize_value(x[(r, ch)] - cc.bias[ch], cc.scales[g], config.bits) as i64;
                    if xq == 0 {
                        continue;
                    }
                    for (c, a) in acc.iter_mut().enumerate() {
                        *a += xq * w.values()[(ch, c)] as i64;
                        events += outside_i32(*a) as usize;
                    }
                }
            }
        }
        r0 = r1;
    }
    events
}

/// An activation with one heavy outlier column, so group scales spread and
/// large quantized magnitudes (the overflow-prone case) actually occur.
fn overflow_prone_activation(rng: &mut DetRng, rows: usize, cols: usize) -> Matrix {
    let mut x = rng.normal_matrix(rows, cols, 0.0, 1.0);
    for r in 0..rows {
        x[(r, 0)] = rng.normal(0.0, 30.0);
    }
    x
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Arbitrary small/medium shapes: kernel count == naive per-step count.
    /// Bit widths range high enough that some cases genuinely overflow
    /// (act 16 bits × weight 28 bits ⇒ a single MAC can exceed `i32`) and
    /// low enough that others take the proven-safe fast path.
    #[test]
    fn overflow_events_match_naive_reference(
        rows in 9_usize..40,
        chans in 4_usize..24,
        n in 3_usize..12,
        bits in 6_u32..=16,
        w_bits in 8_u32..=28,
        groups in 1_usize..4,
        chunk_sel in 0_usize..3,
        seed in any::<u64>(),
    ) {
        init_pool();
        // 0 = one chunk covering all rows; 7/8 leave a short edge chunk for
        // most row counts.
        let chunk = [0_usize, 7, 8][chunk_sel];
        let mut rng = DetRng::new(seed);
        let x = overflow_prone_activation(&mut rng, rows, chans);
        let wf = rng.normal_matrix(chans, n, 0.0, 0.5);
        let config = TenderConfig {
            bits,
            num_groups: groups,
            alpha: 2,
            row_chunk: chunk,
            quant_act_act: false,
            subtract_bias: true,
        };
        let calib = TenderCalibration::from_samples(std::slice::from_ref(&x), &config);
        let w = QuantizedWeight::per_col(&wf, w_bits);

        let expected = naive_overflow(&x, &calib, &w, &config);
        let stats = implicit_requant_matmul(&x, &w, &calib, &config);
        prop_assert_eq!(stats.overflow_events, expected);

        // Chunk-level agreement too (serial dispatch at these sizes — the
        // 1-thread-equivalent path).
        let cc = calib.chunk_for_row(0);
        let m = calib.chunk_rows().min(x.rows());
        let head = x.slice_rows(0, m);
        let head_expected = naive_overflow(&head, &calib, &w, &config);
        let (_, head_overflow) = accumulate_chunk_implicit(&head, cc, &w, &config);
        prop_assert_eq!(head_overflow, head_expected);

        // Fast-path soundness: a chunk the bound proves safe must show zero
        // events under the always-checking reference.
        if chunk_cannot_overflow(cc, w.bits(), &config) {
            prop_assert_eq!(head_expected, 0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Shapes straddling the pool's dispatch threshold, with bit widths
    /// forcing the *checked* path: the pooled (4-thread) kernel's count must
    /// equal the serial naive reference exactly.
    #[test]
    fn pooled_overflow_count_matches_reference_across_threshold(
        rows in 200_usize..280,
        chans in 48_usize..64,
        n in 96_usize..144,
        seed in any::<u64>(),
    ) {
        init_pool();
        let mut rng = DetRng::new(seed);
        let x = overflow_prone_activation(&mut rng, rows, chans);
        let wf = rng.normal_matrix(chans, n, 0.0, 0.5);
        // 16-bit activations × 26-bit weights: single MACs can leave i32
        // range, so every chunk takes the per-step-checked path.
        let config = TenderConfig {
            bits: 16,
            num_groups: 2,
            alpha: 2,
            row_chunk: 64, // rows % 64 != 0 for most draws: edge chunks too
            quant_act_act: false,
            subtract_bias: true,
        };
        let calib = TenderCalibration::from_samples(std::slice::from_ref(&x), &config);
        let w = QuantizedWeight::per_col(&wf, 26);
        prop_assert!(!chunk_cannot_overflow(calib.chunk_for_row(0), w.bits(), &config));

        let expected = naive_overflow(&x, &calib, &w, &config);
        let stats = implicit_requant_matmul(&x, &w, &calib, &config);
        prop_assert_eq!(stats.overflow_events, expected);
        prop_assert!(stats.overflow_events > 0, "bit widths chosen to overflow");
    }
}
