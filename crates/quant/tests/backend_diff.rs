//! Cross-backend differential tests at the quantized-kernel level: the
//! Tender kernels must be **byte-identical** under `Blocked` and
//! `Reference` — same `i64` accumulators, same `f32` output bits, *and* the
//! same overflow/saturation event counts — for arbitrary shapes, bit widths,
//! group counts, and chunk-edge configurations.
//!
//! Only the explicit (dequantize-per-group) kernel still has a blocked twin:
//! its `f32` chains are order-sensitive, so the blocked tile walk has to
//! replay the reference chain per element, and it quantizes each (row,
//! channel) activation exactly once into a panel buffer so `saturated`
//! events are counted once per value, exactly like the reference. The
//! implicit kernel is integer — exact and order-free under its overflow
//! bound, per-step `i64` loop otherwise — and backend-independent; the
//! backend argument only labels its tile counters, and the implicit
//! assertions below pin that it stays unobservable in the results.
//!
//! These tests use the metrics-free `*_with` entry points, which *return*
//! their counts instead of recording them, so concurrent test binaries
//! cannot race on the global counters.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use tender_quant::tender::{
    accumulate_chunk_implicit_with, chunk_cannot_overflow, explicit_chunk_with,
    explicit_requant_matmul_with, implicit_requant_matmul_with, QuantizedWeight, TenderCalibration,
    TenderConfig,
};
use tender_tensor::gemm::BackendKind;
use tender_tensor::pool;
use tender_tensor::rng::DetRng;
use tender_tensor::Matrix;

/// Pins the global pool to 4 threads before its first use in this binary.
fn init_pool() {
    static INIT: std::sync::Once = std::sync::Once::new();
    INIT.call_once(|| pool::set_threads(4));
}

/// An activation with one heavy outlier column, so group scales spread,
/// saturation occurs, and (at high bit widths) accumulators overflow.
fn overflow_prone_activation(rng: &mut DetRng, rows: usize, cols: usize) -> Matrix {
    let mut x = rng.normal_matrix(rows, cols, 0.0, 1.0);
    for r in 0..rows {
        x[(r, 0)] = rng.normal(0.0, 30.0);
    }
    x
}

/// Asserts bit-equality of two f32 slices with positional context.
fn assert_bits_eq(reference: &[f32], blocked: &[f32], what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(reference.len(), blocked.len());
    for (i, (a, b)) in reference.iter().zip(blocked).enumerate() {
        prop_assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{} diverges at flat index {} ({} vs {})",
            what,
            i,
            a,
            b
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Implicit + explicit Tender paths: Blocked == Reference on outputs,
    /// accumulators, and overflow/saturation counters, across arbitrary
    /// bits / group counts / chunk edges (including the check-free fast
    /// path and the per-step-checked path).
    #[test]
    fn tender_backends_bit_identical(
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

        // Full implicit matmul: result bits + overflow totals.
        let r = implicit_requant_matmul_with(&x, &w, &calib, &config, BackendKind::Reference);
        let b = implicit_requant_matmul_with(&x, &w, &calib, &config, BackendKind::Blocked);
        assert_bits_eq(r.result.as_slice(), b.result.as_slice(), "implicit result")?;
        prop_assert_eq!(r.overflow_events, b.overflow_events);
        prop_assert_eq!(r.chunks_processed, b.chunks_processed);

        // Full explicit matmul: result bits + overflow totals.
        let r = explicit_requant_matmul_with(&x, &w, &calib, &config, BackendKind::Reference);
        let b = explicit_requant_matmul_with(&x, &w, &calib, &config, BackendKind::Blocked);
        assert_bits_eq(r.result.as_slice(), b.result.as_slice(), "explicit result")?;
        prop_assert_eq!(r.overflow_events, b.overflow_events);

        // Chunk level: i64 accumulators and both event counters must match
        // exactly, whichever of the fast/checked paths the bound selects.
        let cc = calib.chunk_for_row(0);
        let m = calib.chunk_rows().min(x.rows());
        let head = x.slice_rows(0, m);
        let (acc_r, ovf_r, sat_r) =
            accumulate_chunk_implicit_with(&head, cc, &w, &config, BackendKind::Reference);
        let (acc_b, ovf_b, sat_b) =
            accumulate_chunk_implicit_with(&head, cc, &w, &config, BackendKind::Blocked);
        prop_assert_eq!(acc_r, acc_b, "implicit i64 accumulators");
        prop_assert_eq!(ovf_r, ovf_b, "implicit overflow count");
        prop_assert_eq!(sat_r, sat_b, "implicit saturation count");
        if chunk_cannot_overflow(cc, w.bits(), &config) {
            prop_assert_eq!(ovf_r, 0);
        }

        // Explicit chunk kernel: f32 output bits + saturation counts.
        let mut out_r = vec![0.0_f32; m * n];
        let mut out_b = vec![0.0_f32; m * n];
        let sat_r = explicit_chunk_with(&head, cc, &w, &config, &mut out_r, BackendKind::Reference);
        let sat_b = explicit_chunk_with(&head, cc, &w, &config, &mut out_b, BackendKind::Blocked);
        assert_bits_eq(&out_r, &out_b, "explicit chunk")?;
        prop_assert_eq!(sat_r, sat_b, "explicit saturation count");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Shapes straddling the pool's dispatch threshold with bit widths
    /// forcing the per-step-checked path: the pooled (4-thread) Blocked
    /// kernel must match pooled Reference on every output bit and on the
    /// (nonzero) overflow total.
    #[test]
    fn tender_backends_bit_identical_pooled_checked_path(
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
            row_chunk: 64,
            quant_act_act: false,
            subtract_bias: true,
        };
        let calib = TenderCalibration::from_samples(std::slice::from_ref(&x), &config);
        let w = QuantizedWeight::per_col(&wf, 26);
        prop_assert!(!chunk_cannot_overflow(calib.chunk_for_row(0), w.bits(), &config));

        let r = implicit_requant_matmul_with(&x, &w, &calib, &config, BackendKind::Reference);
        let b = implicit_requant_matmul_with(&x, &w, &calib, &config, BackendKind::Blocked);
        assert_bits_eq(r.result.as_slice(), b.result.as_slice(), "implicit result")?;
        prop_assert_eq!(r.overflow_events, b.overflow_events);
        prop_assert!(r.overflow_events > 0, "bit widths chosen to overflow");

        let r = explicit_requant_matmul_with(&x, &w, &calib, &config, BackendKind::Reference);
        let b = explicit_requant_matmul_with(&x, &w, &calib, &config, BackendKind::Blocked);
        assert_bits_eq(r.result.as_slice(), b.result.as_slice(), "explicit result")?;
    }
}
