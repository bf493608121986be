//! Property-based tests for the core Tender invariants, spanning
//! `tender-quant`, `tender-sim`, and `tender-tensor`.

use proptest::prelude::*;
use tender_quant::quantizer::{dequantize, quantize_value, symmetric_scale};
use tender_quant::tender::{
    accumulate_chunk_explicit_shifted, accumulate_chunk_implicit, classify_channels, group_scales,
    quantized_group_operands, QuantizedWeight, TenderCalibration, TenderConfig,
};
use tender_sim::config::TenderHwConfig;
use tender_sim::msa::{GroupOperand, MultiScaleSystolicArray};
use tender_tensor::rng::DetRng;
use tender_tensor::Matrix;

/// Strategy: a small random activation with an optional outlier channel.
fn activation(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    (any::<u64>(), 0.0_f32..50.0).prop_map(move |(seed, outlier_mag)| {
        let mut rng = DetRng::new(seed);
        let mut x = rng.normal_matrix(rows, cols, 0.0, 1.0);
        if cols > 2 && outlier_mag > 1.0 {
            for r in 0..rows {
                x[(r, 2)] = rng.normal(0.0, outlier_mag);
            }
        }
        x
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Eq. 2 == Eq. 1 in exact integer arithmetic, for arbitrary inputs,
    /// bit widths, and group counts.
    #[test]
    fn implicit_equals_explicit_for_random_inputs(
        x in activation(6, 10),
        seed in any::<u64>(),
        bits in 3_u32..9,
        groups in 1_usize..7,
    ) {
        let mut rng = DetRng::new(seed);
        let wf = rng.normal_matrix(10, 4, 0.0, 0.5);
        let config = TenderConfig { bits, num_groups: groups, alpha: 2, row_chunk: 0, quant_act_act: false, subtract_bias: true };
        let calib = TenderCalibration::from_samples(std::slice::from_ref(&x), &config);
        let w = QuantizedWeight::per_col(&wf, bits);
        let cc = calib.chunk_for_row(0);
        // Overflow counts are path-specific (the two paths mutate the
        // accumulator in different orders), so only the results must match.
        let (implicit, _) = accumulate_chunk_implicit(&x, cc, &w, &config);
        let (explicit, _) = accumulate_chunk_explicit_shifted(&x, cc, &w, &config);
        prop_assert_eq!(implicit, explicit);
    }

    /// The functional systolic array is bit-exact with the algorithmic
    /// reference for arbitrary inputs.
    #[test]
    fn msa_matches_reference_for_random_inputs(
        x in activation(5, 8),
        seed in any::<u64>(),
        groups in 1_usize..5,
    ) {
        let mut rng = DetRng::new(seed);
        let wf = rng.normal_matrix(8, 6, 0.0, 0.5);
        let config = TenderConfig { bits: 8, num_groups: groups, alpha: 2, row_chunk: 0, quant_act_act: false, subtract_bias: true };
        let calib = TenderCalibration::from_samples(std::slice::from_ref(&x), &config);
        let w = QuantizedWeight::per_col(&wf, 8);
        let cc = calib.chunk_for_row(0);
        let (reference, _) = accumulate_chunk_implicit(&x, cc, &w, &config);
        let operands: Vec<GroupOperand> = quantized_group_operands(&x, cc, &w, &config)
            .into_iter()
            .map(|(a, b)| GroupOperand::new(a, b))
            .collect();
        let msa = MultiScaleSystolicArray::new(&TenderHwConfig::small_test(8));
        let res = msa.run_groups(&operands, 2);
        prop_assert_eq!(res.outputs, reference);
    }

    /// Every channel is assigned to exactly one group, and thresholds hold:
    /// a channel in group g has CMax ≤ TMax/α^g (and > TMax/α^(g+1) unless
    /// it sits in the final catch-all group).
    #[test]
    fn classification_respects_thresholds(
        cmax in proptest::collection::vec(0.0_f32..100.0, 1..40),
        groups in 1_usize..9,
    ) {
        let tmax = cmax.iter().fold(0.0_f32, |a, &b| a.max(b));
        prop_assume!(tmax > 0.0);
        let assigned = classify_channels(&cmax, tmax, groups, 2).expect("valid");
        prop_assert_eq!(assigned.len(), cmax.len());
        for (i, &g) in assigned.iter().enumerate() {
            prop_assert!(g < groups);
            let upper = tmax / 2.0_f32.powi(g as i32);
            prop_assert!(cmax[i] <= upper * 1.0001, "ch {i}: {} > {}", cmax[i], upper);
            if g + 1 < groups {
                let lower = tmax / 2.0_f32.powi(g as i32 + 1);
                prop_assert!(cmax[i] > lower * 0.9999, "ch {i}: {} <= {}", cmax[i], lower);
            }
        }
    }

    /// Group scales are positive and exactly a factor α apart.
    #[test]
    fn group_scales_are_powers_apart(
        tmax in 0.001_f32..1000.0,
        groups in 1_usize..9,
        bits in 3_u32..9,
    ) {
        let scales = group_scales(tmax, groups, 2, bits);
        prop_assert_eq!(scales.len(), groups);
        for w in scales.windows(2) {
            prop_assert!((w[0] / w[1] - 2.0).abs() < 1e-4);
        }
        prop_assert!(scales.iter().all(|&s| s > 0.0));
    }

    /// Quantize→dequantize error is bounded by half the scale whenever the
    /// value is within range.
    #[test]
    fn round_trip_error_bound(
        x in -100.0_f32..100.0,
        absmax in 0.1_f32..200.0,
        bits in 2_u32..9,
    ) {
        prop_assume!(x.abs() <= absmax);
        let s = symmetric_scale(absmax, bits);
        let err = (dequantize(quantize_value(x, s, bits), s) - x).abs();
        prop_assert!(err <= s / 2.0 + absmax * 1e-5, "err {err} vs scale {s}");
    }

    /// Out-of-range values clamp to the representable extreme.
    #[test]
    fn clamping_saturates(
        x in 200.0_f32..1e6,
        bits in 2_u32..9,
    ) {
        let s = symmetric_scale(100.0, bits);
        let k = tender_quant::qmax(bits);
        prop_assert_eq!(quantize_value(x, s, bits), k);
        prop_assert_eq!(quantize_value(-x, s, bits), -k);
    }

    /// The full implicit-requant matmul result is finite and close to the
    /// float product at INT8 (bounded relative error).
    #[test]
    fn implicit_matmul_is_accurate_at_int8(
        x in activation(8, 12),
        seed in any::<u64>(),
    ) {
        let mut rng = DetRng::new(seed);
        let wf = rng.normal_matrix(12, 4, 0.0, 0.5);
        let config = TenderConfig::int8().with_row_chunk(4);
        let calib = TenderCalibration::from_samples(std::slice::from_ref(&x), &config);
        let w = QuantizedWeight::per_col(&wf, 8);
        let got = tender_quant::tender::implicit_requant_matmul(&x, &w, &calib, &config);
        prop_assert!(got.result.is_finite());
        prop_assert_eq!(got.overflow_events, 0);
        let exact = x.matmul(&w.dequantized()).expect("shapes");
        let scale = exact.abs_max().max(1.0);
        prop_assert!(got.result.approx_eq(&exact, scale * 0.05));
    }
}
