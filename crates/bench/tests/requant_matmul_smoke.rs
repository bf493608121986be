//! Speed tripwire for the implicit Tender kernel: at the model's FC1 shape
//! (256×1024) a decode row and a 160-row prefill chunk must not be slower
//! than the explicit (dequantize-per-group) kernel, nor than 1.5× the plain
//! `i32` GEMM of the same shape — the implicit path is the paper's *cheap*
//! integer pipeline, so losing to either means its 32-bit-accumulator
//! kernel has regressed.
//!
//! Implicit against explicit is timed free function against free function:
//! both build the same per-call `bias · W_deq` row (K·N f32 MACs), so the
//! comparison stays like-for-like. Against the plain GEMM the implicit
//! kernel is timed through its calibrated operator (`Scheme::prepare`, bias
//! rows built once), the form the model runs.
//!
//! Timing is min-of-N over interleaved runs (min is robust to scheduler
//! noise; interleaving cancels drift) and only asserted in optimized
//! builds. Debug runs still check that the operator, the free function and
//! the explicit kernel agree, keeping the test meaningful under plain
//! `cargo test`.

use std::time::{Duration, Instant};

use tender_quant::tender::{
    explicit_requant_matmul, implicit_requant_matmul, QuantizedWeight, TenderCalibration,
    TenderConfig, TenderScheme,
};
use tender_quant::Scheme;
use tender_tensor::rng::DetRng;
use tender_tensor::IMatrix;

/// One timing sample of `f`, folded into the running minimum.
fn sample<R>(best: &mut Duration, mut f: impl FnMut() -> R) {
    let t0 = Instant::now();
    std::hint::black_box(f());
    *best = (*best).min(t0.elapsed());
}

#[test]
fn implicit_kernel_keeps_up_with_explicit_and_plain_i32() {
    let (k, n) = (256, 1024);
    for (label, config) in [
        ("INT8/G4", TenderConfig::int8().with_row_chunk(0)),
        ("INT4/G12", TenderConfig::int4().with_row_chunk(0)),
    ] {
        // One 160-row calibration sample; the decode case runs its first row.
        let mut rng = DetRng::new(17);
        let mut sample_x = rng.normal_matrix(160, k, 0.0, 0.5);
        for r in 0..160 {
            sample_x[(r, k / 2)] = rng.normal(0.0, 25.0);
        }
        let wf = rng.normal_matrix(k, n, 0.0, 0.2);
        let calib = TenderCalibration::from_samples(std::slice::from_ref(&sample_x), &config);
        let w = QuantizedWeight::per_col(&wf, config.bits);
        let op = TenderScheme::new(config.clone()).prepare(std::slice::from_ref(&sample_x), &wf);
        let ib = IMatrix::from_fn(k, n, |_, _| rng.below(255) as i32 - 127);
        for m in [1_usize, 160] {
            let x = sample_x.slice_rows(0, m);
            let ia = IMatrix::from_fn(m, k, |_, _| rng.below(255) as i32 - 127);

            // Identity first: a fast wrong kernel must fail here, not get
            // timed. The operator (prepare-time bias rows) shares every bit
            // with its free function (rows built per call); the implicit
            // and explicit paths agree up to f32 rounding.
            let implicit = implicit_requant_matmul(&x, &w, &calib, &config);
            assert_eq!(implicit.overflow_events, 0, "{label} m={m}");
            assert_eq!(
                op.forward(&x).as_slice(),
                implicit.result.as_slice(),
                "{label} m={m}: implicit operator and free function disagree"
            );
            let explicit = explicit_requant_matmul(&x, &w, &calib, &config).result;
            let tol = implicit.result.abs_max().max(1.0) * 1e-4;
            assert!(
                implicit.result.approx_eq(&explicit, tol),
                "{label} m={m}: implicit and explicit diverged beyond f32 rounding"
            );

            if cfg!(debug_assertions) {
                continue;
            }
            let iters = if m == 1 { 200 } else { 7 };
            let mut t = [Duration::MAX; 4];
            for _ in 0..iters {
                sample(&mut t[0], || {
                    implicit_requant_matmul(&x, &w, &calib, &config)
                });
                sample(&mut t[1], || {
                    explicit_requant_matmul(&x, &w, &calib, &config)
                });
                sample(&mut t[2], || op.forward(&x));
                sample(&mut t[3], || ia.matmul(&ib).expect("shapes"));
            }
            let [imp, exp, imp_op, i32_gemm] = t.map(|d| d.as_secs_f64() * 1e6);
            eprintln!(
                "{label} {m}x{k}x{n}: implicit {imp:.1} us, explicit {exp:.1} us, \
                 implicit operator {imp_op:.1} us, i32 gemm {i32_gemm:.1} us"
            );
            assert!(
                imp <= exp,
                "{label} m={m}: implicit {imp:.1} us is slower than explicit {exp:.1} us"
            );
            assert!(
                imp_op <= 1.5 * i32_gemm,
                "{label} m={m}: implicit operator {imp_op:.1} us exceeds 1.5x the \
                 i32 GEMM {i32_gemm:.1} us"
            );
        }
    }
    if cfg!(debug_assertions) {
        eprintln!("debug build: identity checked, timing assertions skipped");
    }
}
