//! Implicit vs explicit requantization kernel cost — the software-side
//! analogue of Figure 13 (the hardware-side version is in `tender-sim`) —
//! plus the model-scale FC1 shapes (decode row and prefill chunk against a
//! 256×1024 weight) next to the plain `i32` GEMM of the same shape.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tender_quant::tender::{
    explicit_requant_matmul, implicit_requant_matmul, QuantizedWeight, TenderCalibration,
    TenderConfig,
};
use tender_tensor::rng::DetRng;
use tender_tensor::{IMatrix, Matrix};

/// An `m × k` activation with one outlier channel against a `k × n` weight,
/// calibrated on itself as a single chunk.
fn setup(
    m: usize,
    k: usize,
    n: usize,
    config: TenderConfig,
) -> (Matrix, QuantizedWeight, TenderCalibration, TenderConfig) {
    let mut rng = DetRng::new(3);
    let mut x = rng.normal_matrix(m, k, 0.0, 0.5);
    for r in 0..m {
        x[(r, k / 2)] = rng.normal(0.0, 25.0);
    }
    let wf = rng.normal_matrix(k, n, 0.0, 0.2);
    let config = config.with_row_chunk(0);
    let calib = TenderCalibration::from_samples(std::slice::from_ref(&x), &config);
    let w = QuantizedWeight::per_col(&wf, config.bits);
    (x, w, calib, config)
}

fn bench_requant_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("requant_matmul");
    for &groups in &[4_usize, 16] {
        let (x, w, calib, config) = setup(128, 128, 128, TenderConfig::int8().with_groups(groups));
        group.bench_with_input(
            BenchmarkId::new("implicit", groups),
            &(&x, &w, &calib, &config),
            |b, (x, w, calib, config)| {
                b.iter(|| black_box(implicit_requant_matmul(x, w, calib, config)))
            },
        );
        group.bench_with_input(
            BenchmarkId::new("explicit", groups),
            &(&x, &w, &calib, &config),
            |b, (x, w, calib, config)| {
                b.iter(|| black_box(explicit_requant_matmul(x, w, calib, config)))
            },
        );
    }
    // Float reference for context.
    let (x, w, _, _) = setup(128, 128, 128, TenderConfig::int8());
    group.bench_function("f32_reference", |b| {
        b.iter(|| black_box(x.matmul(w.dequantized()).expect("shapes")))
    });
    group.finish();
}

fn bench_model_shapes(c: &mut Criterion) {
    let mut group = c.benchmark_group("requant_matmul_fc1");
    let (k, n) = (256, 1024);
    for (label, config) in [
        ("int8g4", TenderConfig::int8()),
        ("int4g12", TenderConfig::int4()),
    ] {
        // Calibrated on the 160-row prefill chunk; the decode case runs its
        // first row.
        let (sample, w, calib, config) = setup(160, k, n, config);
        for m in [1_usize, 160] {
            let x = sample.slice_rows(0, m);
            let id = format!("{label}/m{m}");
            group.bench_function(BenchmarkId::new("implicit", &id), |b| {
                b.iter(|| black_box(implicit_requant_matmul(&x, &w, &calib, &config)))
            });
            group.bench_function(BenchmarkId::new("explicit", &id), |b| {
                b.iter(|| black_box(explicit_requant_matmul(&x, &w, &calib, &config)))
            });
        }
    }
    // The plain i32 product of the same shapes, for context.
    let mut rng = DetRng::new(5);
    let ib = IMatrix::from_fn(k, n, |_, _| rng.below(255) as i32 - 127);
    for m in [1_usize, 160] {
        let ia = IMatrix::from_fn(m, k, |_, _| rng.below(255) as i32 - 127);
        group.bench_function(BenchmarkId::new("i32_gemm", format!("m{m}")), |b| {
            b.iter(|| black_box(ia.matmul(&ib).expect("shapes")))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_requant_paths, bench_model_shapes);
criterion_main!(benches);
