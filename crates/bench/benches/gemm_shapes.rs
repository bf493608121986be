//! The GEMM kernels at the products the engine actually issues.
//!
//! `Matrix::matmul` (f32) and `IMatrix::matmul` (i32) at M ∈ {1, 4, 16, 160}
//! — a decode row, small decode batches, a prefill chunk — against the
//! QKV/out-proj (256→1024), FC2 (1024→256) and 256→512 weight shapes of the
//! benchmark models, each with a dense left operand and a ReLU-sparse one
//! (negatives zeroed, ≈ 50 % exact zeros): every OPT FC2 site multiplies
//! post-ReLU activations, and the kernels' zero-skip makes that a different
//! workload from a dense Gaussian. A proposal for a new kernel is judged on
//! these operands, not on dense squares.
//!
//! Snapshot: `BENCH_SNAPSHOT=BENCH_gemm.json cargo bench --bench gemm_shapes`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tender_tensor::rng::DetRng;
use tender_tensor::{IMatrix, Matrix};

fn bench_shapes(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm_shapes");
    let mut rng = DetRng::new(11);
    for (k, n) in [(256_usize, 1024_usize), (1024, 256), (256, 512)] {
        let b = rng.normal_matrix(k, n, 0.0, 1.0);
        let ib = IMatrix::from_fn(k, n, |_, _| rng.below(255) as i32 - 127);
        for m in [1_usize, 4, 16, 160] {
            let dense = rng.normal_matrix(m, k, 0.0, 1.0);
            let idense = IMatrix::from_fn(m, k, |_, _| rng.below(255) as i32 - 127);
            let relu = Matrix::from_fn(m, k, |r, c| dense[(r, c)].max(0.0));
            let irelu = IMatrix::from_fn(m, k, |r, c| idense[(r, c)].max(0));
            let shape = format!("{m}x{k}x{n}");
            for (name, a) in [("f32_dense", &dense), ("f32_relu", &relu)] {
                group.bench_function(BenchmarkId::new(name, &shape), |bch| {
                    bch.iter(|| black_box(a.matmul(&b).expect("shapes")))
                });
            }
            for (name, a) in [("i32_dense", &idense), ("i32_relu", &irelu)] {
                group.bench_function(BenchmarkId::new(name, &shape), |bch| {
                    bch.iter(|| black_box(a.matmul(&ib).expect("shapes")))
                });
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench_shapes);
criterion_main!(benches);
