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
//! Those rows time one operand in a loop, so it is *hot*. A decode step does
//! not work that way: it walks the model's 24 distinct weight operands
//! (12 MB as f32, 6 MiB as `i16` codes; L2 is 2 MiB), so every product
//! streams its operand from memory. `gemm_shapes/cycle24_{f32,i16}/m{M}` time
//! one pass over all 24 operands of the benchmark model (4 layers ×
//! [four 256×256, 256×1024, 1024×256 with a ReLU-sparse left operand])
//! with `M` activation rows, through `Matrix::matmul_packed` over weights
//! packed once (the product the reference model's weight sites run) and
//! through `narrow_dot_block` (the licensed Tender kernel), per pass. `m1 × B / mB`
//! — printed at the end — is what stacking the decode rows of `B` sessions
//! into one product per site saves on the weight products, and the ruler a
//! row-tiled kernel would be judged on.
//!
//! Snapshot: `BENCH_SNAPSHOT=BENCH_gemm.json cargo bench --bench gemm_shapes`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Instant;
use tender_tensor::gemm::narrow_dot_block;
use tender_tensor::rng::DetRng;
use tender_tensor::{IMatrix, Matrix, PackedF32};

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

/// The benchmark model's weight sites, `(k, n)`, in the order a layer's
/// step visits them: Q, K, V, out-proj, FC1, FC2.
const LAYER_SITES: [(usize, usize); 6] = [
    (256, 256),
    (256, 256),
    (256, 256),
    (256, 256),
    (256, 1024),
    (1024, 256),
];
const LAYERS: usize = 4;
const STACKS: [usize; 4] = [1, 2, 4, 8];

fn bench_cycle24(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm_shapes");
    let mut rng = DetRng::new(13);
    let sites: Vec<(usize, usize)> = (0..LAYERS).flat_map(|_| LAYER_SITES).collect();
    let f32_weights: Vec<PackedF32> = sites
        .iter()
        .map(|&(k, n)| PackedF32::pack(&rng.normal_matrix(k, n, 0.0, 1.0)))
        .collect();
    // Transposed (`n × k`) INT8 weight codes, as `QuantizedWeight` packs them.
    let i16_weights: Vec<Vec<i16>> = sites
        .iter()
        .map(|&(k, n)| (0..k * n).map(|_| rng.below(255) as i16 - 127).collect())
        .collect();
    // Fastest pass of each arm, ns, for the ratios printed at the end.
    let mut fastest = [[f64::INFINITY; STACKS.len()]; 2];
    for (mi, &m) in STACKS.iter().enumerate() {
        // One left operand per input width; FC2's (k = 1024) is post-ReLU.
        // Codes are INT8 × the largest group weight, as Tender@8 feeds them.
        let dense = rng.normal_matrix(m, 256, 0.0, 1.0);
        let relu = rng.normal_matrix(m, 1024, 0.0, 1.0).map(|v| v.max(0.0));
        let code = |v: f32| (v.clamp(-2.0, 2.0) * 508.0) as i16;
        let (dense_codes, relu_codes) = (dense.map_into(code), relu.map_into(code));
        let mut out = vec![0.0_f32; m * 1024];

        group.bench_function(BenchmarkId::new("cycle24_f32", format!("m{m}")), |bch| {
            bch.iter(|| {
                let t = Instant::now();
                for (w, &(k, _)) in f32_weights.iter().zip(&sites) {
                    let a = if k == 256 { &dense } else { &relu };
                    black_box(a.matmul_packed(w).expect("shapes"));
                }
                fastest[0][mi] = fastest[0][mi].min(t.elapsed().as_nanos() as f64);
            })
        });
        group.bench_function(BenchmarkId::new("cycle24_i16", format!("m{m}")), |bch| {
            bch.iter(|| {
                let t = Instant::now();
                for (bt, &(k, n)) in i16_weights.iter().zip(&sites) {
                    let a = if k == 256 { &dense_codes } else { &relu_codes };
                    narrow_dot_block(a.as_slice(), bt, k, n, &mut out[..m * n], |_, acc| {
                        acc as f32
                    });
                    black_box(&mut out);
                }
                fastest[1][mi] = fastest[1][mi].min(t.elapsed().as_nanos() as f64);
            })
        });
    }
    group.finish();
    for (arm, row) in ["cycle24_f32", "cycle24_i16"].iter().zip(fastest) {
        let ratios: Vec<String> = STACKS[1..]
            .iter()
            .zip(&row[1..])
            .map(|(&b, &stacked)| format!("B={b} {:.2}", row[0] * b as f64 / stacked))
            .collect();
        println!(
            "gemm_shapes/{arm}: m1 × B / mB (fastest pass) {}",
            ratios.join("  ")
        );
    }
}

criterion_group!(benches, bench_shapes, bench_cycle24);
criterion_main!(benches);
