//! Kernel-level benchmarks of the quantization primitives: per-granularity
//! fake quantization, Tender calibration (bias + CMax scan + power-of-2
//! classification), and the `runtime_quantize` group — the ruler for what
//! surrounds the integer kernels while a model runs:
//!
//! * `runtime_quantize/tender_{scalar,row}/{k}x{m}` — `m` activation rows of
//!   `k` channels against per-channel bias and scale rows, through the
//!   scalar definition (`quantize_value_saturating` per element) and through
//!   the runtime row quantizer (`quantize_row`). Same inputs, same codes;
//!   `tests/runtime_quantize_smoke.rs` holds the ratio at k = 1024.
//! * `runtime_quantize/act_{scalar,row}/{n}` — one uniformly scaled row of
//!   `n` values at 8 bits: a query row (16) and a probability row (224) of
//!   the integer KV read.
//! * `runtime_quantize/kv_append_{int8,int4}/{rows}` — one `KvCache::append`
//!   of `rows` positions into layer 0: a decode step's row into a warm
//!   cache (1), a prompt into a fresh one (160).
//!
//! CI runs this with `BENCH_SNAPSHOT=BENCH_quantize.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tender_model::engine::{KvCache, KvCacheMode};
use tender_model::ModelShape;
use tender_quant::granularity::{fake_quantize_per_row, fake_quantize_weight_per_col};
use tender_quant::quantizer::{
    fake_quantize, quantize_row, quantize_value_saturating, symmetric_scale,
};
use tender_quant::tender::{ChunkCalibration, TenderConfig};
use tender_tensor::rng::DetRng;
use tender_tensor::Matrix;

fn outlier_activation(rows: usize, cols: usize) -> Matrix {
    let mut rng = DetRng::new(11);
    let mut x = rng.normal_matrix(rows, cols, 0.0, 0.5);
    for r in 0..rows {
        x[(r, cols / 3)] = rng.normal(0.0, 30.0);
        x[(r, (2 * cols) / 3)] = rng.normal(0.0, 18.0);
    }
    x
}

fn bench_fake_quantize(c: &mut Criterion) {
    let mut group = c.benchmark_group("fake_quantize");
    for &n in &[64_usize, 256] {
        let x = outlier_activation(n, n);
        let scale = symmetric_scale(x.abs_max(), 8);
        group.bench_with_input(BenchmarkId::new("per_tensor", n), &x, |b, x| {
            b.iter(|| black_box(fake_quantize(x, scale, 8)))
        });
        group.bench_with_input(BenchmarkId::new("per_row", n), &x, |b, x| {
            b.iter(|| black_box(fake_quantize_per_row(x, 8)))
        });
        group.bench_with_input(BenchmarkId::new("weight_per_col", n), &x, |b, x| {
            b.iter(|| black_box(fake_quantize_weight_per_col(x, 8)))
        });
    }
    group.finish();
}

fn bench_tender_calibration(c: &mut Criterion) {
    let mut group = c.benchmark_group("tender_calibration");
    for &n in &[64_usize, 256] {
        let x = outlier_activation(n, n);
        let config = TenderConfig::int4().with_row_chunk(0);
        group.bench_with_input(BenchmarkId::new("chunk_calibration", n), &x, |b, x| {
            b.iter(|| black_box(ChunkCalibration::from_activation(x, &config)))
        });
    }
    group.finish();
}

/// The scalar definition over one row: what the runtime quantizer replaced.
fn scalar_row(x: &[f32], bias: &[f32], scale: &[f32], bits: u32, out: &mut [i32]) -> usize {
    let mut saturated = 0;
    for (((o, &x), &b), &s) in out.iter_mut().zip(x).zip(bias).zip(scale) {
        let (q, sat) = quantize_value_saturating(x - b, s, bits);
        *o = q;
        saturated += sat as usize;
    }
    saturated
}

fn bench_runtime_quantize(c: &mut Criterion) {
    let mut group = c.benchmark_group("runtime_quantize");
    let bits = 4;
    for &(k, m) in &[(256_usize, 1_usize), (256, 160), (1024, 1), (1024, 160)] {
        let x = outlier_activation(m, k);
        let cc = ChunkCalibration::from_activation(&x, &TenderConfig::int4().with_row_chunk(0));
        let scale: Vec<f32> = cc.group_of.iter().map(|&g| cc.scales[g]).collect();
        let mut codes = vec![0_i32; k];
        let id = format!("{k}x{m}");
        group.bench_with_input(BenchmarkId::new("tender_scalar", &id), &x, |b, x| {
            b.iter(|| {
                let mut saturated = 0;
                for r in 0..m {
                    saturated += scalar_row(x.row(r), &cc.bias, &scale, bits, &mut codes);
                }
                black_box((saturated, codes[k - 1]))
            })
        });
        group.bench_with_input(BenchmarkId::new("tender_row", &id), &x, |b, x| {
            b.iter(|| {
                let mut saturated = 0;
                for r in 0..m {
                    saturated += quantize_row(x.row(r), &cc.bias[..], &scale[..], bits, &mut codes);
                }
                black_box((saturated, codes[k - 1]))
            })
        });
    }
    for &n in &[16_usize, 224] {
        let xs: Vec<f32> = (0..n)
            .map(|i| ((i * 7 + 3) % 11) as f32 / n as f32)
            .collect();
        let scale = symmetric_scale(xs.iter().fold(0.0, |m: f32, x| m.max(x.abs())), 8);
        let mut codes = vec![0_i32; n];
        group.bench_with_input(BenchmarkId::new("act_scalar", n), &xs, |b, xs| {
            b.iter(|| {
                for (o, &x) in codes.iter_mut().zip(xs) {
                    *o = quantize_value_saturating(x, scale, 8).0;
                }
                black_box(codes[n - 1])
            })
        });
        group.bench_with_input(BenchmarkId::new("act_row", n), &xs, |b, xs| {
            b.iter(|| black_box(quantize_row(xs, 0.0, scale, 8, &mut codes) as i32 + codes[n - 1]))
        });
    }
    let mut shape = ModelShape::tiny_test();
    shape.d_model = 128;
    shape.heads = 8; // head_dim 16, as on every benchmark workload
    let kv = outlier_activation(160, shape.d_model);
    for mode in [KvCacheMode::Int8, KvCacheMode::Int4] {
        let name = format!("kv_append_{}", mode.label());
        // A decode step's append: one row into a cache that already holds
        // the prompt (its pages open and its bias fixed).
        let mut warm = KvCache::with_mode(&shape, mode);
        warm.append(0, &kv, &kv).expect("uncapped arena");
        let row = kv.slice_rows(7, 8);
        group.bench_with_input(BenchmarkId::new(&name, 1), &row, |b, row| {
            b.iter(|| warm.append(0, row, row).expect("uncapped arena"))
        });
        // A prompt's append: 160 rows into a fresh cache.
        group.bench_with_input(BenchmarkId::new(&name, 160), &kv, |b, kv| {
            b.iter(|| {
                let mut cache = KvCache::with_mode(&shape, mode);
                cache.append(0, kv, kv).expect("uncapped arena");
                black_box(cache.len())
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_fake_quantize,
    bench_tender_calibration,
    bench_runtime_quantize
);
criterion_main!(benches);
