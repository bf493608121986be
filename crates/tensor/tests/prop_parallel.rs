//! Deterministic-parallelism property tests: every pooled matmul kernel must
//! be **bit-identical** to a naive triple-loop reference, for arbitrary
//! shapes on both sides of `pool::PAR_THRESHOLD`.
//!
//! The shape ranges are chosen so the `rows * inner * cols` work estimate
//! straddles the threshold across cases: some products take the serial path,
//! some the pooled path, and both must agree with the definition exactly.
//!
//! Bitwise equality holds because the kernels only *partition* rows across
//! threads: within one output element the accumulation order is `k`
//! ascending in both the reference and the (serial or pooled) kernel, and
//! the kernels' zero-skip cannot flip a sign bit for finite inputs (a `+0.0`
//! accumulator never becomes `-0.0` by adding signed-zero products under
//! round-to-nearest).

use proptest::prelude::*;
use tender_tensor::pool::PAR_THRESHOLD;
use tender_tensor::rng::DetRng;
use tender_tensor::{IMatrix, Matrix};

/// Definition-order (i, j, k-ascending) f32 reference.
fn naive_f32(a: &Matrix, b: &Matrix) -> Matrix {
    let (rows, inner) = a.shape();
    let cols = b.shape().1;
    Matrix::from_fn(rows, cols, |r, c| {
        let mut acc = 0.0_f32;
        for k in 0..inner {
            acc += a[(r, k)] * b[(k, c)];
        }
        acc
    })
}

/// Definition-order i32 reference.
fn naive_i32(a: &IMatrix, b: &IMatrix) -> IMatrix {
    let (rows, inner) = a.shape();
    let cols = b.shape().1;
    IMatrix::from_fn(rows, cols, |r, c| {
        let mut acc = 0_i32;
        for k in 0..inner {
            acc += a[(r, k)] * b[(k, c)];
        }
        acc
    })
}

/// Definition-order i64 (wide-accumulator) reference.
fn naive_i64(a: &IMatrix, b: &IMatrix) -> Vec<i64> {
    let (rows, inner) = a.shape();
    let cols = b.shape().1;
    let mut out = vec![0_i64; rows * cols];
    for r in 0..rows {
        for c in 0..cols {
            let mut acc = 0_i64;
            for k in 0..inner {
                acc += a[(r, k)] as i64 * b[(k, c)] as i64;
            }
            out[r * cols + c] = acc;
        }
    }
    out
}

fn int_matrix(rng: &mut DetRng, rows: usize, cols: usize) -> IMatrix {
    IMatrix::from_fn(rows, cols, |_, _| rng.below(255) as i32 - 127)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// f32 matmul: pooled path bit-identical to the naive definition.
    #[test]
    fn f32_matmul_bit_identical_across_threshold(
        rows in 96_usize..152,
        inner in 96_usize..152,
        cols in 96_usize..152,
        seed in any::<u64>(),
    ) {
        let work = rows * inner * cols;
        // The dimension ranges straddle the dispatch threshold; make sure
        // the test would notice if they ever stopped doing so.
        prop_assert!(96 * 96 * 96 < PAR_THRESHOLD && 151 * 151 * 151 > PAR_THRESHOLD);
        let mut rng = DetRng::new(seed);
        let a = rng.normal_matrix(rows, inner, 0.0, 1.0);
        let b = rng.normal_matrix(inner, cols, 0.0, 1.0);
        let got = a.matmul(&b).unwrap();
        let expect = naive_f32(&a, &b);
        for r in 0..rows {
            for c in 0..cols {
                prop_assert_eq!(
                    got[(r, c)].to_bits(),
                    expect[(r, c)].to_bits(),
                    "({}, {}) of {}x{}x{} (work {}, parallel: {})",
                    r, c, rows, inner, cols, work, work >= PAR_THRESHOLD,
                );
            }
        }
    }

    /// i32 matmul: pooled path exactly equal to the naive definition.
    #[test]
    fn i32_matmul_exact_across_threshold(
        rows in 96_usize..152,
        inner in 96_usize..152,
        cols in 96_usize..152,
        seed in any::<u64>(),
    ) {
        let mut rng = DetRng::new(seed);
        let a = int_matrix(&mut rng, rows, inner);
        let b = int_matrix(&mut rng, inner, cols);
        let got = a.matmul(&b).unwrap();
        let expect = naive_i32(&a, &b);
        prop_assert_eq!(got, expect);
    }

    /// i64 wide matmul: pooled path exactly equal to the naive definition.
    #[test]
    fn i64_wide_matmul_exact_across_threshold(
        rows in 96_usize..152,
        inner in 96_usize..152,
        cols in 96_usize..152,
        seed in any::<u64>(),
    ) {
        let mut rng = DetRng::new(seed);
        let a = int_matrix(&mut rng, rows, inner);
        let b = int_matrix(&mut rng, inner, cols);
        let got = a.matmul_wide(&b).unwrap();
        let expect = naive_i64(&a, &b);
        prop_assert_eq!(got, expect);
    }

    /// Degenerate shapes (single row/column/inner) stay on the serial path
    /// and still match the definition bit-for-bit — also with an all-zero
    /// left row and exact and negative zeros sprinkled through both operands
    /// (the skip path, and sign bits an `acc + a·0.0` step could flip).
    #[test]
    fn tiny_shapes_bit_identical(
        rows in 1_usize..6,
        inner in 1_usize..6,
        cols in 1_usize..6,
        seed in any::<u64>(),
    ) {
        let mut rng = DetRng::new(seed);
        let a = rng.normal_matrix(rows, inner, 0.0, 1.0);
        let b = rng.normal_matrix(inner, cols, 0.0, 1.0);
        let za = Matrix::from_fn(rows, inner, |r, _| match rng.below(4) {
            _ if r == 0 => 0.0,
            0 => 0.0,
            1 => -0.0,
            _ => rng.normal(0.0, 1.0),
        });
        let zb = Matrix::from_fn(inner, cols, |_, _| match rng.below(4) {
            0 => -0.0,
            _ => rng.normal(0.0, 1.0),
        });
        for (a, b) in [(&a, &b), (&za, &zb)] {
            let got = a.matmul(b).unwrap();
            let expect = naive_f32(a, b);
            for r in 0..rows {
                for c in 0..cols {
                    prop_assert_eq!(got[(r, c)].to_bits(), expect[(r, c)].to_bits());
                }
            }
        }
        let ia = int_matrix(&mut rng, rows, inner);
        let ib = int_matrix(&mut rng, inner, cols);
        prop_assert_eq!(ia.matmul(&ib).unwrap(), naive_i32(&ia, &ib));
        prop_assert_eq!(ia.matmul_wide(&ib).unwrap(), naive_i64(&ia, &ib));
    }
}
