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
//!
//! The packed f32 product (`Matrix::matmul_packed` over a `PackedF32`) is
//! pinned the same way, against the chain written out — `k` ascending from
//! `+0.0`, zero left operands skipped — with non-finite weights opposite
//! zero activations, which only the skip keeps out of the result. The pool
//! is process-global, so CI runs this file at `TENDER_THREADS` 1 and 4.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use tender_tensor::pool::PAR_THRESHOLD;
use tender_tensor::rng::DetRng;
use tender_tensor::{IMatrix, Matrix, PackedF32};

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

/// The f32 accumulation chain written out: per element, `k` ascending from
/// `+0.0`, a zero left operand skipped (a skipped term is absent, so a
/// non-finite weight opposite it never reaches the sum).
fn chain_f32(a: &Matrix, b: &Matrix) -> Matrix {
    Matrix::from_fn(a.rows(), b.cols(), |r, c| {
        let mut acc = 0.0_f32;
        for k in 0..a.cols() {
            if a[(r, k)] != 0.0 {
                acc += a[(r, k)] * b[(k, c)];
            }
        }
        acc
    })
}

/// A left operand whose entries are `+0.0` / `-0.0` with probability
/// `zero_rate` (half each) and Gaussian otherwise; every row in
/// `zero_rows` is zero throughout, and so is every column in `zero_cols`.
fn sparse_left(
    rng: &mut DetRng,
    rows: usize,
    k: usize,
    zero_rate: f64,
    zero_rows: &[usize],
    zero_cols: &[usize],
) -> Matrix {
    Matrix::from_fn(rows, k, |r, c| {
        if zero_rows.contains(&r) || zero_cols.contains(&c) {
            return if (r + c) % 2 == 0 { 0.0 } else { -0.0 };
        }
        let u = rng.below(1 << 20) as f64 / f64::from(1 << 20);
        if u < zero_rate / 2.0 {
            0.0
        } else if u < zero_rate {
            -0.0
        } else {
            rng.normal(0.0, 1.0)
        }
    })
}

/// A Gaussian weight with `-0.0` sprinkled in, and NaN / ±∞ planted in the
/// rows listed in `poisoned_rows` (the rows a zero left column meets).
fn poisoned_weight(rng: &mut DetRng, k: usize, n: usize, poisoned_rows: &[usize]) -> Matrix {
    const POISON: [f32; 3] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
    Matrix::from_fn(k, n, |r, c| {
        if poisoned_rows.contains(&r) {
            POISON[(r + c) % POISON.len()]
        } else if rng.below(8) == 0 {
            -0.0
        } else {
            rng.normal(0.0, 1.0)
        }
    })
}

/// Packs `b`, checks the store reads back as `b`, and checks `a · b` over
/// it against [`chain_f32`] and `Matrix::matmul` with `to_bits`.
fn check_packed(a: &Matrix, b: &Matrix) -> Result<(), TestCaseError> {
    let packed = PackedF32::pack(b);
    prop_assert_eq!(packed.shape(), b.shape());
    for r in 0..b.rows() {
        for c in 0..b.cols() {
            prop_assert_eq!(packed.get(r, c).to_bits(), b[(r, c)].to_bits());
        }
    }
    let got = a.matmul_packed(&packed).unwrap();
    let want = chain_f32(a, b);
    let row_major = a.matmul(b).unwrap();
    let (rows, k, n) = (a.rows(), a.cols(), b.cols());
    for r in 0..rows {
        for c in 0..n {
            let bits = got[(r, c)].to_bits();
            prop_assert_eq!(
                bits,
                want[(r, c)].to_bits(),
                "({}, {}) of {}x{}x{} (parallel: {})",
                r,
                c,
                rows,
                k,
                n,
                rows * k * n >= PAR_THRESHOLD,
            );
            prop_assert_eq!(bits, row_major[(r, c)].to_bits());
        }
    }
    Ok(())
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

    /// Packed f32 product, small shapes: `n` off the 8-column panel width
    /// and the 32-column walk, `k` down to 0, ±0 in the left operand at
    /// rates from none to all, an all-zero row, and NaN / ±∞ weights in the
    /// rows a zero left column meets — equal to the chain and to
    /// `Matrix::matmul` bit for bit, and the store reads back as its source.
    #[test]
    fn packed_matmul_is_the_chain_off_the_panel_width(
        rows in 1_usize..12,
        k in 0_usize..=40,
        n in 1_usize..=70,
        rate in 0_usize..5,
        seed in any::<u64>(),
    ) {
        let zero_rate = [0.0, 0.25, 0.5, 0.9, 1.0][rate];
        let mut rng = DetRng::new(seed);
        let zero_row = rng.below(rows);
        let zero_cols: Vec<usize> = (0..k).filter(|_| rng.below(5) == 0).collect();
        let a = sparse_left(&mut rng, rows, k, zero_rate, &[zero_row], &zero_cols);
        let b = poisoned_weight(&mut rng, k, n, &zero_cols);
        check_packed(&a, &b)?;
    }

    /// Packed f32 product, row counts straddling `PAR_THRESHOLD` for the
    /// drawn `k × n`: serial and pooled row splits both equal the chain.
    #[test]
    fn packed_matmul_bit_identical_across_threshold(
        k in 30_usize..=40,
        n in 50_usize..=70,
        offset in -24_i64..24,
        seed in any::<u64>(),
    ) {
        let rows = ((PAR_THRESHOLD / (k * n)) as i64 + offset) as usize;
        let mut rng = DetRng::new(seed);
        let zero_cols: Vec<usize> = (0..k).filter(|_| rng.below(6) == 0).collect();
        let a = sparse_left(&mut rng, rows, k, 0.3, &[0], &zero_cols);
        let b = poisoned_weight(&mut rng, k, n, &zero_cols);
        check_packed(&a, &b)?;
    }
}
