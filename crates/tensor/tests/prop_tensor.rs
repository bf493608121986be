//! Property-based tests for the tensor substrate.

use proptest::prelude::*;
use tender_tensor::rng::DetRng;
use tender_tensor::{ops, stats, Dense, IMatrix, Matrix};

fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    any::<u64>().prop_map(move |seed| DetRng::new(seed).normal_matrix(rows, cols, 0.0, 1.0))
}

/// The element-type-agnostic laws of [`Dense<T>`] at one shape and one
/// element type, every result held to an index-by-index oracle. `cast`
/// turns the drawn integers into the element type.
fn check_dense_laws<T>(rows: usize, cols: usize, seed: u64, cast: fn(i32) -> T)
where
    T: Copy + Default + PartialEq + std::fmt::Debug,
    Dense<T>: std::fmt::Debug,
{
    let mut rng = DetRng::new(seed);
    let mut draw =
        |r: usize, c: usize| Dense::from_fn(r, c, |_, _| cast(rng.below(4001) as i32 - 2000));
    let a: Dense<T> = draw(rows, cols);
    assert_eq!(a.shape(), (rows, cols));
    assert_eq!(a.len(), rows * cols);
    assert_eq!(a.is_empty(), rows * cols == 0);

    let t = a.transpose();
    assert_eq!(t.shape(), (cols, rows));
    for r in 0..rows {
        for c in 0..cols {
            assert_eq!(t[(c, r)], a[(r, c)]);
        }
    }
    assert!(t.transpose() == a, "transpose∘transpose is the identity");

    // Gathers repeat and reorder; slices are the contiguous special case.
    let mut rng = DetRng::new(seed ^ 0x9e37_79b9);
    let row_idx: Vec<usize> = (0..rows.min(1) * 5).map(|_| rng.below(rows)).collect();
    let col_idx: Vec<usize> = (0..cols.min(1) * 5).map(|_| rng.below(cols)).collect();
    let gr = a.gather_rows(&row_idx);
    assert_eq!(gr.shape(), (row_idx.len(), cols));
    let gc = a.gather_cols(&col_idx);
    assert_eq!(gc.shape(), (rows, col_idx.len()));
    for c in 0..cols {
        for (i, &r) in row_idx.iter().enumerate() {
            assert_eq!(gr[(i, c)], a[(r, c)]);
        }
    }
    for r in 0..rows {
        for (j, &c) in col_idx.iter().enumerate() {
            assert_eq!(gc[(r, j)], a[(r, c)]);
        }
    }
    let (r0, c0) = (rng.below(rows + 1), rng.below(cols + 1));
    let (r1, c1) = (r0 + rng.below(rows - r0 + 1), c0 + rng.below(cols - c0 + 1));
    let rows_slice: Vec<usize> = (r0..r1).collect();
    let cols_slice: Vec<usize> = (c0..c1).collect();
    assert!(a.slice_rows(r0, r1) == a.gather_rows(&rows_slice));
    assert!(a.slice_cols(c0, c1) == a.gather_cols(&cols_slice));

    // Stacks: every element comes from the operand its index falls in.
    let below: Dense<T> = draw(3, cols);
    let v = a.vstack(&below).unwrap();
    assert_eq!(v.shape(), (rows + 3, cols));
    for c in 0..cols {
        for r in 0..rows + 3 {
            let want = if r < rows {
                a[(r, c)]
            } else {
                below[(r - rows, c)]
            };
            assert_eq!(v[(r, c)], want);
        }
    }
    let beside: Dense<T> = draw(rows, 2);
    let h = a.hstack(&beside).unwrap();
    assert_eq!(h.shape(), (rows, cols + 2));
    for r in 0..rows {
        for c in 0..cols + 2 {
            let want = if c < cols {
                a[(r, c)]
            } else {
                beside[(r, c - cols)]
            };
            assert_eq!(h[(r, c)], want);
        }
    }
    assert_eq!(a.vstack(&draw(1, cols + 1)).unwrap_err().op(), "vstack");
    assert_eq!(a.hstack(&draw(rows + 1, 1)).unwrap_err().op(), "hstack");

    // The flat constructor keeps its error, whatever the element type.
    assert!(Dense::from_vec(rows, cols, a.as_slice().to_vec()).unwrap() == a);
    let err = Dense::<T>::from_vec(rows, cols, vec![T::default(); rows * cols + 1]).unwrap_err();
    assert_eq!(
        (err.op(), err.lhs(), err.rhs()),
        ("from_vec", (rows, cols), (rows * cols + 1, 1))
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `Dense<T>` obeys the same laws at every element type the workspace
    /// stores, on shapes that include `0×n`, `n×0` and `1×1`.
    #[test]
    fn dense_laws_hold_at_every_element_type(
        rows in 0_usize..=6,
        cols in 0_usize..=6,
        seed in any::<u64>(),
    ) {
        for (rows, cols) in [(rows, cols), (0, cols), (rows, 0), (1, 1)] {
            check_dense_laws::<i16>(rows, cols, seed, |v| v as i16);
            check_dense_laws::<i32>(rows, cols, seed, |v| v * 1_000_003);
            check_dense_laws::<f32>(rows, cols, seed, |v| v as f32 * 0.37);
        }
    }

    /// `map_into` is `from_fn` of the cast, in both directions the engine
    /// uses it (narrowing codes, dequantizing them).
    #[test]
    fn map_into_is_from_fn_of_the_cast(rows in 0_usize..=6, cols in 0_usize..=6, seed in any::<u64>()) {
        let mut rng = DetRng::new(seed);
        let q = IMatrix::from_fn(rows, cols, |_, _| rng.below(65_535) as i32 - 32_767);
        let narrow: Dense<i16> = q.map_into(|v| v as i16);
        prop_assert_eq!(&narrow, &Dense::from_fn(rows, cols, |r, c| q[(r, c)] as i16));
        prop_assert_eq!(narrow.map_into(i32::from), q.clone());
        let deq: Matrix = q.map_into(|v| v as f32 * 0.125);
        prop_assert_eq!(&deq, &Matrix::from_fn(rows, cols, |r, c| q[(r, c)] as f32 * 0.125));
        prop_assert_eq!(deq, q.to_f32(0.125));
    }

    /// (A + B)·C == A·C + B·C up to float rounding.
    #[test]
    fn matmul_distributes_over_add(a in matrix(4, 6), b in matrix(4, 6), c in matrix(6, 3)) {
        let lhs = a.add(&b).unwrap().matmul(&c).unwrap();
        let rhs = a.matmul(&c).unwrap().add(&b.matmul(&c).unwrap()).unwrap();
        let tol = lhs.abs_max().max(1.0) * 1e-4;
        prop_assert!(lhs.approx_eq(&rhs, tol));
    }

    /// (A·B)ᵀ == Bᵀ·Aᵀ exactly for integer matrices.
    #[test]
    fn integer_matmul_transpose_identity(seed in any::<u64>()) {
        let mut rng = DetRng::new(seed);
        let a = IMatrix::from_fn(3, 5, |_, _| rng.below(17) as i32 - 8);
        let b = IMatrix::from_fn(5, 4, |_, _| rng.below(17) as i32 - 8);
        let lhs = a.matmul(&b).unwrap().transpose();
        let rhs = b.transpose().matmul(&a.transpose()).unwrap();
        prop_assert_eq!(lhs, rhs);
    }

    /// Transpose is an involution.
    #[test]
    fn transpose_involution(a in matrix(5, 7)) {
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    /// Gathering all columns by a permutation then its inverse restores
    /// the matrix.
    #[test]
    fn gather_permutation_roundtrip(a in matrix(4, 8), seed in any::<u64>()) {
        let mut rng = DetRng::new(seed);
        let mut perm: Vec<usize> = (0..8).collect();
        rng.shuffle(&mut perm);
        let mut inverse = vec![0_usize; 8];
        for (i, &p) in perm.iter().enumerate() {
            inverse[p] = i;
        }
        let round = a.gather_cols(&perm).gather_cols(&inverse);
        prop_assert_eq!(round, a);
    }

    /// The causal softmax is the mask followed by the plain softmax, bit
    /// for bit, on finite scores of any shape: 1×1, square, wide (columns
    /// past the last row stay masked) and tall (late rows see every column).
    #[test]
    fn causal_softmax_is_mask_then_softmax(
        rows in 1_usize..=24,
        cols in 1_usize..=24,
        spread in 0.01_f32..80.0,
        seed in any::<u64>(),
    ) {
        for (rows, cols) in [(rows, cols), (1, 1), (rows, rows)] {
            let scores = DetRng::new(seed).normal_matrix(rows, cols, 0.0, spread);
            let mut masked = scores.clone();
            ops::causal_mask_inplace(&mut masked);
            let want = ops::softmax_rows(&masked);
            let got = ops::causal_softmax_rows(&scores);
            prop_assert_eq!(got.shape(), want.shape());
            for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
                prop_assert_eq!(
                    g.to_bits(),
                    w.to_bits(),
                    "{}×{} element {}: {} vs {}", rows, cols, i, g, w
                );
            }
        }
    }

    /// The row-wise attention walk is the per-head matrix composition it
    /// replaced — `slice_cols`, `transpose`, `matmul`, the (causal) softmax,
    /// `matmul` — bit for bit: every `head_dim` up to two 16-lane blocks
    /// plus every 4- and 1-lane tail, sequences long enough to fill several
    /// score blocks, causal and full, on operands drawn with ±0, NaN, ±∞ and
    /// exact zeros at several rates, score spreads wide enough that
    /// probabilities underflow to exact zeros, and one row per case whose
    /// live scores of head 0 are all −∞ or all NaN (no finite maximum).
    #[test]
    fn attention_rows_is_the_matrix_composition(
        dh in 1_usize..=33,
        n in 1_usize..=40,
        heads in 1_usize..=3,
        special_rate in 0_usize..4,
        spread in 0.01_f32..40.0,
        seed in any::<u64>(),
    ) {
        let d = heads * dh;
        let mut rng = DetRng::new(seed);
        // One element in `special` is ±0, NaN or ±∞ (never, when 0).
        let special = [0, 500, 50, 8][special_rate];
        let mut draw = |rows: usize| {
            Matrix::from_fn(rows, d, |_, _| {
                if special > 0 && rng.below(special) == 0 {
                    [0.0, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY][rng.below(5)]
                } else if rng.below(4) == 0 {
                    0.0
                } else {
                    rng.normal(0.0, spread)
                }
            })
        };
        let (mut q, mut k, v) = (draw(n), draw(n), draw(n));
        // Row `dead` of head 0 scores `∞ · −1 = −∞` or `NaN · −1` at every
        // position: no finite maximum among its live scores.
        let dead = rng.below(n);
        for c in 0..dh {
            q[(dead, c)] = 0.0;
        }
        q[(dead, 0)] = if seed % 2 == 0 { f32::INFINITY } else { f32::NAN };
        for j in 0..n {
            k[(j, 0)] = -1.0;
        }
        for causal in [true, false] {
            let got = ops::attention_rows(&q, &k, &v, heads, causal);
            let mut want = Matrix::zeros(n, d);
            for h in 0..heads {
                let (c0, c1) = (h * dh, (h + 1) * dh);
                let scores = q.slice_cols(c0, c1).matmul(&k.slice_cols(c0, c1).transpose()).unwrap();
                let probs = if causal {
                    ops::causal_softmax_rows(&scores)
                } else {
                    ops::softmax_rows(&scores)
                };
                let attn = probs.matmul(&v.slice_cols(c0, c1)).unwrap();
                for r in 0..n {
                    want.row_mut(r)[c0..c1].copy_from_slice(attn.row(r));
                }
            }
            prop_assert_eq!(got.shape(), (n, d));
            for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
                // Equal bits; which NaN a NaN operand pair yields is the
                // compiler's operand order, not the chain.
                prop_assert!(
                    g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                    "n {} dh {} heads {} causal {}: element {}: {} vs {}",
                    n, dh, heads, causal, i, g, w
                );
            }
            prop_assert!(got.row(dead)[..dh].iter().all(|x| x.is_nan()));
        }
    }

    /// Softmax rows are probability distributions, and shifting logits by
    /// a constant leaves them unchanged.
    #[test]
    fn softmax_is_shift_invariant_distribution(a in matrix(3, 9), shift in -50.0_f32..50.0) {
        let p = ops::softmax_rows(&a);
        for r in 0..p.rows() {
            let s: f32 = p.row(r).iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-5);
            prop_assert!(p.row(r).iter().all(|&x| (0.0..=1.0).contains(&x)));
        }
        let q = ops::softmax_rows(&a.map(|x| x + shift));
        prop_assert!(p.approx_eq(&q, 1e-5));
    }

    /// LayerNorm output is invariant to affine transforms of its input
    /// (scale > 0 and shift), by construction.
    #[test]
    fn layer_norm_affine_invariance(
        a in matrix(3, 12),
        scale in 0.1_f32..10.0,
        shift in -5.0_f32..5.0,
    ) {
        let gamma = vec![1.0_f32; 12];
        let beta = vec![0.0_f32; 12];
        let base = ops::layer_norm(&a, &gamma, &beta, 1e-6);
        let transformed = ops::layer_norm(&a.map(|x| x * scale + shift), &gamma, &beta, 1e-6);
        prop_assert!(base.approx_eq(&transformed, 1e-2));
    }

    /// KL divergence is non-negative and zero iff the distributions match.
    #[test]
    fn kl_nonnegative(a in matrix(1, 8), b in matrix(1, 8)) {
        let p = ops::softmax_rows(&a);
        let q = ops::softmax_rows(&b);
        let kl = stats::kl_divergence(p.row(0), q.row(0), 1e-12);
        prop_assert!(kl >= 0.0);
        let self_kl = stats::kl_divergence(p.row(0), p.row(0), 1e-12);
        prop_assert!(self_kl < 1e-6);
    }

    /// Per-column absolute maxima commute with column gathering.
    #[test]
    fn col_abs_max_commutes_with_gather(a in matrix(5, 6)) {
        let idx = [4_usize, 0, 2];
        let direct: Vec<f32> = {
            let all = stats::col_abs_max(&a);
            idx.iter().map(|&i| all[i]).collect()
        };
        let gathered = stats::col_abs_max(&a.gather_cols(&idx));
        prop_assert_eq!(direct, gathered);
    }
}

/// `Matrix` and `IMatrix` are aliases of the one store, not types of their
/// own: this compiles only while they are.
#[test]
fn matrix_and_imatrix_are_aliases_of_dense() {
    let _: Dense<f32> = Matrix::zeros(1, 1);
    let _: Dense<i32> = IMatrix::zeros(1, 1);
    let _: Matrix = Dense::<f32>::identity(1);
}

/// The two `Debug` layouts differ (header, corner size, cell width) and can
/// appear in assertion messages; both are pinned byte for byte.
#[test]
fn debug_layouts_are_pinned() {
    let m = Matrix::from_fn(7, 7, |r, c| r as f32 - c as f32 * 0.25);
    assert_eq!(
        format!("{m:?}"),
        "Matrix(7x7) [\n\
         \x20 [   0.0000,   -0.2500,   -0.5000,   -0.7500,   -1.0000,   -1.2500, …]\n\
         \x20 [   1.0000,    0.7500,    0.5000,    0.2500,    0.0000,   -0.2500, …]\n\
         \x20 [   2.0000,    1.7500,    1.5000,    1.2500,    1.0000,    0.7500, …]\n\
         \x20 [   3.0000,    2.7500,    2.5000,    2.2500,    2.0000,    1.7500, …]\n\
         \x20 [   4.0000,    3.7500,    3.5000,    3.2500,    3.0000,    2.7500, …]\n\
         \x20 [   5.0000,    4.7500,    4.5000,    4.2500,    4.0000,    3.7500, …]\n\
         \x20 …\n]"
    );
    let q = IMatrix::from_fn(2, 9, |r, c| (c as i32 - 4) * (1 + 1000 * r as i32));
    assert_eq!(
        format!("{q:?}"),
        "IMatrix(2x9) [\n\
         \x20 [     -4,      -3,      -2,      -1,       0,       1,       2,       3, …]\n\
         \x20 [  -4004,   -3003,   -2002,   -1001,       0,    1001,    2002,    3003, …]\n]"
    );
    assert_eq!(format!("{:?}", Matrix::zeros(0, 3)), "Matrix(0x3) [\n]");
    assert_eq!(
        format!("{:?}", IMatrix::zeros(1, 1)),
        "IMatrix(1x1) [\n  [      0]\n]"
    );
}
