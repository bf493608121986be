//! Property-based tests for the tensor substrate.

use proptest::prelude::*;
use tender_tensor::rng::DetRng;
use tender_tensor::{ops, stats, IMatrix, Matrix};

fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    any::<u64>().prop_map(move |seed| DetRng::new(seed).normal_matrix(rows, cols, 0.0, 1.0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

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
