//! The `f32` instantiation of the dense store: [`Matrix`] and its kernels.
//!
//! Everything shape- and layout-related is [`Dense<T>`]'s (`dense.rs`); this
//! file adds only what needs `f32` arithmetic — the GEMMs (one-line calls
//! into [`crate::gemm::f32_block`], and into [`crate::gemm::f32_packed_block`]
//! over a [`PackedF32`] weight), scaling, `abs_max`, finiteness and
//! tolerance comparison — and the `Matrix(RxC)` `Debug` layout.

use crate::{Dense, PackedF32, ShapeError};
use std::fmt;

/// A dense, row-major matrix of `f32` values.
///
/// `Matrix` is the floating-point workhorse of the reproduction: model
/// weights, activations, and reference (unquantized) computations all use it.
/// The layout is plain row-major `Vec<f32>`, so rows are contiguous and the
/// GEMM kernel iterates cache-friendly.
///
/// # Example
///
/// ```
/// use tender_tensor::Matrix;
///
/// let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
/// assert_eq!(m[(1, 0)], 3.0);
/// assert_eq!(m.transpose()[(0, 1)], 3.0);
/// ```
pub type Matrix = Dense<f32>;

impl Dense<f32> {
    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Matrix product `self * rhs`.
    ///
    /// An i-k-j loop over the row-major layout (vectorizable contiguous
    /// inner loop, [`crate::gemm::f32_block`]) with the per-element
    /// accumulation order fixed, so the result is byte-identical at any
    /// thread count; large products are split row-wise across threads.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix, ShapeError> {
        if self.cols() != rhs.rows() {
            return Err(ShapeError::new("matmul", self.shape(), rhs.shape()));
        }
        let (m, (k, n)) = (self.rows(), rhs.shape());
        let mut out = Matrix::zeros(m, n);
        crate::gemm::dispatch_blocks(m, k, n, out.as_mut_slice(), |r0, rows, out_block| {
            let a = &self.as_slice()[r0 * k..(r0 + rows) * k];
            crate::gemm::f32_block(a, k, rhs.as_slice(), n, out_block);
        });
        Ok(out)
    }

    /// Matrix product `self * rhs` over a weight packed once
    /// ([`crate::gemm::f32_packed_block`]): the same per-element chain as
    /// [`Matrix::matmul`], so the same bits, split row-wise across threads
    /// the same way and counted as one product.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `self.cols() != rhs.rows()`.
    pub fn matmul_packed(&self, rhs: &PackedF32) -> Result<Matrix, ShapeError> {
        if self.cols() != rhs.rows() {
            return Err(ShapeError::new("matmul_packed", self.shape(), rhs.shape()));
        }
        let (m, (k, n)) = (self.rows(), rhs.shape());
        let mut out = Matrix::zeros(m, n);
        crate::gemm::dispatch_blocks(m, k, n, out.as_mut_slice(), |r0, rows, out_block| {
            let a = &self.as_slice()[r0 * k..(r0 + rows) * k];
            crate::gemm::f32_packed_block(a, k, rhs.panels(), n, out_block);
        });
        Ok(out)
    }

    /// Multiplies every element by `s`, returning a new matrix.
    pub fn scale(&self, s: f32) -> Matrix {
        self.map(|x| x * s)
    }

    /// Scales each column `c` by `scales[c]`, returning a new matrix.
    ///
    /// # Panics
    ///
    /// Panics if `scales.len() != self.cols()`.
    pub fn scale_cols(&self, scales: &[f32]) -> Matrix {
        assert_eq!(scales.len(), self.cols(), "scale_cols length mismatch");
        Matrix::from_fn(self.rows(), self.cols(), |r, c| self[(r, c)] * scales[c])
    }

    /// Scales each row `r` by `scales[r]`, returning a new matrix.
    ///
    /// # Panics
    ///
    /// Panics if `scales.len() != self.rows()`.
    pub fn scale_rows(&self, scales: &[f32]) -> Matrix {
        assert_eq!(scales.len(), self.rows(), "scale_rows length mismatch");
        Matrix::from_fn(self.rows(), self.cols(), |r, c| self[(r, c)] * scales[r])
    }

    /// Maximum absolute value over the whole matrix (0.0 when empty).
    pub fn abs_max(&self) -> f32 {
        self.as_slice().iter().fold(0.0_f32, |m, &x| m.max(x.abs()))
    }

    /// Whether every element is finite.
    pub fn is_finite(&self) -> bool {
        self.as_slice().iter().all(|x| x.is_finite())
    }

    /// Returns `true` when every element differs from `other` by at most
    /// `tol` (absolute).
    pub fn approx_eq(&self, other: &Matrix, tol: f32) -> bool {
        self.shape() == other.shape()
            && self
                .as_slice()
                .iter()
                .zip(other.as_slice())
                .all(|(a, b)| (a - b).abs() <= tol)
    }
}

impl fmt::Debug for Dense<f32> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_corner(f, "Matrix", 6, |f, x| write!(f, "{x:9.4}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_matmul_is_noop() {
        let a = Matrix::from_fn(3, 3, |r, c| (r * 3 + c) as f32);
        let i = Matrix::identity(3);
        assert_eq!(a.matmul(&i).unwrap(), a);
        assert_eq!(i.matmul(&a).unwrap(), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(
            c,
            Matrix::from_rows(&[vec![19.0, 22.0], vec![43.0, 50.0]]).unwrap()
        );
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn matmul_rectangular() {
        let a = Matrix::from_fn(2, 4, |r, c| (r + c) as f32);
        let b = Matrix::from_fn(4, 3, |r, c| (r * c) as f32 + 1.0);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), (2, 3));
        // Manual check of element (1, 2): sum_k a[1][k] * b[k][2]
        let expect: f32 = (0..4)
            .map(|k| (1 + k) as f32 * ((k * 2) as f32 + 1.0))
            .sum();
        assert_eq!(c[(1, 2)], expect);
    }

    // Pooled-vs-serial matmul parity is covered exhaustively (all three
    // matmul kernels, arbitrary shapes straddling PAR_THRESHOLD, full
    // element-wise bit comparison) by the property tests in
    // `tests/prop_parallel.rs`.

    #[test]
    fn abs_max_ignores_sign_and_is_zero_when_empty() {
        let a = Matrix::from_rows(&[vec![-5.0, 4.0]]).unwrap();
        assert_eq!(a.abs_max(), 5.0);
        assert_eq!(Matrix::zeros(0, 0).abs_max(), 0.0);
    }

    #[test]
    fn scale_cols_and_rows() {
        let a = Matrix::filled(2, 2, 2.0);
        let sc = a.scale_cols(&[1.0, 3.0]);
        assert_eq!(sc[(0, 1)], 6.0);
        let sr = a.scale_rows(&[1.0, 3.0]);
        assert_eq!(sr[(1, 0)], 6.0);
    }

    #[test]
    fn debug_is_nonempty() {
        let s = format!("{:?}", Matrix::zeros(2, 2));
        assert!(s.contains("Matrix(2x2)"));
    }

    #[test]
    fn is_finite_detects_nan() {
        let mut a = Matrix::zeros(1, 2);
        assert!(a.is_finite());
        a[(0, 1)] = f32::NAN;
        assert!(!a.is_finite());
    }
}
