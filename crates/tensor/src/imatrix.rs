//! The `i32` instantiation of the dense store: [`IMatrix`] and its kernels.
//!
//! Everything shape- and layout-related is [`Dense<T>`]'s (`dense.rs`); this
//! file adds only the exact integer products (one-line calls into
//! [`crate::gemm::i32_block`] / [`crate::gemm::i64_block`]), the dequantizing
//! cast, `abs_max`, and the `IMatrix(RxC)` `Debug` layout.

use crate::{Dense, Matrix, ShapeError};
use std::fmt;

/// A dense, row-major matrix of `i32` values.
///
/// Quantized tensors (INT4/INT8 elements) and matmul accumulators (INT32) are
/// both represented as `IMatrix`. The *logical* bit width is carried by the
/// quantization metadata in `tender-quant`, not by the storage type: storing
/// INT4 values in `i32` lanes mirrors how the Tender hardware widens values
/// into its 32-bit accumulators, and lets the integer GEMM here be exact.
///
/// # Example
///
/// ```
/// use tender_tensor::IMatrix;
///
/// # fn main() -> Result<(), tender_tensor::ShapeError> {
/// let a = IMatrix::from_vec(1, 2, vec![2, 3])?;
/// let b = IMatrix::from_vec(2, 1, vec![10, 100])?;
/// assert_eq!(a.matmul(&b)?[(0, 0)], 320);
/// # Ok(())
/// # }
/// ```
pub type IMatrix = Dense<i32>;

impl Dense<i32> {
    /// Exact integer matrix product `self * rhs` with `i32` accumulation.
    ///
    /// Mirrors the hardware datapath: INT4/INT8 products accumulated into
    /// 32-bit registers. Overflow in debug builds panics (Rust semantics),
    /// which doubles as an accumulator-width check for the modelled shapes.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &IMatrix) -> Result<IMatrix, ShapeError> {
        if self.cols() != rhs.rows() {
            return Err(ShapeError::new("matmul", self.shape(), rhs.shape()));
        }
        let (m, (k, n)) = (self.rows(), rhs.shape());
        let mut out = IMatrix::zeros(m, n);
        // Row-partitioned: identical op order per row at any thread count.
        crate::gemm::dispatch_blocks(m, k, n, out.as_mut_slice(), |r0, rows, out_block| {
            let a = &self.as_slice()[r0 * k..(r0 + rows) * k];
            crate::gemm::i32_block(a, k, rhs.as_slice(), n, out_block);
        });
        Ok(out)
    }

    /// Matrix product with `i64` accumulation, for overflow-safety analysis.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `self.cols() != rhs.rows()`.
    pub fn matmul_wide(&self, rhs: &IMatrix) -> Result<Vec<i64>, ShapeError> {
        if self.cols() != rhs.rows() {
            return Err(ShapeError::new("matmul_wide", self.shape(), rhs.shape()));
        }
        let (m, (k, n)) = (self.rows(), rhs.shape());
        let mut out = vec![0_i64; m * n];
        crate::gemm::dispatch_blocks(m, k, n, &mut out, |r0, rows, out_block| {
            let a = &self.as_slice()[r0 * k..(r0 + rows) * k];
            crate::gemm::i64_block(a, k, rhs.as_slice(), n, out_block);
        });
        Ok(out)
    }

    /// Converts to a floating-point [`Matrix`], scaling every element by
    /// `scale` (i.e. dequantization with a single scale factor).
    pub fn to_f32(&self, scale: f32) -> Matrix {
        self.map_into(|q| q as f32 * scale)
    }

    /// Maximum absolute value over the whole matrix (0 when empty).
    pub fn abs_max(&self) -> i32 {
        self.as_slice().iter().fold(0, |m, &x| m.max(x.abs()))
    }
}

impl fmt::Debug for Dense<i32> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_corner(f, "IMatrix", 8, |f, x| write!(f, "{x:7}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_known_values() {
        let a = IMatrix::from_vec(2, 2, vec![1, 2, 3, 4]).unwrap();
        let b = IMatrix::from_vec(2, 2, vec![5, 6, 7, 8]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[19, 22, 43, 50]);
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = IMatrix::zeros(2, 3);
        let b = IMatrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn matmul_wide_matches_matmul_when_small() {
        let a = IMatrix::from_fn(3, 4, |r, c| (r as i32 - c as i32) * 7);
        let b = IMatrix::from_fn(4, 2, |r, c| (r * 2 + c) as i32);
        let narrow = a.matmul(&b).unwrap();
        let wide = a.matmul_wide(&b).unwrap();
        for (n, w) in narrow.as_slice().iter().zip(&wide) {
            assert_eq!(*n as i64, *w);
        }
    }

    #[test]
    fn to_f32_dequantizes() {
        let a = IMatrix::from_vec(1, 2, vec![4, -2]).unwrap();
        let f = a.to_f32(0.5);
        assert_eq!(f[(0, 0)], 2.0);
        assert_eq!(f[(0, 1)], -1.0);
    }

    #[test]
    fn add_and_abs_max() {
        let a = IMatrix::from_vec(1, 2, vec![-5, 3]).unwrap();
        let b = IMatrix::from_vec(1, 2, vec![1, 1]).unwrap();
        assert_eq!(a.add(&b).unwrap().as_slice(), &[-4, 4]);
        assert_eq!(a.abs_max(), 5);
    }
}
