//! Dense integer matrix for quantized values and accumulators.

use crate::{Matrix, ShapeError};
use std::fmt;
use std::ops::{Index, IndexMut};

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
#[derive(Clone, PartialEq, Eq, Default)]
pub struct IMatrix {
    rows: usize,
    cols: usize,
    data: Vec<i32>,
}

impl IMatrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0; rows * cols],
        }
    }

    /// Creates a matrix by evaluating `f(row, col)` for every element.
    pub fn from_fn<F: FnMut(usize, usize) -> i32>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<i32>) -> Result<Self, ShapeError> {
        if data.len() != rows * cols {
            return Err(ShapeError::new("from_vec", (rows, cols), (data.len(), 1)));
        }
        Ok(Self { rows, cols, data })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// A view of the underlying row-major data.
    pub fn as_slice(&self) -> &[i32] {
        &self.data
    }

    /// A mutable view of the underlying row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [i32] {
        &mut self.data
    }

    /// Borrow of row `r` as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[i32] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> IMatrix {
        IMatrix::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
    }

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
        if self.cols != rhs.rows {
            return Err(ShapeError::new("matmul", self.shape(), rhs.shape()));
        }
        let mut out = IMatrix::zeros(self.rows, rhs.cols);
        let n = rhs.cols;
        let k = self.cols;
        // Row-partitioned: identical op order per row at any thread count.
        crate::gemm::dispatch_blocks(self.rows, k, n, &mut out.data, |r0, rows, out_block| {
            let a = &self.data[r0 * k..(r0 + rows) * k];
            crate::gemm::i32_block(a, k, &rhs.data, n, out_block);
        });
        Ok(out)
    }

    /// Matrix product with `i64` accumulation, for overflow-safety analysis.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `self.cols() != rhs.rows()`.
    pub fn matmul_wide(&self, rhs: &IMatrix) -> Result<Vec<i64>, ShapeError> {
        if self.cols != rhs.rows {
            return Err(ShapeError::new("matmul_wide", self.shape(), rhs.shape()));
        }
        let n = rhs.cols;
        let k = self.cols;
        let mut out = vec![0_i64; self.rows * n];
        crate::gemm::dispatch_blocks(self.rows, k, n, &mut out, |r0, rows, out_block| {
            let a = &self.data[r0 * k..(r0 + rows) * k];
            crate::gemm::i64_block(a, k, &rhs.data, n, out_block);
        });
        Ok(out)
    }

    /// Element-wise sum `self + rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the shapes differ.
    pub fn add(&self, rhs: &IMatrix) -> Result<IMatrix, ShapeError> {
        if self.shape() != rhs.shape() {
            return Err(ShapeError::new("add", self.shape(), rhs.shape()));
        }
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a + b)
            .collect();
        Ok(Self {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Returns a new matrix with every element shifted left by `bits`.
    ///
    /// This is the "rescale" primitive of the Tender Multi-Scale Systolic
    /// Array: between channel groups the accumulator is shifted left so the
    /// running sum re-aligns with the next (smaller) scale factor.
    pub fn shl(&self, bits: u32) -> IMatrix {
        self.map(|x| x << bits)
    }

    /// Returns a new matrix with `f` applied to every element.
    pub fn map<F: FnMut(i32) -> i32>(&self, mut f: F) -> IMatrix {
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Gathers the given columns (in order) into a new matrix.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn gather_cols(&self, indices: &[usize]) -> IMatrix {
        IMatrix::from_fn(self.rows, indices.len(), |r, j| self[(r, indices[j])])
    }

    /// Gathers the given rows (in order) into a new matrix.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn gather_rows(&self, indices: &[usize]) -> IMatrix {
        IMatrix::from_fn(indices.len(), self.cols, |i, c| self[(indices[i], c)])
    }

    /// Converts to a floating-point [`Matrix`], scaling every element by
    /// `scale` (i.e. dequantization with a single scale factor).
    pub fn to_f32(&self, scale: f32) -> Matrix {
        Matrix::from_fn(self.rows, self.cols, |r, c| self[(r, c)] as f32 * scale)
    }

    /// Maximum absolute value over the whole matrix (0 when empty).
    pub fn abs_max(&self) -> i32 {
        self.data.iter().fold(0, |m, &x| m.max(x.abs()))
    }
}

impl Index<(usize, usize)> for IMatrix {
    type Output = i32;

    fn index(&self, (r, c): (usize, usize)) -> &i32 {
        debug_assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for IMatrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut i32 {
        debug_assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for IMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "IMatrix({}x{}) [", self.rows, self.cols)?;
        let max_show = 8;
        for r in 0..self.rows.min(max_show) {
            write!(f, "  [")?;
            for c in 0..self.cols.min(max_show) {
                write!(f, "{:7}", self[(r, c)])?;
                if c + 1 < self.cols.min(max_show) {
                    write!(f, ", ")?;
                }
            }
            if self.cols > max_show {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > max_show {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
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
    fn shl_shifts_all_elements() {
        let a = IMatrix::from_vec(1, 3, vec![1, -2, 3]).unwrap();
        assert_eq!(a.shl(2).as_slice(), &[4, -8, 12]);
    }

    #[test]
    fn transpose_round_trip() {
        let a = IMatrix::from_fn(2, 3, |r, c| (r * 3 + c) as i32);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose()[(2, 1)], a[(1, 2)]);
    }

    #[test]
    fn to_f32_dequantizes() {
        let a = IMatrix::from_vec(1, 2, vec![4, -2]).unwrap();
        let f = a.to_f32(0.5);
        assert_eq!(f[(0, 0)], 2.0);
        assert_eq!(f[(0, 1)], -1.0);
    }

    #[test]
    fn gather_cols_orders() {
        let a = IMatrix::from_fn(1, 4, |_, c| c as i32 * 10);
        let g = a.gather_cols(&[2, 0]);
        assert_eq!(g.as_slice(), &[20, 0]);
    }

    #[test]
    fn add_and_abs_max() {
        let a = IMatrix::from_vec(1, 2, vec![-5, 3]).unwrap();
        let b = IMatrix::from_vec(1, 2, vec![1, 1]).unwrap();
        assert_eq!(a.add(&b).unwrap().as_slice(), &[-4, 4]);
        assert_eq!(a.abs_max(), 5);
    }

    #[test]
    fn from_vec_validates_len() {
        assert!(IMatrix::from_vec(2, 2, vec![0; 3]).is_err());
    }
}
