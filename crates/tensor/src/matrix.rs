//! Dense row-major `f32` matrix.

use crate::ShapeError;
use std::fmt;
use std::ops::{Index, IndexMut};

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
#[derive(Clone, PartialEq, Default)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix by evaluating `f(row, col)` for every element.
    pub fn from_fn<F: FnMut(usize, usize) -> f32>(rows: usize, cols: usize, mut f: F) -> Self {
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
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self, ShapeError> {
        if data.len() != rows * cols {
            return Err(ShapeError::new("from_vec", (rows, cols), (data.len(), 1)));
        }
        Ok(Self { rows, cols, data })
    }

    /// Creates a matrix from a slice of equally sized rows.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the rows do not all have the same length.
    pub fn from_rows(rows: &[Vec<f32>]) -> Result<Self, ShapeError> {
        let n_rows = rows.len();
        let n_cols = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(n_rows * n_cols);
        for row in rows {
            if row.len() != n_cols {
                return Err(ShapeError::new(
                    "from_rows",
                    (n_rows, n_cols),
                    (1, row.len()),
                ));
            }
            data.extend_from_slice(row);
        }
        Ok(Self {
            rows: n_rows,
            cols: n_cols,
            data,
        })
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
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// A mutable view of the underlying row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix, returning the underlying row-major data.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Borrow of row `r` as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r` as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        let cols = self.cols;
        &mut self.data[r * cols..(r + 1) * cols]
    }

    /// Copies column `c` into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `c >= self.cols()`.
    pub fn col(&self, c: usize) -> Vec<f32> {
        assert!(c < self.cols, "col index {c} out of bounds ({})", self.cols);
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Iterator over the rows of the matrix.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[(c, r)] = self[(r, c)];
            }
        }
        out
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
        if self.cols != rhs.rows {
            return Err(ShapeError::new("matmul", self.shape(), rhs.shape()));
        }
        let n = rhs.cols;
        let k = self.cols;
        let mut out = Matrix::zeros(self.rows, n);
        crate::gemm::dispatch_blocks(self.rows, k, n, &mut out.data, |r0, rows, out_block| {
            let a = &self.data[r0 * k..(r0 + rows) * k];
            crate::gemm::f32_block(a, k, &rhs.data, n, out_block);
        });
        Ok(out)
    }

    /// Element-wise sum `self + rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the shapes differ.
    pub fn add(&self, rhs: &Matrix) -> Result<Matrix, ShapeError> {
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

    /// Element-wise difference `self - rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the shapes differ.
    pub fn sub(&self, rhs: &Matrix) -> Result<Matrix, ShapeError> {
        if self.shape() != rhs.shape() {
            return Err(ShapeError::new("sub", self.shape(), rhs.shape()));
        }
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a - b)
            .collect();
        Ok(Self {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Returns a new matrix with `f` applied to every element.
    pub fn map<F: FnMut(f32) -> f32>(&self, mut f: F) -> Matrix {
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace<F: FnMut(f32) -> f32>(&mut self, mut f: F) {
        for x in &mut self.data {
            *x = f(*x);
        }
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
        assert_eq!(scales.len(), self.cols, "scale_cols length mismatch");
        Matrix::from_fn(self.rows, self.cols, |r, c| self[(r, c)] * scales[c])
    }

    /// Scales each row `r` by `scales[r]`, returning a new matrix.
    ///
    /// # Panics
    ///
    /// Panics if `scales.len() != self.rows()`.
    pub fn scale_rows(&self, scales: &[f32]) -> Matrix {
        assert_eq!(scales.len(), self.rows, "scale_rows length mismatch");
        Matrix::from_fn(self.rows, self.cols, |r, c| self[(r, c)] * scales[r])
    }

    /// Gathers the given columns (in order) into a new matrix.
    ///
    /// Used by the Tender channel-decomposition path to build a group's
    /// subtensor, and by the index-buffer model to reorder channels.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn gather_cols(&self, indices: &[usize]) -> Matrix {
        Matrix::from_fn(self.rows, indices.len(), |r, j| self[(r, indices[j])])
    }

    /// Gathers the given rows (in order) into a new matrix.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn gather_rows(&self, indices: &[usize]) -> Matrix {
        Matrix::from_fn(indices.len(), self.cols, |i, c| self[(indices[i], c)])
    }

    /// Returns rows `r0..r1` as a new matrix.
    ///
    /// # Panics
    ///
    /// Panics if `r0 > r1` or `r1 > self.rows()`.
    pub fn slice_rows(&self, r0: usize, r1: usize) -> Matrix {
        assert!(
            r0 <= r1 && r1 <= self.rows,
            "row slice {r0}..{r1} out of bounds"
        );
        let data = self.data[r0 * self.cols..r1 * self.cols].to_vec();
        Self {
            rows: r1 - r0,
            cols: self.cols,
            data,
        }
    }

    /// Returns columns `c0..c1` as a new matrix.
    ///
    /// # Panics
    ///
    /// Panics if `c0 > c1` or `c1 > self.cols()`.
    pub fn slice_cols(&self, c0: usize, c1: usize) -> Matrix {
        assert!(
            c0 <= c1 && c1 <= self.cols,
            "col slice {c0}..{c1} out of bounds"
        );
        Matrix::from_fn(self.rows, c1 - c0, |r, c| self[(r, c0 + c)])
    }

    /// An empty (0-row) matrix with storage reserved for `row_capacity`
    /// rows of `cols` columns, for append-heavy consumers (KV caches).
    ///
    /// # Panics
    ///
    /// Panics if `cols == 0`.
    pub fn with_row_capacity(cols: usize, row_capacity: usize) -> Self {
        assert!(cols > 0, "a growable matrix needs at least one column");
        Self {
            rows: 0,
            cols,
            data: Vec::with_capacity(row_capacity * cols),
        }
    }

    /// Appends one row, growing storage (amortized doubling) as needed.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.cols()`.
    pub fn push_row(&mut self, row: &[f32]) {
        assert_eq!(row.len(), self.cols, "appended row width mismatch");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Reserves storage for at least `additional` more rows.
    pub fn reserve_rows(&mut self, additional: usize) {
        self.data.reserve(additional * self.cols);
    }

    /// Number of rows the current allocation can hold without regrowing.
    pub fn row_capacity(&self) -> usize {
        self.data.capacity().checked_div(self.cols).unwrap_or(0)
    }

    /// Stacks `self` on top of `other`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the column counts differ.
    pub fn vstack(&self, other: &Matrix) -> Result<Matrix, ShapeError> {
        if self.cols != other.cols {
            return Err(ShapeError::new("vstack", self.shape(), other.shape()));
        }
        let mut data = self.data.clone();
        data.extend_from_slice(&other.data);
        Ok(Self {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        })
    }

    /// Concatenates `self` with `other` side by side.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the row counts differ.
    pub fn hstack(&self, other: &Matrix) -> Result<Matrix, ShapeError> {
        if self.rows != other.rows {
            return Err(ShapeError::new("hstack", self.shape(), other.shape()));
        }
        let mut out = Matrix::zeros(self.rows, self.cols + other.cols);
        for r in 0..self.rows {
            out.data[r * out.cols..r * out.cols + self.cols].copy_from_slice(self.row(r));
            out.data[r * out.cols + self.cols..(r + 1) * out.cols].copy_from_slice(other.row(r));
        }
        Ok(out)
    }

    /// Maximum absolute value over the whole matrix (0.0 when empty).
    pub fn abs_max(&self) -> f32 {
        self.data.iter().fold(0.0_f32, |m, &x| m.max(x.abs()))
    }

    /// Frobenius norm of the matrix.
    pub fn frobenius_norm(&self) -> f32 {
        self.data
            .iter()
            .map(|&x| (x as f64) * (x as f64))
            .sum::<f64>()
            .sqrt() as f32
    }

    /// Whether every element is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Returns `true` when every element differs from `other` by at most
    /// `tol` (absolute).
    pub fn approx_eq(&self, other: &Matrix, tol: f32) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| (a - b).abs() <= tol)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;

    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        debug_assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        debug_assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix({}x{}) [", self.rows, self.cols)?;
        let max_show = 6;
        for r in 0..self.rows.min(max_show) {
            write!(f, "  [")?;
            for c in 0..self.cols.min(max_show) {
                write!(f, "{:9.4}", self[(r, c)])?;
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
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn push_row_appends_and_grows() {
        let mut m = Matrix::with_row_capacity(3, 2);
        assert_eq!(m.shape(), (0, 3));
        assert!(m.row_capacity() >= 2);
        for r in 0..5 {
            m.push_row(&[r as f32, 0.0, -(r as f32)]);
        }
        assert_eq!(m.shape(), (5, 3));
        assert!(m.row_capacity() >= 5);
        assert_eq!(m.row(4), &[4.0, 0.0, -4.0]);
        // Appended rows match an equivalently built from_fn matrix.
        let want = Matrix::from_fn(5, 3, |r, c| match c {
            0 => r as f32,
            1 => 0.0,
            _ => -(r as f32),
        });
        assert_eq!(m, want);
    }

    #[test]
    fn reserve_rows_extends_capacity() {
        let mut m = Matrix::with_row_capacity(4, 1);
        m.reserve_rows(16);
        assert!(m.row_capacity() >= 16);
        m.push_row(&[1.0; 4]);
        assert_eq!(m.rows(), 1);
    }

    #[test]
    #[should_panic(expected = "appended row width mismatch")]
    fn push_row_rejects_wrong_width() {
        let mut m = Matrix::with_row_capacity(3, 1);
        m.push_row(&[1.0, 2.0]);
    }

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
    fn transpose_round_trip() {
        let a = Matrix::from_fn(3, 5, |r, c| (r * 10 + c) as f32);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().shape(), (5, 3));
        assert_eq!(a.transpose()[(4, 2)], a[(2, 4)]);
    }

    #[test]
    fn add_sub_round_trip() {
        let a = Matrix::from_fn(2, 2, |r, c| (r + c) as f32);
        let b = Matrix::filled(2, 2, 1.5);
        let c = a.add(&b).unwrap().sub(&b).unwrap();
        assert!(c.approx_eq(&a, 1e-6));
    }

    #[test]
    fn add_shape_mismatch() {
        assert!(Matrix::zeros(2, 2).add(&Matrix::zeros(2, 3)).is_err());
        assert!(Matrix::zeros(2, 2).sub(&Matrix::zeros(3, 2)).is_err());
    }

    #[test]
    fn gather_cols_selects_and_orders() {
        let a = Matrix::from_fn(2, 4, |_, c| c as f32);
        let g = a.gather_cols(&[3, 1]);
        assert_eq!(g.shape(), (2, 2));
        assert_eq!(g[(0, 0)], 3.0);
        assert_eq!(g[(1, 1)], 1.0);
    }

    #[test]
    fn gather_rows_selects_and_orders() {
        let a = Matrix::from_fn(4, 2, |r, _| r as f32);
        let g = a.gather_rows(&[2, 0, 0]);
        assert_eq!(g.shape(), (3, 2));
        assert_eq!(g[(0, 0)], 2.0);
        assert_eq!(g[(1, 0)], 0.0);
        assert_eq!(g[(2, 1)], 0.0);
    }

    #[test]
    fn slice_rows_and_cols() {
        let a = Matrix::from_fn(4, 4, |r, c| (r * 4 + c) as f32);
        let s = a.slice_rows(1, 3);
        assert_eq!(s.shape(), (2, 4));
        assert_eq!(s[(0, 0)], 4.0);
        let t = a.slice_cols(2, 4);
        assert_eq!(t.shape(), (4, 2));
        assert_eq!(t[(0, 0)], 2.0);
    }

    #[test]
    fn stack_operations() {
        let a = Matrix::filled(1, 2, 1.0);
        let b = Matrix::filled(1, 2, 2.0);
        let v = a.vstack(&b).unwrap();
        assert_eq!(v.shape(), (2, 2));
        assert_eq!(v[(1, 0)], 2.0);
        let h = a.hstack(&b).unwrap();
        assert_eq!(h.shape(), (1, 4));
        assert_eq!(h[(0, 3)], 2.0);
    }

    #[test]
    fn stack_shape_mismatch() {
        assert!(Matrix::zeros(1, 2).vstack(&Matrix::zeros(1, 3)).is_err());
        assert!(Matrix::zeros(1, 2).hstack(&Matrix::zeros(2, 2)).is_err());
    }

    #[test]
    fn abs_max_and_norm() {
        let a = Matrix::from_rows(&[vec![-3.0, 4.0]]).unwrap();
        assert_eq!(a.abs_max(), 4.0);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-6);
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
    fn from_vec_validates_len() {
        assert!(Matrix::from_vec(2, 2, vec![0.0; 3]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![0.0; 4]).is_ok());
    }

    #[test]
    fn from_rows_validates_ragged() {
        assert!(Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]).is_err());
    }

    #[test]
    fn iter_rows_yields_all_rows() {
        let a = Matrix::from_fn(3, 2, |r, _| r as f32);
        let rows: Vec<&[f32]> = a.iter_rows().collect();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[2], &[2.0, 2.0]);
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
