//! The one dense store: a row-major `rows × cols` buffer of any element type.
//!
//! Tender's datapath carries operands of several widths — 4- and 8-bit
//! codes, 16-bit pre-shifted codes, a 32-bit accumulator — and the
//! reproduction stores all of them the same way. [`Dense<T>`] is that store,
//! with everything that does not depend on the element type defined once:
//! construction, shape and slice access, transpose, elementwise maps and
//! casts, gather / slice / stack, growable rows, indexing.
//!
//! What *is* per type — the GEMM kernels, scaling, `abs_max`, the `Debug`
//! layouts — lives in `impl Dense<f32>` (`matrix.rs`, the [`crate::Matrix`]
//! alias) and `impl Dense<i32>` (`imatrix.rs`, the [`crate::IMatrix`] alias),
//! each a thin layer over the free functions in [`crate::gemm`]. A new width
//! is a type argument, not another copy of this file.

use crate::ShapeError;
use std::fmt;
use std::ops::{Add, Index, IndexMut, Sub};

/// A dense, row-major matrix of `T` values.
///
/// Rows are contiguous in one `Vec<T>`, so a row is a slice and the GEMM
/// kernels iterate cache-friendly.
///
/// # Example
///
/// ```
/// use tender_tensor::Dense;
///
/// let codes = Dense::<i16>::from_fn(2, 3, |r, c| (r * 3 + c) as i16);
/// assert_eq!(codes.transpose()[(2, 1)], 5);
/// let wide: Dense<i32> = codes.map_into(i32::from);
/// assert_eq!(wide.row(1), &[3, 4, 5]);
/// ```
#[derive(Clone, PartialEq, Eq, Default)]
pub struct Dense<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T> Dense<T> {
    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Result<Self, ShapeError> {
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
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// A mutable view of the underlying row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Borrow of row `r` as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[T] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r` as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_mut(&mut self, r: usize) -> &mut [T] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        let cols = self.cols;
        &mut self.data[r * cols..(r + 1) * cols]
    }

    /// Iterator over the rows of the matrix.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[T]> {
        self.data.chunks_exact(self.cols.max(1))
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

    /// Number of rows the current allocation can hold without regrowing.
    pub fn row_capacity(&self) -> usize {
        self.data.capacity().checked_div(self.cols).unwrap_or(0)
    }
}

impl<T: Copy + Default> Dense<T> {
    /// Creates a `rows x cols` matrix filled with zeros (`T::default()`).
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::filled(rows, cols, T::default())
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: T) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates a matrix by evaluating `f(row, col)` for every element.
    pub fn from_fn<F: FnMut(usize, usize) -> T>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Creates a matrix from a slice of equally sized rows.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the rows do not all have the same length.
    pub fn from_rows(rows: &[Vec<T>]) -> Result<Self, ShapeError> {
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

    /// Copies column `c` into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `c >= self.cols()`.
    pub fn col(&self, c: usize) -> Vec<T> {
        assert!(c < self.cols, "col index {c} out of bounds ({})", self.cols);
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> Self {
        let mut out = Self::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[(c, r)] = self[(r, c)];
            }
        }
        out
    }

    /// Returns a new matrix with `f` applied to every element.
    pub fn map<F: FnMut(T) -> T>(&self, f: F) -> Self {
        self.map_into(f)
    }

    /// Returns a new matrix of another element type with `f` applied to
    /// every element — the one elementwise cast (widen, narrow, dequantize).
    pub fn map_into<U, F: FnMut(T) -> U>(&self, mut f: F) -> Dense<U> {
        Dense {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Gathers the given columns (in order) into a new matrix.
    ///
    /// Used by the Tender channel-decomposition path to build a group's
    /// subtensor, and by the index-buffer model to reorder channels.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn gather_cols(&self, indices: &[usize]) -> Self {
        Self::from_fn(self.rows, indices.len(), |r, j| self[(r, indices[j])])
    }

    /// Gathers the given rows (in order) into a new matrix.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn gather_rows(&self, indices: &[usize]) -> Self {
        Self::from_fn(indices.len(), self.cols, |i, c| self[(indices[i], c)])
    }

    /// Returns rows `r0..r1` as a new matrix.
    ///
    /// # Panics
    ///
    /// Panics if `r0 > r1` or `r1 > self.rows()`.
    pub fn slice_rows(&self, r0: usize, r1: usize) -> Self {
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
    pub fn slice_cols(&self, c0: usize, c1: usize) -> Self {
        assert!(
            c0 <= c1 && c1 <= self.cols,
            "col slice {c0}..{c1} out of bounds"
        );
        Self::from_fn(self.rows, c1 - c0, |r, c| self[(r, c0 + c)])
    }

    /// Appends one row, growing storage (amortized doubling) as needed.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.cols()`.
    pub fn push_row(&mut self, row: &[T]) {
        assert_eq!(row.len(), self.cols, "appended row width mismatch");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Stacks `self` on top of `other`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the column counts differ.
    pub fn vstack(&self, other: &Self) -> Result<Self, ShapeError> {
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
    pub fn hstack(&self, other: &Self) -> Result<Self, ShapeError> {
        if self.rows != other.rows {
            return Err(ShapeError::new("hstack", self.shape(), other.shape()));
        }
        let mut out = Self::zeros(self.rows, self.cols + other.cols);
        for r in 0..self.rows {
            out.data[r * out.cols..r * out.cols + self.cols].copy_from_slice(self.row(r));
            out.data[r * out.cols + self.cols..(r + 1) * out.cols].copy_from_slice(other.row(r));
        }
        Ok(out)
    }

    /// `self ∘ rhs` elementwise under the name `op`, shapes checked.
    fn zip_with(
        &self,
        rhs: &Self,
        op: &'static str,
        f: impl Fn(T, T) -> T,
    ) -> Result<Self, ShapeError> {
        if self.shape() != rhs.shape() {
            return Err(ShapeError::new(op, self.shape(), rhs.shape()));
        }
        Ok(Self {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }

    /// Element-wise sum `self + rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the shapes differ.
    pub fn add(&self, rhs: &Self) -> Result<Self, ShapeError>
    where
        T: Add<Output = T>,
    {
        self.zip_with(rhs, "add", |a, b| a + b)
    }

    /// Element-wise difference `self - rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the shapes differ.
    pub fn sub(&self, rhs: &Self) -> Result<Self, ShapeError>
    where
        T: Sub<Output = T>,
    {
        self.zip_with(rhs, "sub", |a, b| a - b)
    }

    /// The layout the per-type `Debug` impls share: a `name(RxC) [` header,
    /// then the top-left `max_show × max_show` corner, one `cell` per
    /// element.
    pub(crate) fn fmt_corner(
        &self,
        f: &mut fmt::Formatter<'_>,
        name: &str,
        max_show: usize,
        cell: impl Fn(&mut fmt::Formatter<'_>, T) -> fmt::Result,
    ) -> fmt::Result {
        writeln!(f, "{name}({}x{}) [", self.rows, self.cols)?;
        for r in 0..self.rows.min(max_show) {
            write!(f, "  [")?;
            for c in 0..self.cols.min(max_show) {
                cell(f, self[(r, c)])?;
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

impl<T> Index<(usize, usize)> for Dense<T> {
    type Output = T;

    fn index(&self, (r, c): (usize, usize)) -> &T {
        debug_assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &self.data[r * self.cols + c]
    }
}

impl<T> IndexMut<(usize, usize)> for Dense<T> {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut T {
        debug_assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &mut self.data[r * self.cols + c]
    }
}

/// 16-bit codes (the packed weight operand of the narrow dot) print in the
/// integer layout.
impl fmt::Debug for Dense<i16> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_corner(f, "Dense<i16>", 8, |f, x| write!(f, "{x:7}"))
    }
}

#[cfg(test)]
mod tests {
    use crate::{IMatrix, Matrix};

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
    #[should_panic(expected = "appended row width mismatch")]
    fn push_row_rejects_wrong_width() {
        let mut m = Matrix::with_row_capacity(3, 1);
        m.push_row(&[1.0, 2.0]);
    }

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
    fn transpose_round_trip_i32() {
        let a = IMatrix::from_fn(2, 3, |r, c| (r * 3 + c) as i32);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose()[(2, 1)], a[(1, 2)]);
    }

    #[test]
    fn gather_cols_orders() {
        let a = IMatrix::from_fn(1, 4, |_, c| c as i32 * 10);
        let g = a.gather_cols(&[2, 0]);
        assert_eq!(g.as_slice(), &[20, 0]);
    }

    #[test]
    fn from_vec_validates_len_i32() {
        assert!(IMatrix::from_vec(2, 2, vec![0; 3]).is_err());
    }
}
