//! [`PackedF32`]: an f32 weight stored for the one kernel that reads it,
//! [`crate::gemm::f32_packed_block`].
//!
//! A `k × n` weight is ⌈n / [`PANEL`]⌉ column panels, each `k × PANEL`
//! row-major and stored back to back; the last panel's columns past `n` are
//! `+0.0`. One left row walks four panels at once down `k`, so the 32
//! output columns it accumulates stay in registers and each weight is read
//! once per row from a few contiguous streams. The product
//! ([`crate::Matrix::matmul_packed`]) keeps the module-level chain of
//! [`crate::gemm`] element by element, so it equals `Matrix::matmul` on the
//! unpacked weight bit for bit. Weights are packed once, when a model is
//! built or first used — never per call (DESIGN.md §10).

use crate::Matrix;
use std::fmt;

/// Columns per panel of a [`PackedF32`].
pub const PANEL: usize = 8;

/// A `k × n` f32 weight in column panels (see the module docs).
///
/// # Example
///
/// ```
/// use tender_tensor::{Matrix, PackedF32};
///
/// let w = Matrix::from_fn(3, 10, |r, c| (r * 10 + c) as f32);
/// let packed = PackedF32::pack(&w);
/// assert_eq!(packed.get(2, 9), w[(2, 9)]);
/// let x = Matrix::from_fn(2, 3, |r, c| (r + c) as f32 - 1.0);
/// assert_eq!(x.matmul_packed(&packed).unwrap(), x.matmul(&w).unwrap());
/// ```
#[derive(Clone, PartialEq)]
pub struct PackedF32 {
    k: usize,
    n: usize,
    /// Panel `p`, row `kk`, lane `j` at `(p · k + kk) · PANEL + j`.
    panels: Vec<f32>,
}

impl PackedF32 {
    /// Packs `w` (`k × n`), copying its rows in order.
    pub fn pack(w: &Matrix) -> Self {
        let (k, n) = w.shape();
        let mut packed = Self::zeroed(k, n);
        let panel_len = k * PANEL;
        for (kk, row) in w.iter_rows().enumerate() {
            for (p, cols) in row.chunks(PANEL).enumerate() {
                let at = p * panel_len + kk * PANEL;
                packed.panels[at..at + cols.len()].copy_from_slice(cols);
            }
        }
        packed
    }

    /// Packs the transpose of `w` (`n × k`) without materializing it: the
    /// LM head is stored `vocab × d` and multiplied as `d × vocab`.
    pub fn pack_transposed(w: &Matrix) -> Self {
        let (n, k) = w.shape();
        let mut packed = Self::zeroed(k, n);
        if k == 0 {
            return packed;
        }
        for (cols, panel) in w
            .as_slice()
            .chunks(PANEL * k)
            .zip(packed.panels.chunks_exact_mut(PANEL * k))
        {
            for (j, col) in cols.chunks_exact(k).enumerate() {
                for (kk, &v) in col.iter().enumerate() {
                    panel[kk * PANEL + j] = v;
                }
            }
        }
        packed
    }

    /// An all-`+0.0` store of ⌈n / PANEL⌉ panels.
    fn zeroed(k: usize, n: usize) -> Self {
        Self {
            k,
            n,
            panels: vec![0.0; n.div_ceil(PANEL) * k * PANEL],
        }
    }

    /// Rows `k` of the weight (the product's inner dimension).
    pub fn rows(&self) -> usize {
        self.k
    }

    /// `(rows, cols)` of the weight.
    pub fn shape(&self) -> (usize, usize) {
        (self.k, self.n)
    }

    /// Weight `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if `(r, c)` is out of bounds.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(
            r < self.k && c < self.n,
            "({r}, {c}) outside {}x{}",
            self.k,
            self.n
        );
        self.panels[((c / PANEL) * self.k + r) * PANEL + c % PANEL]
    }

    /// The panels back to back, padding included — the layout
    /// [`crate::gemm::f32_packed_block`] reads.
    pub fn panels(&self) -> &[f32] {
        &self.panels
    }

    /// Bytes the store holds: `4 · k · PANEL · ⌈n / PANEL⌉`.
    pub fn bytes(&self) -> usize {
        size_of_val(self.panels.as_slice())
    }
}

impl fmt::Debug for PackedF32 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PackedF32({}x{}, {} panels)",
            self.k,
            self.n,
            self.n.div_ceil(PANEL)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_packs_agree_with_the_source_and_pad_with_zeros() {
        for (k, n) in [(0, 5), (3, 0), (1, 1), (5, 8), (4, 9), (7, 17)] {
            let w = Matrix::from_fn(k, n, |r, c| (r * 100 + c) as f32 + 0.5);
            let packed = PackedF32::pack(&w);
            assert_eq!(packed, PackedF32::pack_transposed(&w.transpose()));
            assert_eq!(packed.shape(), (k, n));
            for r in 0..k {
                for c in 0..n {
                    assert_eq!(packed.get(r, c), w[(r, c)]);
                }
            }
            assert_eq!(packed.bytes(), 4 * k * PANEL * n.div_ceil(PANEL));
            let padding = packed.panels().len() - k * n;
            let zeros = packed.panels().iter().filter(|v| v.to_bits() == 0).count();
            assert_eq!(
                zeros, padding,
                "{k}x{n}: padding is +0.0, weights never are"
            );
        }
    }
}
