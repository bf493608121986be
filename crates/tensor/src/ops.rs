//! Neural-network operations on [`Matrix`]: softmax, LayerNorm, activations.
//!
//! These are the element-wise / row-wise operations a Transformer block needs
//! around its matrix multiplications, plus the full-sequence attention walk
//! ([`attention_rows`]) that runs score → softmax → value one row at a time
//! instead of through per-head matrices. In the Tender architecture they run on
//! the Vector Processing Unit (VPU) in floating point, which is why they live
//! here as `f32` operations rather than in the quantized pipeline.

use crate::Matrix;

/// Row-wise numerically stable softmax.
///
/// Each row is shifted by its maximum before exponentiation so that large
/// attention logits cannot overflow.
///
/// # Example
///
/// ```
/// use tender_tensor::{Matrix, ops};
///
/// let logits = Matrix::from_rows(&[vec![0.0, 0.0]]).unwrap();
/// let p = ops::softmax_rows(&logits);
/// assert!((p[(0, 0)] - 0.5).abs() < 1e-6);
/// ```
pub fn softmax_rows(m: &Matrix) -> Matrix {
    let mut out = m.clone();
    for r in 0..out.rows() {
        softmax_in_place(out.row_mut(r));
    }
    out
}

/// Numerically stable softmax of one row, in place: the row body of
/// [`softmax_rows`] and [`causal_softmax_rows`]. The maximum is folded from
/// `−∞`, every entry becomes `exp(x − max)` summed left to right, and the
/// row is divided by the sum only when it is positive (an empty or all-`−∞`
/// row is left as the exponentials, NaN where there was no finite maximum).
pub fn softmax_in_place(row: &mut [f32]) {
    let max = row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
    let mut sum = 0.0_f32;
    for x in row.iter_mut() {
        *x = (*x - max).exp();
        sum += *x;
    }
    if sum > 0.0 {
        for x in row.iter_mut() {
            *x /= sum;
        }
    }
}

/// Causal row-wise softmax: [`causal_mask_inplace`] followed by
/// [`softmax_rows`], without visiting the masked half. Row `r` takes its
/// maximum, exponentials, sum and division over the live columns `0..=r`
/// only (all of them once `r ≥ cols − 1`), and every column past `r` is
/// written as `+0.0`.
///
/// Bit-identical to the two-step form whenever row `r` has a live score
/// above `−∞`: a masked score never wins the maximum, its term is
/// `exp(−∞) = +0.0` exactly, `sum + 0.0 == sum`, and `+0.0 / sum` is `+0.0`.
/// A row with no such score (every live column `−∞` or NaN) has no finite
/// maximum: its live columns come out NaN in both forms, and its masked
/// columns are `+0.0` here where the two-step form leaves NaN there too.
pub fn causal_softmax_rows(scores: &Matrix) -> Matrix {
    let mut out = scores.clone();
    let cols = out.cols();
    for r in 0..out.rows() {
        let (live, masked) = out.row_mut(r).split_at_mut(cols.min(r + 1));
        softmax_in_place(live);
        masked.fill(0.0);
    }
    out
}

/// Multi-head attention over one whole sequence, row by row: for each row
/// `r` and head `h` (columns `h·dh..(h+1)·dh`, `dh = q.cols() / heads`),
/// `softmax(q_h[r] · K_hᵀ) · V_h` over the row's live positions — `0..=r`
/// when `causal`, all of them otherwise — written into `out[r]`'s head
/// columns. `q`, `k` and `v` are `n × d`; `q` arrives pre-scaled.
///
/// Bit-identical, per head, to the matrix composition
/// `softmax(q_h.matmul(k_hᵀ)).matmul(v_h)` with [`causal_softmax_rows`]
/// (or [`softmax_rows`]), by the f32 GEMM's chain rules: each score adds
/// its `head_dim` terms in ascending order into one accumulator from `+0.0`,
/// skipping `q`'s zeros, and each output element adds its positions in
/// ascending order, skipping zero probabilities. A masked position's
/// probability is `+0.0` in the composition, so its term is skipped there
/// and never visited here — the walk neither scores nor reads it. These
/// are also the chains an f32 KV cache's decode read runs, so causal row
/// `r` is bit for bit what a decode step at position `r` computes against
/// a cache holding rows `0..=r`.
///
/// `K` is transposed once, so a row's scores are fixed-width column blocks
/// of independent chains held in registers across the `head_dim` walk; the
/// value product sums into a register block of output columns, reading V's
/// rows where they lie. Any `head_dim` works: 16-wide blocks, then 4-wide,
/// then single lanes take the tail. One `n`-long score row is the only
/// scratch, and the walk is serial.
///
/// # Panics
///
/// Panics if `k` or `v` differs from `q` in shape, or `heads` does not
/// split `q.cols()` into equal non-empty heads.
pub fn attention_rows(q: &Matrix, k: &Matrix, v: &Matrix, heads: usize, causal: bool) -> Matrix {
    let (n, d) = q.shape();
    assert_eq!(k.shape(), (n, d), "attention_rows: K shape");
    assert_eq!(v.shape(), (n, d), "attention_rows: V shape");
    assert!(
        heads > 0 && d > 0 && d % heads == 0,
        "attention_rows: {heads} heads over {d} columns"
    );
    let dh = d / heads;
    let kt = k.transpose();
    let mut out = Matrix::zeros(n, d);
    let mut scores = vec![0.0f32; n];
    for r in 0..n {
        let live = &mut scores[..if causal { r + 1 } else { n }];
        let q_row = q.row(r);
        for (h, out_h) in out.row_mut(r).chunks_exact_mut(dh).enumerate() {
            let qh = &q_row[h * dh..(h + 1) * dh];
            let kt_h = &kt.as_slice()[h * dh * n..(h + 1) * dh * n];
            let mut j = score_blocks::<ATTN_LANES>(qh, kt_h, n, 0, live);
            j += score_blocks::<4>(qh, kt_h, n, j, &mut live[j..]);
            score_blocks::<1>(qh, kt_h, n, j, &mut live[j..]);
            softmax_in_place(live);
            let v_h = &v.as_slice()[h * dh..];
            let mut c = value_blocks::<ATTN_LANES>(live, v_h, d, 0, out_h);
            c += value_blocks::<4>(live, v_h, d, c, &mut out_h[c..]);
            value_blocks::<1>(live, v_h, d, c, &mut out_h[c..]);
        }
    }
    out
}

/// Width of [`attention_rows`]' register blocks: score columns per block,
/// and output columns per value accumulator. Narrower blocks (4, then 1)
/// take what is left.
const ATTN_LANES: usize = 16;

/// Scores positions `j0..` in whole `W`-wide blocks, as many as fit in
/// `out`: `out[j - j0] = Σ_c qh[c] · kt[c·n + j]`, `c` ascending, zeros of
/// `qh` skipped. `kt` is one head's `dh × n` slab of `Kᵀ`. Returns how
/// many positions it wrote.
#[inline(always)]
fn score_blocks<const W: usize>(
    qh: &[f32],
    kt: &[f32],
    n: usize,
    j0: usize,
    out: &mut [f32],
) -> usize {
    let (blocks, _) = out.as_chunks_mut::<W>();
    for (b, block) in blocks.iter_mut().enumerate() {
        let j = j0 + b * W;
        let mut acc = [0.0f32; W];
        for (c, &x) in qh.iter().enumerate() {
            if x == 0.0 {
                continue;
            }
            let keys: &[f32; W] = kt[c * n + j..][..W].try_into().expect("W keys");
            for (a, &key) in acc.iter_mut().zip(keys) {
                *a += x * key;
            }
        }
        *block = acc;
    }
    blocks.len() * W
}

/// Values for output columns `c0..` in whole `W`-wide blocks, as many as
/// fit in `out`: `out[c - c0] = Σ_j p[j] · v[j·d + c]`, `j` ascending, zero
/// probabilities skipped. `v` starts at the head's first column of V's row
/// 0 (row stride `d`). Returns how many columns it wrote.
#[inline(always)]
fn value_blocks<const W: usize>(
    p: &[f32],
    v: &[f32],
    d: usize,
    c0: usize,
    out: &mut [f32],
) -> usize {
    let (blocks, _) = out.as_chunks_mut::<W>();
    for (b, block) in blocks.iter_mut().enumerate() {
        let c = c0 + b * W;
        let mut acc = [0.0f32; W];
        for (j, &pj) in p.iter().enumerate() {
            if pj == 0.0 {
                continue;
            }
            let vals: &[f32; W] = v[j * d + c..][..W].try_into().expect("W values");
            for (a, &val) in acc.iter_mut().zip(vals) {
                *a += pj * val;
            }
        }
        *block = acc;
    }
    blocks.len() * W
}

/// Row-wise log-softmax (stable), used for cross-entropy evaluation.
pub fn log_softmax_rows(m: &Matrix) -> Matrix {
    let mut out = m.clone();
    for r in 0..out.rows() {
        let row = out.row_mut(r);
        let max = row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
        let log_sum = row.iter().map(|&x| (x - max).exp()).sum::<f32>().ln() + max;
        for x in row.iter_mut() {
            *x -= log_sum;
        }
    }
    out
}

/// Row-wise LayerNorm with learned gain `gamma` and bias `beta`.
///
/// Normalizes each row to zero mean / unit variance, then applies the
/// per-feature affine transform. Large `gamma` entries in a few fixed
/// channels are the mechanism the paper identifies as the source of
/// activation outliers in LLMs (§II-B), so the synthetic models in
/// `tender-model` inject outliers exactly this way.
///
/// # Panics
///
/// Panics if `gamma.len()` or `beta.len()` differs from `m.cols()`.
pub fn layer_norm(m: &Matrix, gamma: &[f32], beta: &[f32], eps: f32) -> Matrix {
    assert_eq!(gamma.len(), m.cols(), "layer_norm gamma length mismatch");
    assert_eq!(beta.len(), m.cols(), "layer_norm beta length mismatch");
    let mut out = m.clone();
    let n = m.cols() as f32;
    for r in 0..out.rows() {
        let row = out.row_mut(r);
        let mean = row.iter().sum::<f32>() / n;
        let var = row.iter().map(|&x| (x - mean) * (x - mean)).sum::<f32>() / n;
        let inv_std = 1.0 / (var + eps).sqrt();
        for (c, x) in row.iter_mut().enumerate() {
            *x = (*x - mean) * inv_std * gamma[c] + beta[c];
        }
    }
    out
}

/// Row-wise RMSNorm with learned gain `gamma` (no mean subtraction, no
/// bias), as used by the Llama family.
///
/// Like [`layer_norm`], large `gamma` entries in fixed channels create
/// activation outliers in those channels.
///
/// # Panics
///
/// Panics if `gamma.len() != m.cols()`.
pub fn rms_norm(m: &Matrix, gamma: &[f32], eps: f32) -> Matrix {
    assert_eq!(gamma.len(), m.cols(), "rms_norm gamma length mismatch");
    let mut out = m.clone();
    let n = m.cols() as f32;
    for r in 0..out.rows() {
        let row = out.row_mut(r);
        let ms = row.iter().map(|&x| x * x).sum::<f32>() / n;
        let inv = 1.0 / (ms + eps).sqrt();
        for (c, x) in row.iter_mut().enumerate() {
            *x = *x * inv * gamma[c];
        }
    }
    out
}

/// Element-wise ReLU.
pub fn relu(m: &Matrix) -> Matrix {
    m.map(|x| x.max(0.0))
}

/// Element-wise GeLU (tanh approximation, as used in GPT-style models).
pub fn gelu(m: &Matrix) -> Matrix {
    m.map(gelu_scalar)
}

/// Scalar GeLU (tanh approximation).
pub fn gelu_scalar(x: f32) -> f32 {
    const SQRT_2_OVER_PI: f32 = 0.797_884_6;
    0.5 * x * (1.0 + (SQRT_2_OVER_PI * (x + 0.044_715 * x * x * x)).tanh())
}

/// Element-wise SiLU (`x * sigmoid(x)`), used by Llama-family FFNs.
pub fn silu(m: &Matrix) -> Matrix {
    m.map(|x| x / (1.0 + (-x).exp()))
}

/// Applies a causal mask in place: positions `c > r` are set to `-inf`.
///
/// Used on attention scores before softmax so a token cannot attend to the
/// future. The matrix is interpreted as `queries x keys`.
pub fn causal_mask_inplace(scores: &mut Matrix) {
    for r in 0..scores.rows() {
        for c in 0..scores.cols() {
            if c > r {
                scores[(r, c)] = f32::NEG_INFINITY;
            }
        }
    }
}

/// The transpose-free product `q · mᵀ` for a single query row:
/// `out[0, j] = Σ_c q[0, c] · m[j, c]`, columns ascending with the matmul
/// zero-skip on the left operand. Reproduces `q.matmul(&m.transpose())`
/// **bit-for-bit** — per output element both run the identical accumulation
/// chain (`k` ascending, skip `a == 0.0`, one f32 accumulator) — while never
/// materializing the transpose copy. This is the decode-attention score path
/// for f32 KV planes.
///
/// # Panics
///
/// Panics if `q` is not a single row or the inner dimensions disagree.
pub fn row_dot_nt(q: &Matrix, m: &Matrix) -> Matrix {
    assert_eq!(q.rows(), 1, "row_dot_nt takes a single query row");
    assert_eq!(q.cols(), m.cols(), "inner dimensions must agree");
    let qr = q.row(0);
    let mut out = vec![0.0f32; m.rows()];
    for (j, o) in out.iter_mut().enumerate() {
        let mut acc = 0.0f32;
        for (&a, &b) in qr.iter().zip(m.row(j)) {
            if a == 0.0 {
                continue;
            }
            acc += a * b;
        }
        *o = acc;
    }
    let cols = out.len();
    Matrix::from_vec(1, cols, out).expect("row_dot_nt output shape")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_dot_nt_is_bit_equal_to_matmul_against_transpose() {
        // The decode score path relies on this being an exact rewrite of
        // `q · mᵀ` (same chain: k ascending, skip a == 0.0, one f32
        // accumulator). Include zeros in q to exercise the skip and awkward
        // magnitudes to exercise rounding.
        let q = Matrix::from_rows(&[vec![0.3, 0.0, -1.7, 1e-3, 9.25, 0.0, -0.125]]).unwrap();
        let m = Matrix::from_vec(
            5,
            7,
            (0..35)
                .map(|i| ((i * 37 + 11) % 97) as f32 / 13.0 - 3.5)
                .collect(),
        )
        .unwrap();
        let fast = row_dot_nt(&q, &m);
        let slow = q.matmul(&m.transpose()).expect("1x7 · 7x5");
        assert_eq!(slow.rows(), 1);
        assert_eq!(slow.cols(), 5);
        let fast_bits: Vec<u32> = fast.row(0).iter().map(|v| v.to_bits()).collect();
        let slow_bits: Vec<u32> = slow.row(0).iter().map(|v| v.to_bits()).collect();
        assert_eq!(fast_bits, slow_bits);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![-5.0, 0.0, 5.0]]).unwrap();
        let p = softmax_rows(&m);
        for r in 0..2 {
            let s: f32 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-6, "row {r} sums to {s}");
            assert!(p.row(r).iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        // exp(1000) overflows f32; the max-shift must keep this finite.
        let m = Matrix::from_rows(&[vec![1000.0, 1001.0]]).unwrap();
        let p = softmax_rows(&m);
        assert!(p.is_finite());
        assert!(p[(0, 1)] > p[(0, 0)]);
    }

    #[test]
    fn softmax_monotone_in_logits() {
        let m = Matrix::from_rows(&[vec![0.0, 1.0, 2.0]]).unwrap();
        let p = softmax_rows(&m);
        assert!(p[(0, 0)] < p[(0, 1)] && p[(0, 1)] < p[(0, 2)]);
    }

    #[test]
    fn causal_softmax_of_a_row_without_a_finite_live_score() {
        // Row 0's only live score is −∞: no finite maximum, so its live
        // column is NaN (as in the two-step form) and its masked columns
        // are +0.0 (where the two-step form has NaN). Row 1 is ordinary.
        let m =
            Matrix::from_rows(&[vec![f32::NEG_INFINITY, 1.0, 2.0], vec![0.0, 0.0, 5.0]]).unwrap();
        let p = causal_softmax_rows(&m);
        assert!(p[(0, 0)].is_nan());
        assert_eq!(p.row(0)[1..], [0.0, 0.0]);
        assert_eq!(p.row(1), &[0.5, 0.5, 0.0]);
        let mut masked = m.clone();
        causal_mask_inplace(&mut masked);
        assert!(softmax_rows(&masked).row(0).iter().all(|v| v.is_nan()));
    }

    #[test]
    fn every_softmax_form_is_the_row_body_bit_for_bit() {
        // The row body written out as a literal reference: fold the max
        // from −∞, exponentiate and sum left to right, divide iff sum > 0.
        let reference = |row: &[f32]| -> Vec<f32> {
            let mut row = row.to_vec();
            let max = row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
            let mut sum = 0.0_f32;
            for x in row.iter_mut() {
                *x = (*x - max).exp();
                sum += *x;
            }
            if sum > 0.0 {
                for x in row.iter_mut() {
                    *x /= sum;
                }
            }
            row
        };
        // Equal bits, or NaN on both sides (which NaN an `∞ − ∞` yields is
        // the compiler's operand order, not the row body's).
        let same = |got: &[f32], want: &[f32]| {
            got.len() == want.len()
                && got
                    .iter()
                    .zip(want)
                    .all(|(g, w)| g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()))
        };
        let (inf, nan) = (f32::INFINITY, f32::NAN);
        let rows: [&[f32]; 12] = [
            &[-inf, 1.0, 2.0],
            &[-inf, -inf],
            &[nan, 0.5, 1.0],
            &[1.0, nan],
            &[3.0, 3.0, 1.0],
            &[0.25; 5],
            &[7.5],
            &[-inf],
            &[inf, 1.0],
            &[1e30, -1e30, 0.0, -0.0],
            &[-3.5, 2.0, 2.0, -inf, 0.75, 2.0],
            &[],
        ];
        for row in rows {
            let want = reference(row);
            let mut got = row.to_vec();
            softmax_in_place(&mut got);
            assert!(same(&got, &want), "in place {row:?}: {got:?} vs {want:?}");
            if row.is_empty() {
                continue;
            }
            let m = Matrix::from_rows(&[row.to_vec(), row.to_vec()]).unwrap();
            let p = softmax_rows(&m);
            assert!(same(p.row(1), &want), "softmax_rows {row:?}");
            // The causal form: row r softmaxes its live columns 0..=r.
            let square = Matrix::from_fn(row.len(), row.len(), |_, c| row[c]);
            let causal = causal_softmax_rows(&square);
            for r in 0..row.len() {
                let mut want = reference(&row[..=r]);
                want.resize(row.len(), 0.0);
                assert!(same(causal.row(r), &want), "causal row {r} of {row:?}");
            }
        }
    }

    #[test]
    fn log_softmax_matches_log_of_softmax() {
        let m = Matrix::from_rows(&[vec![0.3, -1.2, 2.5]]).unwrap();
        let ls = log_softmax_rows(&m);
        let p = softmax_rows(&m);
        for c in 0..3 {
            assert!((ls[(0, c)] - p[(0, c)].ln()).abs() < 1e-5);
        }
    }

    #[test]
    fn layer_norm_normalizes() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0, 4.0]]).unwrap();
        let gamma = vec![1.0; 4];
        let beta = vec![0.0; 4];
        let out = layer_norm(&m, &gamma, &beta, 1e-5);
        let mean: f32 = out.row(0).iter().sum::<f32>() / 4.0;
        let var: f32 = out
            .row(0)
            .iter()
            .map(|&x| (x - mean) * (x - mean))
            .sum::<f32>()
            / 4.0;
        assert!(mean.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn layer_norm_gamma_amplifies_channel() {
        // A large gamma on one channel must create an outlier channel —
        // this is the outlier-generation mechanism from the paper.
        let m = Matrix::from_fn(4, 8, |r, c| ((r * 8 + c) % 7) as f32 - 3.0);
        let mut gamma = vec![1.0_f32; 8];
        gamma[3] = 50.0;
        let beta = vec![0.0; 8];
        let out = layer_norm(&m, &gamma, &beta, 1e-5);
        let col3_max = out.col(3).iter().fold(0.0_f32, |a, &b| a.max(b.abs()));
        let col0_max = out.col(0).iter().fold(0.0_f32, |a, &b| a.max(b.abs()));
        assert!(col3_max > 10.0 * col0_max);
    }

    #[test]
    fn rms_norm_unit_rms() {
        let m = Matrix::from_rows(&[vec![3.0, -4.0]]).unwrap();
        let out = rms_norm(&m, &[1.0, 1.0], 0.0);
        let ms: f32 = out.row(0).iter().map(|&x| x * x).sum::<f32>() / 2.0;
        assert!((ms - 1.0).abs() < 1e-5);
        // Sign and ratio preserved.
        assert!(out[(0, 0)] > 0.0 && out[(0, 1)] < 0.0);
    }

    #[test]
    fn rms_norm_gamma_scales_channels() {
        let m = Matrix::from_rows(&[vec![1.0, 1.0]]).unwrap();
        let out = rms_norm(&m, &[1.0, 30.0], 1e-6);
        assert!((out[(0, 1)] / out[(0, 0)] - 30.0).abs() < 1e-3);
    }

    #[test]
    fn relu_clamps_negative() {
        let m = Matrix::from_rows(&[vec![-1.0, 0.0, 2.0]]).unwrap();
        assert_eq!(relu(&m).as_slice(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn gelu_known_points() {
        assert!(gelu_scalar(0.0).abs() < 1e-7);
        assert!((gelu_scalar(100.0) - 100.0).abs() < 1e-3);
        assert!(gelu_scalar(-100.0).abs() < 1e-3);
        // gelu(1) ≈ 0.8412
        assert!((gelu_scalar(1.0) - 0.8412).abs() < 1e-3);
    }

    #[test]
    fn silu_known_points() {
        let m = Matrix::from_rows(&[vec![0.0, 100.0]]).unwrap();
        let s = silu(&m);
        assert!(s[(0, 0)].abs() < 1e-7);
        assert!((s[(0, 1)] - 100.0).abs() < 1e-3);
    }

    #[test]
    fn causal_mask_blocks_future() {
        let mut scores = Matrix::zeros(3, 3);
        causal_mask_inplace(&mut scores);
        assert_eq!(scores[(0, 0)], 0.0);
        assert_eq!(scores[(0, 1)], f32::NEG_INFINITY);
        assert_eq!(scores[(2, 1)], 0.0);
        // After softmax, masked entries get zero probability.
        let p = softmax_rows(&scores);
        assert_eq!(p[(0, 1)], 0.0);
        assert!((p[(0, 0)] - 1.0).abs() < 1e-6);
    }
}
