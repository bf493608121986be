//! The GEMM kernels: one plain loop per product, under a fixed
//! accumulation-chain rule.
//!
//! Every dense product in the workspace is one of the free functions here:
//! [`f32_block`], [`i32_block`] and [`i64_block`] (the row-at-a-time i-k-j
//! loops behind `Matrix::matmul` / `IMatrix::matmul{,_wide}`),
//! [`f32_packed_block`] (the f32 product over a weight packed once, behind
//! `Matrix::matmul_packed`), the two
//! integer-domain KV-attention kernels [`kv_score_block`] and
//! [`kv_attn_block`] with their checked reference walks
//! [`kv_score_checked`] and [`kv_attn_checked`], and [`narrow_dot_block`].
//!
//! # Determinism contract
//!
//! Callers may split a product row-wise across threads — *which* output
//! elements are computed when — but the accumulation chain *within* one
//! output element is fixed: `k` ascending, the zero-skip on the left
//! operand, and a single accumulator per element. That is what makes every
//! result byte-identical at any thread count (`tests/prop_parallel.rs` pins
//! each pooled kernel against a naive triple loop).
//!
//! # Narrow integer products
//!
//! [`narrow_dot_block`] is the only specialised kernel: it multiplies
//! `i16`/`i32` codes against a transposed, K-contiguous right operand on a
//! 32-bit accumulator, for callers that can prove the accumulator bound.
//! Integer sums under that bound are exact and order-free, so it is
//! byte-identical to the `i64` definition by construction and needs no twin.
//!
//! The KV-attention kernels rest on the same argument. Each has exactly one
//! check-free arm for every `(bits, groups)` — decode the page once into
//! `i16` codes pre-multiplied by their group's power-of-two combine weight
//! ([`QuantRows::decode_shifted_into`]), then `i16 × i16` products against
//! the `i16` activation codes on one `i32` accumulator per dot — licensed
//! by [`kv_dot_cannot_overflow`], and one checked arm that keeps
//! the per-group `i64` sums, counts i32 excursions per MAC and is the
//! reference the check-free arm is tested against. Neither allocates:
//! scratch comes from the caller.
//!
//! # Packed f32 weights
//!
//! [`f32_packed_block`] reads a weight that [`crate::PackedF32`] laid out
//! once in `k × 8` column panels and keeps a row's output columns in
//! registers down `k`, under the same chain rules, so it equals
//! [`f32_block`] bit for bit by construction. There is deliberately no
//! per-call packing and no row-tiled variant of the `*_block` loops; see
//! DESIGN.md §10 for the measurements.

use crate::packed::PANEL;
use crate::pool;
use crate::qrows::QuantRows;

/// Names the GEMM kernel family. One variant: the kernels in this module
/// *are* the reference loops. Kept, with the stateless [`current`], because
/// the frozen repository benchmark stamps its reports with
/// `gemm::current().label()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// The row-partitioned i-k-j loops.
    Reference,
}

impl BackendKind {
    /// Canonical lower-case name.
    pub fn label(self) -> &'static str {
        "reference"
    }
}

/// The kernel family every product runs on (see [`BackendKind`]).
pub fn current() -> BackendKind {
    BackendKind::Reference
}

/// Largest quantized magnitude representable at `bits` (the push-row
/// limit, conservative for schemes that clamp one tighter).
fn kv_qmax(bits: u32) -> u128 {
    1u128 << (bits - 1)
}

/// Worst-case |accumulator| of an integer KV dot: `terms` MACs of
/// `x_qmax · kv_qmax` into one group partial, then the α = 2 shift-combine
/// across `groups` (`acc ← acc·2 + S_g`, groups ascending), whose worst
/// intermediate is `per_group · (2^groups − 1)`. Saturating u128, the same
/// analysis style as the Tender chunk accumulator bound.
pub fn kv_dot_bound(terms: usize, x_bits: u32, kv_bits: u32, groups: usize) -> u128 {
    let step = kv_qmax(x_bits) * kv_qmax(kv_bits);
    (terms as u128)
        .saturating_mul(step)
        .saturating_mul((1u128 << groups) - 1)
}

/// Whether the integer KV dot provably stays inside the i32 datapath for
/// this shape, admitting the check-free fast path.
pub fn kv_dot_cannot_overflow(terms: usize, x_bits: u32, kv_bits: u32, groups: usize) -> bool {
    kv_dot_bound(terms, x_bits, kv_bits, groups) <= i32::MAX as u128
}

/// Whether an i64 accumulator has left the i32 datapath range.
#[inline]
fn outside_i32(v: i64) -> bool {
    v > i32::MAX as i64 || v < i32::MIN as i64
}

/// Left-operand rows that share one walk of each right-operand column in
/// [`narrow_dot_block`]; the Tender kernel's 16-row work items are a
/// multiple of it.
const DOT_ROWS: usize = 4;

/// Operands per fixed-size partial dot product of [`narrow_dot_block`]: a
/// sum of this many adjacent `i16 × i16` products is the shape the
/// vectorizer lowers to packed multiply-add pairs (four `pmaddwd` on
/// baseline x86-64) followed by one horizontal add.
const DOT_LANES: usize = 32;

/// The same partial dot for the KV score kernel, whose dots are one cached
/// row long: a [`DOT_LANES`] chunk never fills on a 16-wide `head_dim` row,
/// a chunk of 16 (two `pmaddwd`) covers it exactly.
const KV_LANES: usize = 16;

/// `Σ a[l] · b[l]` over one `L`-wide chunk.
#[inline(always)]
fn dot_chunk<const L: usize, A, B>(a: &[A; L], b: &[B; L]) -> i32
where
    A: Copy + Into<i32>,
    B: Copy + Into<i32>,
{
    let mut sum = 0_i32;
    for (&av, &bv) in a.iter().zip(b) {
        sum += av.into() * bv.into();
    }
    sum
}

/// `R` dot products of length `b.len()` against one shared right-hand
/// column, accumulated in `i32` over `L`-wide chunks: `a` holds `R` rows of
/// `b.len()` elements back to back.
#[inline(always)]
fn dot_rows<const R: usize, const L: usize, A, B>(a: &[A], b: &[B]) -> [i32; R]
where
    A: Copy + Into<i32>,
    B: Copy + Into<i32>,
{
    let k = b.len();
    let (b_chunks, b_rest) = b.as_chunks::<L>();
    let rows: [(&[[A; L]], &[A]); R] =
        std::array::from_fn(|r| a[r * k..(r + 1) * k].as_chunks::<L>());
    let mut acc = [0_i32; R];
    for (i, b_chunk) in b_chunks.iter().enumerate() {
        for (sum, (a_chunks, _)) in acc.iter_mut().zip(&rows) {
            *sum += dot_chunk(&a_chunks[i], b_chunk);
        }
    }
    for (i, &bv) in b_rest.iter().enumerate() {
        let bv: i32 = bv.into();
        for (sum, (_, a_rest)) in acc.iter_mut().zip(&rows) {
            *sum += a_rest[i].into() * bv;
        }
    }
    acc
}

/// Narrow integer GEMM with the hardware's **32-bit accumulator**:
/// `out[r·n + j] = finish(j, Σ_kk a[r·k + kk] · bt[j·k + kk])`.
///
/// `a` is `rows × k` row-major; `bt` is the right-hand operand **transposed**
/// (`n × k` row-major, so each output column's `k` operands are contiguous),
/// typically packed once and reused across calls. Operands are `i16` or
/// `i32` codes in any combination; two 16-bit operands are what the
/// vectorizer turns into packed multiply-adds. Four rows at a time advance
/// through each `bt` column together, and the last one to three rows as a
/// tile of their own, so a column is read once per row tile — `bt` is
/// walked `⌈rows / 4⌉` times, once for any stack of up to four decode rows.
///
/// The caller certifies that `Σ_kk |a·bt| ≤ i32::MAX` for every output
/// element (e.g. [`kv_dot_cannot_overflow`], or the Tender chunk bound).
/// Under that bound every partial sum fits, integer addition is exact and
/// order-free, and the result equals the `i64` definition bit for bit at
/// any tile shape or thread split; the plain `+`/`*` make a debug build
/// panic if a caller's bound is wrong instead of wrapping silently.
///
/// # Panics
///
/// Panics if the slice lengths are inconsistent with `k` and `n`.
pub fn narrow_dot_block<A, B, O>(
    a: &[A],
    bt: &[B],
    k: usize,
    n: usize,
    out: &mut [O],
    finish: impl Fn(usize, i32) -> O,
) where
    A: Copy + Into<i32>,
    B: Copy + Into<i32>,
{
    assert_eq!(bt.len(), n * k, "transposed operand must be n × k");
    if n == 0 {
        return;
    }
    let rows = out.len() / n;
    assert_eq!(out.len(), rows * n, "output must be rows × n");
    assert_eq!(a.len(), rows * k, "left operand must be rows × k");
    if k == 0 {
        for (i, o) in out.iter_mut().enumerate() {
            *o = finish(i % n, 0);
        }
        return;
    }
    let tiled = rows - rows % DOT_ROWS;
    let (a_tiled, a_rest) = a.split_at(tiled * k);
    let (out_tiled, out_rest) = out.split_at_mut(tiled * n);
    for (a_tile, out_tile) in a_tiled
        .chunks_exact(DOT_ROWS * k)
        .zip(out_tiled.chunks_exact_mut(DOT_ROWS * n))
    {
        dot_tile::<DOT_ROWS, DOT_LANES, A, B, O>(a_tile, bt, k, n, out_tile, &finish);
    }
    // The last 1–3 rows are one tile of their own height, so they too walk
    // `bt` once — a stack of two decode rows streams the weights once.
    match rows - tiled {
        0 => {}
        1 => dot_tile::<1, DOT_LANES, A, B, O>(a_rest, bt, k, n, out_rest, &finish),
        2 => dot_tile::<2, DOT_LANES, A, B, O>(a_rest, bt, k, n, out_rest, &finish),
        _ => dot_tile::<3, DOT_LANES, A, B, O>(a_rest, bt, k, n, out_rest, &finish),
    }
}

/// One row tile of [`narrow_dot_block`]: `R` left rows advance through each
/// `bt` column together, `L` operands per partial dot.
#[inline(always)]
fn dot_tile<const R: usize, const L: usize, A, B, O>(
    a_tile: &[A],
    bt: &[B],
    k: usize,
    n: usize,
    out_tile: &mut [O],
    finish: &impl Fn(usize, i32) -> O,
) where
    A: Copy + Into<i32>,
    B: Copy + Into<i32>,
{
    for (j, b_col) in bt.chunks_exact(k).enumerate() {
        let acc = dot_rows::<R, L, A, B>(a_tile, b_col);
        for (r, &s) in acc.iter().enumerate() {
            out_tile[r * n + j] = finish(j, s);
        }
    }
}

/// The i-k-j loop behind [`f32_block`], [`i32_block`] and [`i64_block`]
/// (shapes as documented on [`f32_block`]). `mac(o, av, bv)` performs
/// `*o += av · bv` at the element's accumulator width; zero left operands
/// are skipped, so each element's chain is the module-level one.
#[inline(always)]
fn ikj_block<A: Copy + Default + PartialEq, O>(
    a: &[A],
    k: usize,
    b: &[A],
    n: usize,
    out: &mut [O],
    mac: impl Fn(&mut O, A, A),
) {
    if k == 0 || n == 0 {
        return;
    }
    for (a_row, out_row) in a.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
        for (kk, &av) in a_row.iter().enumerate() {
            if av == A::default() {
                continue;
            }
            let b_row = &b[kk * n..(kk + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                mac(o, av, bv);
            }
        }
    }
}

/// f32 block product `out = a · b` for a block of output rows: `a` is
/// `rows × k` row-major (`rows = a.len() / k`), `b` is `k × n` row-major and
/// `out` (`rows × n`, zero-initialized by the caller) receives the product,
/// under the module-level accumulation-chain rule.
pub fn f32_block(a: &[f32], k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    ikj_block(a, k, b, n, out, |o, av, bv| *o += av * bv);
}

/// Panels of a [`PackedF32`](crate::PackedF32) one left row walks together
/// in [`f32_packed_block`]: 32 output columns on eight 4-lane accumulators,
/// which with the broadcast left operand and the loaded weights is what
/// baseline x86-64's sixteen vector registers hold. Eight panels spill the
/// accumulators every `k` (DESIGN.md §10).
const WALK_PANELS: usize = 4;

/// f32 block product over a packed weight: `a` is `rows × k` row-major,
/// `panels` is a `k × n` weight as [`PackedF32::panels`](crate::PackedF32::panels)
/// lays it out, and `out` (`rows × n`) receives `a · W`, each element
/// written once.
///
/// One left row at a time walks [`WALK_PANELS`] panels down `k` ascending,
/// each output element on its own accumulator starting at `+0.0`, skipping
/// a zero left operand — the module-level chain, rule for rule, so every
/// element equals [`f32_block`]'s bit for bit (a skipped term is absent even
/// opposite a NaN or infinite weight). The last column group walks only the
/// panels it has, and its padding columns are never written.
///
/// # Panics
///
/// Panics if the slice lengths are inconsistent with `k` and `n`.
pub fn f32_packed_block(a: &[f32], k: usize, panels: &[f32], n: usize, out: &mut [f32]) {
    let panel_len = k * PANEL;
    assert_eq!(
        panels.len(),
        n.div_ceil(PANEL) * panel_len,
        "packed weight must be k × n"
    );
    if n == 0 {
        return;
    }
    if k == 0 {
        out.fill(0.0);
        return;
    }
    assert_eq!(a.len() / k * n, out.len(), "output must be rows × n");
    for (a_row, out_row) in a.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
        for (group, out_cols) in panels
            .chunks(WALK_PANELS * panel_len)
            .zip(out_row.chunks_mut(WALK_PANELS * PANEL))
        {
            match group.len() / panel_len {
                WALK_PANELS => panel_walk::<WALK_PANELS>(a_row, group, out_cols),
                1 => panel_walk::<1>(a_row, group, out_cols),
                2 => panel_walk::<2>(a_row, group, out_cols),
                _ => panel_walk::<3>(a_row, group, out_cols),
            }
        }
    }
}

/// One row of [`f32_packed_block`] against `P` consecutive panels: `P · 8`
/// accumulators down `k`, then the first `out_cols.len()` of them written.
#[inline(always)]
fn panel_walk<const P: usize>(a_row: &[f32], group: &[f32], out_cols: &mut [f32]) {
    let k = a_row.len();
    let panels: [&[[f32; PANEL]]; P] =
        std::array::from_fn(|p| &group[p * k * PANEL..(p + 1) * k * PANEL].as_chunks().0[..k]);
    let mut acc = [[0.0_f32; PANEL]; P];
    for (kk, &av) in a_row.iter().enumerate() {
        if av == 0.0 {
            continue;
        }
        for p in 0..P {
            let w = &panels[p][kk];
            for j in 0..PANEL {
                acc[p][j] += av * w[j];
            }
        }
    }
    out_cols.copy_from_slice(&acc.as_flattened()[..out_cols.len()]);
}

/// i32 block product (i32 accumulation, hardware datapath semantics); shapes
/// as in [`f32_block`].
pub fn i32_block(a: &[i32], k: usize, b: &[i32], n: usize, out: &mut [i32]) {
    ikj_block(a, k, b, n, out, |o, av, bv| *o += av * bv);
}

/// i32 operands with i64 accumulation (overflow-safety analysis); shapes as
/// in [`f32_block`].
pub fn i64_block(a: &[i32], k: usize, b: &[i32], n: usize, out: &mut [i64]) {
    ikj_block(a, k, b, n, out, |o, av, bv| *o += av as i64 * bv as i64);
}

/// Integer-domain KV **score** kernel, checked reference walk: the
/// quantized query row `xq` (length `kv.cols()`) dotted against every packed
/// row of `kv` without dequantizing, keeping one i64 partial sum per
/// `(row, group)`: `acc[j * groups + g] += Σ_{c ∈ group g} xq[c] · code(j, c)`.
/// `acc` must be zeroed, `kv.rows() * groups` long; the caller applies the
/// α-shift combine across groups and the f32 scales/bias afterwards. Columns
/// walk ascending, left-operand zeros are skipped (the fixed-chain
/// discipline shared with the f32 kernels), each MAC's accumulator is tested
/// against the i32 range (the hardware datapath width), and the excursion
/// count is returned. This is the definition [`kv_score_block`] is tested
/// against and the path taken when [`kv_dot_cannot_overflow`] fails.
pub fn kv_score_checked(kv: &QuantRows, xq: &[i16], groups: usize, acc: &mut [i64]) -> u64 {
    assert_eq!(xq.len(), kv.cols(), "query width mismatch");
    assert_eq!(acc.len(), kv.rows() * groups, "accumulator bank mismatch");
    let mut events = 0u64;
    for j in 0..kv.rows() {
        let accs = &mut acc[j * groups..(j + 1) * groups];
        for (&xv, (q, g)) in xq.iter().zip(kv.row_iter(j)) {
            if xv == 0 {
                continue;
            }
            let a = &mut accs[g];
            *a += xv as i64 * q as i64;
            if outside_i32(*a) {
                events += 1;
            }
        }
    }
    events
}

/// Integer-domain KV **value** kernel, checked reference walk: the
/// quantized probability row `pq` (length `kv.rows()`) against the packed
/// rows of `kv`, accumulating per `(column, group)`:
/// `acc[c * groups + g] += Σ_j pq[j] · code(j, c)` — one column's group sums
/// side by side, as [`kv_score_checked`] keeps one row's. `acc` must be
/// zeroed, `kv.cols() * groups` long. Rows walk ascending; zero-skip, range
/// test and return value as in [`kv_score_checked`].
pub fn kv_attn_checked(kv: &QuantRows, pq: &[i16], groups: usize, acc: &mut [i64]) -> u64 {
    assert_eq!(pq.len(), kv.rows(), "probability width mismatch");
    assert_eq!(acc.len(), kv.cols() * groups, "accumulator bank mismatch");
    let mut events = 0u64;
    for (j, &pv) in pq.iter().enumerate() {
        if pv == 0 {
            continue;
        }
        let pv = pv as i64;
        for (c, (q, g)) in kv.row_iter(j).enumerate() {
            let a = &mut acc[c * groups + g];
            *a += pv * q as i64;
            if outside_i32(*a) {
                events += 1;
            }
        }
    }
    events
}

/// Check-free KV **score** kernel: decodes the page once into `codes`
/// (`kv.rows() · kv.cols()` of caller scratch, see
/// [`QuantRows::decode_shifted_into`]) and writes one **already combined**
/// sum per row, `out[j] = Σ_c xq[c] · code(j, c) · 2^(groups − 1 − g(j, c))`,
/// on a single `i32` accumulator. Both operands are `i16`, so each row is
/// [`narrow_dot_block`]'s one-row tile over [`KV_LANES`]-wide chunks: the
/// packed multiply-adds that an `i32 × i16` product cannot use on baseline
/// x86-64 (SSE2 has no `pmulld`).
///
/// The caller certifies [`kv_dot_cannot_overflow`]`(kv.cols(), …)`. The
/// combine `acc ← acc·2 + S_g` is linear in the per-group sums `S_g` and
/// every pre-shifted term is bounded by the same license term by term
/// (`|x·q·2^(groups−1−g)| ≤ x_qmax·kv_qmax·(2^groups − 1)`), so all partials
/// fit, integer addition is exact and order-free, and the result equals the
/// combine of [`kv_score_checked`]'s sums bit for bit; the plain `+`/`*`
/// make a debug build panic if a caller's bound is wrong.
pub fn kv_score_block(
    kv: &QuantRows,
    xq: &[i16],
    groups: usize,
    codes: &mut [i16],
    out: &mut [i32],
) {
    assert_eq!(xq.len(), kv.cols(), "query width mismatch");
    assert_eq!(out.len(), kv.rows(), "one sum per cached row");
    kv.decode_shifted_into(groups, codes);
    dot_tile::<1, KV_LANES, i16, i16, i32>(xq, codes, kv.cols(), kv.rows(), out, &|_, s| s);
}

/// Check-free KV **value** kernel: decodes the page once into `codes` and
/// sweeps one `i32` column bank, `out[c] = Σ_j pq[j] · code(j, c) ·
/// 2^(groups − 1 − g(j, c))`, two cached rows per sweep ([`row_pair_mac`]).
/// The caller certifies [`kv_dot_cannot_overflow`]`(kv.rows(), …)`;
/// scratch, exactness argument and debug-build overflow panic as in
/// [`kv_score_block`].
pub fn kv_attn_block(
    kv: &QuantRows,
    pq: &[i16],
    groups: usize,
    codes: &mut [i16],
    out: &mut [i32],
) {
    assert_eq!(pq.len(), kv.rows(), "probability width mismatch");
    assert_eq!(out.len(), kv.cols(), "one sum per column");
    kv.decode_shifted_into(groups, codes);
    out.fill(0);
    let cols = kv.cols();
    let (pairs, last) = pq.as_chunks::<2>();
    let (out_chunks, out_rest) = out.as_chunks_mut::<KV_PAIR_COLS>();
    for (&p, rows) in pairs.iter().zip(codes.chunks_exact(2 * cols)) {
        let (a, b) = rows.split_at(cols);
        let ((a_chunks, a_rest), (b_chunks, b_rest)) = (a.as_chunks(), b.as_chunks());
        for ((o, a), b) in out_chunks.iter_mut().zip(a_chunks).zip(b_chunks) {
            row_pair_mac(o, a, b, p);
        }
        for ((o, &a), &b) in out_rest.iter_mut().zip(a_rest).zip(b_rest) {
            *o += i32::from(a) * i32::from(p[0]) + i32::from(b) * i32::from(p[1]);
        }
    }
    if let &[pv] = last {
        let row = &codes[(pq.len() - 1) * cols..];
        for (o, &q) in out.iter_mut().zip(row) {
            *o += i32::from(pv) * i32::from(q);
        }
    }
}

/// Columns per step of [`kv_attn_block`]'s row-pair sweep.
const KV_PAIR_COLS: usize = 8;

/// `acc[c] += a[c]·p[0] + b[c]·p[1]`: one step of two cached rows `a`, `b`
/// against their probability codes `p`. The rows are interleaved into
/// `i16` pairs first, `Σ` of two adjacent `i16 × i16` products per lane,
/// which the vectorizer lowers to packed 16-bit multiplies; the same sum
/// over a row of `i16` codes times a broadcast `i32` takes emulated 32-bit
/// multiplies on baseline x86-64 (SSE2 has no `pmulld`).
#[inline(always)]
fn row_pair_mac(
    acc: &mut [i32; KV_PAIR_COLS],
    a: &[i16; KV_PAIR_COLS],
    b: &[i16; KV_PAIR_COLS],
    p: [i16; 2],
) {
    let mut x = [0_i16; 2 * KV_PAIR_COLS];
    let mut w = [0_i16; 2 * KV_PAIR_COLS];
    for c in 0..KV_PAIR_COLS {
        [x[2 * c], x[2 * c + 1]] = [a[c], b[c]];
        [w[2 * c], w[2 * c + 1]] = p;
    }
    for (c, o) in acc.iter_mut().enumerate() {
        *o += i32::from(x[2 * c]) * i32::from(w[2 * c])
            + i32::from(x[2 * c + 1]) * i32::from(w[2 * c + 1]);
    }
}

/// Runs a row-partitioned matmul and counts it: serial when the work is
/// small, otherwise one output row per pooled work item. `block(r0, rows,
/// out)` computes output rows `r0..r0 + rows`. Shared by the
/// `Matrix`/`IMatrix` entry points.
pub(crate) fn dispatch_blocks<T: Send>(
    rows: usize,
    k: usize,
    n: usize,
    out: &mut [T],
    block: impl Fn(usize, usize, &mut [T]) + Sync,
) {
    tender_metrics::gemm::REFERENCE_GEMMS.incr();
    if rows * k * n < pool::PAR_THRESHOLD || rows < 2 {
        block(0, rows, out);
    } else {
        pool::par_chunks_mut(out, n, |r, out_row| block(r, 1, out_row));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds an INT4/INT8 store with deterministic pseudo-random contents
    /// spread over `groups` groups (ungrouped when 1).
    fn kv_fixture(rows: usize, cols: usize, bits: u32, groups: usize) -> QuantRows {
        let lim = 1i32 << (bits - 1);
        let mut s = QuantRows::with_row_capacity(cols, bits, groups > 1, rows);
        for r in 0..rows {
            let qs: Vec<i32> = (0..cols)
                .map(|c| ((r * 31 + c * 17 + 5) as i32 % (2 * lim)) - lim)
                .collect();
            let gs: Vec<u8> = if groups > 1 {
                (0..cols).map(|c| ((r + c * 7) % groups) as u8).collect()
            } else {
                Vec::new()
            };
            s.push_row(&qs, &gs);
        }
        s
    }

    /// A store whose every code is the most negative one, all in group 0
    /// (the largest combine weight): the worst case of the fused kernels.
    fn kv_saturated(rows: usize, cols: usize, bits: u32, groups: usize) -> QuantRows {
        let mut s = QuantRows::with_row_capacity(cols, bits, groups > 1, rows);
        let qs = vec![-(1i32 << (bits - 1)); cols];
        let gs = vec![0u8; if groups > 1 { cols } else { 0 }];
        for _ in 0..rows {
            s.push_row(&qs, &gs);
        }
        s
    }

    /// The α = 2 shift-combine over one dot's per-group sums, groups
    /// ascending, counting i32 excursions of every shift and add — the
    /// definition (`model::kv::quant::combine_groups`) that the fused
    /// kernels fold into their pre-shifted codes.
    fn combine(sums: &[i64], events: &mut u64) -> i64 {
        let mut acc = 0i64;
        for &s in sums {
            acc *= 2;
            *events += outside_i32(acc) as u64;
            acc += s;
            *events += outside_i32(acc) as u64;
        }
        acc
    }

    /// Reference scores: the checked per-group walk, then [`combine`].
    fn checked_scores(kv: &QuantRows, xq: &[i16], groups: usize) -> (Vec<i64>, u64) {
        let mut acc = vec![0i64; kv.rows() * groups];
        let mut events = kv_score_checked(kv, xq, groups, &mut acc);
        let sums = acc
            .chunks_exact(groups)
            .map(|row| combine(row, &mut events))
            .collect();
        (sums, events)
    }

    /// Reference value sums: the checked per-group walk, then [`combine`].
    fn checked_values(kv: &QuantRows, pq: &[i16], groups: usize) -> (Vec<i64>, u64) {
        let mut acc = vec![0i64; kv.cols() * groups];
        let mut events = kv_attn_checked(kv, pq, groups, &mut acc);
        let sums = acc
            .chunks_exact(groups)
            .map(|col| combine(col, &mut events))
            .collect();
        (sums, events)
    }

    fn fused_scores(kv: &QuantRows, xq: &[i16], groups: usize) -> Vec<i64> {
        let mut codes = vec![0i16; kv.rows() * kv.cols()];
        let mut out = vec![i32::MIN; kv.rows()]; // stale scratch must not leak
        kv_score_block(kv, xq, groups, &mut codes, &mut out);
        out.into_iter().map(i64::from).collect()
    }

    fn fused_values(kv: &QuantRows, pq: &[i16], groups: usize) -> Vec<i64> {
        let mut codes = vec![0i16; kv.rows() * kv.cols()];
        let mut out = vec![i32::MIN; kv.cols()];
        kv_attn_block(kv, pq, groups, &mut codes, &mut out);
        out.into_iter().map(i64::from).collect()
    }

    #[test]
    fn kv_check_free_paths_equal_the_checked_loop() {
        // Every (bits, groups) through the one fused arm: whole quads
        // (cols 4, 16, 64), ragged rows (1, 7, 19) and a partial page (13).
        // The zeros in both left operands are skipped by the checked loop
        // only; the saturated stores push every term to its bound.
        for (bits, groups) in [(8, 1usize), (4, 1), (4, 4), (4, 2), (8, 4)] {
            for cols in [1usize, 4, 7, 16, 19, 64] {
                for rows in [1usize, 13, 16] {
                    let ctx = format!("{bits}b {groups}g {rows}x{cols}");
                    // Full-range codes with every third one zeroed.
                    let mixed = |n: usize, m: i16| -> Vec<i16> {
                        (0..n as i16)
                            .map(|i| ((i * m) % 255 - 127) * (i % 3 != 1) as i16)
                            .collect()
                    };
                    let (mixed_x, mixed_p) = (mixed(cols, 29), mixed(rows, 37));
                    let zero_x = vec![0i16; cols];
                    let zero_p = vec![0i16; rows];
                    let kv = kv_fixture(rows, cols, bits, groups);
                    let sat = kv_saturated(rows, cols, bits, groups);
                    for (kv, xq, pq) in [
                        (&kv, &mixed_x, &mixed_p),
                        (&kv, &zero_x, &zero_p),
                        (&sat, &vec![127; cols], &vec![127; rows]),
                        (&sat, &vec![-127; cols], &vec![-127; rows]),
                    ] {
                        let (want, events) = checked_scores(kv, xq, groups);
                        assert_eq!(events, 0, "tiny shapes cannot overflow i32 ({ctx})");
                        assert_eq!(fused_scores(kv, xq, groups), want, "scores ({ctx})");
                        let (want, events) = checked_values(kv, pq, groups);
                        assert_eq!(events, 0, "tiny shapes cannot overflow i32 ({ctx})");
                        assert_eq!(fused_values(kv, pq, groups), want, "values ({ctx})");
                    }
                }
            }
        }
    }

    #[test]
    fn kv_score_matches_scalar_definition() {
        // The combined return value against the textbook form: each MAC
        // weighted by its group's power of two, summed in i64.
        let kv = kv_fixture(5, 7, 4, 4);
        let xq: Vec<i16> = vec![3, 0, -2, 1, 4, -1, 2];
        let groups = 4;
        let got = fused_scores(&kv, &xq, groups);
        for (j, &sum) in got.iter().enumerate() {
            let want: i64 = (0..kv.cols())
                .map(|c| {
                    let (q, g) = kv.get(j, c);
                    (xq[c] as i64 * q as i64) << (groups - 1 - g)
                })
                .sum();
            assert_eq!(sum, want, "row {j}");
        }
    }

    #[test]
    fn kv_overflow_bound_gates_realistic_shapes() {
        // INT8 query × INT8 cache, head_dim 128: provably in-range.
        assert!(kv_dot_cannot_overflow(128, 8, 8, 1));
        // INT8 query × INT4 grouped cache at long contexts: still in-range.
        assert!(kv_dot_cannot_overflow(4096, 8, 4, 4));
        // Absurd term counts exceed the i32 datapath and force checks.
        assert!(!kv_dot_cannot_overflow(1 << 22, 8, 8, 1));
        assert!(kv_dot_bound(0, 8, 8, 1) == 0);
    }

    #[test]
    fn kv_checked_path_counts_excursions() {
        // One column, max-magnitude codes: 8-bit query value 128 would be
        // out of spec, so drive with repeated rows instead — every MAC adds
        // 127·(−8) to the same (group, column) accumulator; after enough
        // rows the running value must cross −2^31 and start counting.
        let rows = i32::MAX as usize / (127 * 8) + 2;
        let kv = kv_saturated(rows, 1, 4, 1);
        let pq = vec![127i16; rows];
        assert!(!kv_dot_cannot_overflow(rows, 8, 4, 1));
        let mut acc = vec![0i64; 1];
        let events = kv_attn_checked(&kv, &pq, 1, &mut acc);
        assert!(events > 0, "saturated walk must record excursions");
    }

    #[test]
    fn kv_fused_license_holds_for_every_small_operand() {
        // ROADMAP item 4(e): the fused i32 sum equals the checked i64 walk,
        // which counts no excursion, and stays inside the bound the license
        // is computed from — at one term for every activation code against
        // every INT4 code × tag and every ungrouped INT8 code, and at two
        // terms for every pair of INT4 code × tag against the extreme
        // activation codes.
        let every_act: Vec<i16> = (-128..128).collect();
        let extreme_acts = [-128i16, -127, -1, 0, 1, 127];
        let int4: Vec<(i32, u8)> = (-8..8).flat_map(|q| (0..4).map(move |g| (q, g))).collect();
        let int8: Vec<(i32, u8)> = (-128..128).map(|q| (q, 0)).collect();
        for (bits, groups, operands, terms, acts) in [
            (4, 4, &int4, 1, &every_act[..]),
            (8, 1, &int8, 1, &every_act[..]),
            (4, 4, &int4, 2, &extreme_acts[..]),
        ] {
            let grouped = groups > 1;
            // The `i`-th `terms`-tuple over `n` choices, as base-`n` digits.
            let tuple = |n: usize, i: usize| (0..terms as u32).map(move |t| i / n.pow(t) % n);
            let combos = operands.len().pow(terms as u32);
            let tags = |gs: Vec<u8>| if grouped { gs } else { Vec::new() };
            // Scores see the terms as columns (one row per combination, the
            // per-element decode tail); values see them as rows (one column
            // per combination: whole quads, the vectorized decode arm).
            let mut by_cols = QuantRows::with_row_capacity(terms, bits, grouped, combos);
            for i in 0..combos {
                let (qs, gs): (Vec<i32>, Vec<u8>) =
                    tuple(operands.len(), i).map(|d| operands[d]).unzip();
                by_cols.push_row(&qs, &tags(gs));
            }
            let mut by_rows = QuantRows::with_row_capacity(combos, bits, grouped, terms);
            for t in 0..terms {
                let (qs, gs): (Vec<i32>, Vec<u8>) = (0..combos)
                    .map(|i| (by_cols.get(i, t).0, by_cols.get(i, t).1 as u8))
                    .unzip();
                by_rows.push_row(&qs, &tags(gs));
            }
            assert!(kv_dot_cannot_overflow(terms, 8, bits, groups));
            let bound = kv_dot_bound(terms, 8, bits, groups);
            for i in 0..acts.len().pow(terms as u32) {
                let x: Vec<i16> = tuple(acts.len(), i).map(|d| acts[d]).collect();
                for ((want, events), got) in [
                    (
                        checked_scores(&by_cols, &x, groups),
                        fused_scores(&by_cols, &x, groups),
                    ),
                    (
                        checked_values(&by_rows, &x, groups),
                        fused_values(&by_rows, &x, groups),
                    ),
                ] {
                    assert_eq!(events, 0, "licensed shape counted an excursion");
                    assert_eq!(got, want, "activations {x:?}");
                    assert!(got.iter().all(|s| s.unsigned_abs() as u128 <= bound));
                }
            }
        }
    }

    #[test]
    fn kv_fused_dot_is_exact_up_to_the_last_licensed_term() {
        // The `narrow_dot_reaches_i32_max_without_overflow` pattern: at the
        // largest `terms` the license admits, worst-case operands run
        // through the fused arm's plain `+` without tripping the debug-build
        // overflow check; one more term loses the license, which is what
        // sends the cache to the checked walk.
        for (bits, groups) in [(4u32, 4usize), (8, 1)] {
            let terms = (i32::MAX as u128 / kv_dot_bound(1, 8, bits, groups)) as usize;
            assert!(kv_dot_cannot_overflow(terms, 8, bits, groups));
            assert!(!kv_dot_cannot_overflow(terms + 1, 8, bits, groups));
            // |most negative code · largest combine weight · activation 128|.
            let term = 128i64 << (bits - 1) << (groups - 1);
            // The exact maximum and the widest whole-quad row below it.
            for cols in [terms, terms - terms % 4] {
                let kv = kv_saturated(1, cols, bits, groups);
                for (act, sign) in [(-128i16, 1i64), (128, -1)] {
                    let got = fused_scores(&kv, &vec![act; cols], groups);
                    assert_eq!(got, [sign * term * cols as i64]);
                    assert!(got[0].unsigned_abs() as u128 <= kv_dot_bound(cols, 8, bits, groups));
                }
            }
            let kv = kv_saturated(terms, 1, bits, groups);
            let got = fused_values(&kv, &vec![-128; terms], groups);
            assert_eq!(got, [term * terms as i64]);
        }
        // Ungrouped INT8 is where the bound is tight: the worst row above
        // landed exactly on it, and one more term leaves the i32 range.
        let terms = (i32::MAX as u128 / kv_dot_bound(1, 8, 8, 1)) as usize;
        assert_eq!(128 * 128 * terms as u128, kv_dot_bound(terms, 8, 8, 1));
        let kv = kv_saturated(1, terms + 1, 8, 1);
        let (_, events) = checked_scores(&kv, &vec![-128; terms + 1], 1);
        assert!(events > 0, "one term past a tight bound must overflow");
    }

    #[test]
    fn narrow_dot_matches_i64_definition_at_every_width_and_edge() {
        // Rows off the DOT_ROWS tile (every remainder height, alone and
        // after full tiles), k off (and under) the DOT_LANES chunk, n = 1,
        // and every i16/i32 operand pairing.
        let shapes = [
            (1, 5, 1),
            (2, 40, 3),
            (3, 31, 2),
            (4, 32, 3),
            (6, 33, 2),
            (7, 64, 4),
            (9, 77, 5),
            (6, 0, 2),
        ];
        for (rows, k, n) in shapes {
            let a: Vec<i16> = (0..rows * k).map(|i| (i * 37 % 401) as i16 - 200).collect();
            let bt: Vec<i16> = (0..n * k).map(|i| (i * 53 % 255) as i16 - 127).collect();
            let a32: Vec<i32> = a.iter().map(|&v| v as i32).collect();
            let bt32: Vec<i32> = bt.iter().map(|&v| v as i32).collect();
            let want: Vec<i64> = (0..rows * n)
                .map(|i| {
                    let (r, j) = (i / n, i % n);
                    (0..k)
                        .map(|kk| a[r * k + kk] as i64 * bt[j * k + kk] as i64)
                        .sum::<i64>()
                        + j as i64
                })
                .collect();
            let finish = |j: usize, acc: i32| acc as i64 + j as i64;
            let mut out = vec![0_i64; rows * n];
            narrow_dot_block(&a, &bt, k, n, &mut out, finish);
            assert_eq!(out, want, "i16×i16 {rows}×{k}×{n}");
            narrow_dot_block(&a32, &bt, k, n, &mut out, finish);
            assert_eq!(out, want, "i32×i16 {rows}×{k}×{n}");
            narrow_dot_block(&a, &bt32, k, n, &mut out, finish);
            assert_eq!(out, want, "i16×i32 {rows}×{k}×{n}");
            narrow_dot_block(&a32, &bt32, k, n, &mut out, finish);
            assert_eq!(out, want, "i32×i32 {rows}×{k}×{n}");
        }
    }

    #[test]
    fn narrow_dot_reaches_i32_max_without_overflow() {
        // Worst-case operands summing to exactly i32::MAX: the plain `+`
        // must not trip the debug-build overflow check anywhere on the way.
        let k = 64;
        let a = vec![i16::MAX; k];
        let mut bt = vec![1024_i16; k]; // 64 · 32767 · 1024 = 2^31 − 2^16
        bt[0] += 2; // + 2 · 32767 = 2^31 − 2
        let mut out = [0_i32; 1];
        narrow_dot_block(&a, &bt, k, 1, &mut out, |_, acc| acc);
        assert_eq!(out[0], i32::MAX - 1);
        let neg: Vec<i16> = a.iter().map(|&v| -v).collect();
        narrow_dot_block(&neg, &bt, k, 1, &mut out, |_, acc| acc);
        assert_eq!(out[0], -(i32::MAX - 1));
    }

    #[test]
    fn degenerate_shapes_are_no_ops() {
        let mut out: Vec<f32> = vec![];
        f32_block(&[], 0, &[], 4, &mut out);
        f32_block(&[1.0, 2.0], 2, &[], 0, &mut out);
        f32_packed_block(&[], 0, &[], 4, &mut out);
        f32_packed_block(&[1.0, 2.0], 2, &[], 0, &mut out);
        assert!(out.is_empty());
    }
}
