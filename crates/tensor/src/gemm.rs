//! Pluggable GEMM kernel backends with a strict bit-identity contract.
//!
//! Every matrix product in the workspace runs through a [`GemmBackend`].
//! Two implementations exist:
//!
//! * [`ReferenceBackend`] — the original row-at-a-time i-k-j loops, kept
//!   verbatim as the semantic definition.
//! * [`BlockedBackend`] — a cache-blocked, register-tiled kernel: each
//!   output row is produced `NR` columns at a time in a bank of register
//!   accumulators, and pooled dispatch hands each worker [`MR`] rows so the
//!   `k × NR` panel of the right-hand operand stays cache-resident across
//!   the block.
//!
//! # Determinism contract
//!
//! Backends may reorder *which* output elements are computed when, but not
//! the accumulation chain *within* one output element. Both backends visit
//! `k` in ascending order per element, apply the identical zero-skip on the
//! left operand, and keep a single accumulator per element (f32 register
//! values round-trip exactly through memory), so `Blocked` output is
//! byte-identical to `Reference` at any thread count. The cross-backend
//! differential harness (`tests/backend_diff.rs` and its quant-level twin)
//! pins this property over random shapes.
//!
//! # Narrow integer products
//!
//! [`narrow_dot_block`] stands outside the backend trait: it multiplies
//! `i16`/`i32` codes against a transposed, K-contiguous right operand on a
//! 32-bit accumulator, for callers that can prove the accumulator bound.
//! Integer sums under that bound are exact and order-free, so one kernel is
//! byte-identical to the `i64` definition under either backend and needs no
//! twin.
//!
//! # Selection
//!
//! The process-wide backend starts unresolved; the first [`current`] call
//! resolves the `TENDER_BACKEND` environment variable (`reference` or
//! `blocked`, defaulting to `reference`). [`set_backend`] — reached from the
//! CLI `--backend` flag — overrides the selection at any time. Kernels that
//! must compare backends directly (the differential tests) bypass the global
//! via [`backend`].

use crate::pool;
use crate::qrows::QuantRows;
use std::sync::atomic::{AtomicU8, Ordering};
use tender_metrics::gemm as metrics;

/// Output columns per register tile of the blocked kernel.
pub const NR: usize = 8;

/// Rows per pooled work item for the blocked kernel: one worker computes
/// `MR` output rows against the same `k × NR` panels, so panel loads from
/// the right-hand operand amortize across the block.
pub const MR: usize = 16;

/// Identifies a GEMM backend implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// The original row-partitioned i-k-j loops (semantic definition).
    Reference,
    /// Cache-blocked, register-tiled kernel (bit-identical, faster).
    Blocked,
}

impl BackendKind {
    /// Parses a backend name as accepted by `TENDER_BACKEND` and the CLI
    /// `--backend` flag (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "reference" | "ref" => Some(Self::Reference),
            "blocked" => Some(Self::Blocked),
            _ => None,
        }
    }

    /// Canonical lower-case name.
    pub fn label(self) -> &'static str {
        match self {
            Self::Reference => "reference",
            Self::Blocked => "blocked",
        }
    }
}

/// 0 = unresolved, 1 = Reference, 2 = Blocked.
static SELECTED: AtomicU8 = AtomicU8::new(0);

fn encode(kind: BackendKind) -> u8 {
    match kind {
        BackendKind::Reference => 1,
        BackendKind::Blocked => 2,
    }
}

/// Selects the process-wide GEMM backend (overrides `TENDER_BACKEND`).
pub fn set_backend(kind: BackendKind) {
    SELECTED.store(encode(kind), Ordering::Relaxed);
}

/// The currently selected process-wide backend.
///
/// Unresolved state reads `TENDER_BACKEND` (unknown values fall back to
/// `Reference`); afterwards the choice is sticky until [`set_backend`].
pub fn current() -> BackendKind {
    match SELECTED.load(Ordering::Relaxed) {
        1 => BackendKind::Reference,
        2 => BackendKind::Blocked,
        _ => {
            let kind = std::env::var("TENDER_BACKEND")
                .ok()
                .and_then(|s| BackendKind::parse(&s))
                .unwrap_or(BackendKind::Reference);
            // Resolve exactly once; a concurrent set_backend still wins.
            let _ =
                SELECTED.compare_exchange(0, encode(kind), Ordering::Relaxed, Ordering::Relaxed);
            match SELECTED.load(Ordering::Relaxed) {
                2 => BackendKind::Blocked,
                _ => BackendKind::Reference,
            }
        }
    }
}

/// A GEMM kernel implementation.
///
/// Each `*_block` method computes `out = a · b` for a block of output rows:
/// `a` is `rows × k` row-major (with `rows = a.len() / k`), `b` is `k × n`
/// row-major, and `out` (`rows × n`, zero-initialized by the caller) receives
/// the product. Implementations must preserve the per-element accumulation
/// order documented at the module level.
pub trait GemmBackend: Sync {
    /// Which backend this is.
    fn kind(&self) -> BackendKind;

    /// Output rows per pooled work item when a matmul partitions rows.
    fn rows_per_block(&self) -> usize;

    /// Packs the full-width tiles of `b` into this backend's panel layout,
    /// or returns an empty `Vec` when the backend consumes `b` in place.
    /// Entry points call this **once per matmul** and hand the result to
    /// every `*_block` call, so pooled workers share one packing pass.
    fn pack_f32(&self, _b: &[f32], _k: usize, _n: usize) -> Vec<f32> {
        Vec::new()
    }

    /// Integer twin of [`Self::pack_f32`] (shared by the i32 and i64
    /// kernels, whose right-hand operand is `i32` either way).
    fn pack_i32(&self, _b: &[i32], _k: usize, _n: usize) -> Vec<i32> {
        Vec::new()
    }

    /// f32 block product. `packed` is this backend's [`Self::pack_f32`]
    /// output for `b` (pass `&[]` to let the backend pack privately).
    fn f32_block(&self, a: &[f32], k: usize, b: &[f32], n: usize, packed: &[f32], out: &mut [f32]);

    /// i32 block product (i32 accumulation, hardware datapath semantics).
    fn i32_block(&self, a: &[i32], k: usize, b: &[i32], n: usize, packed: &[i32], out: &mut [i32]);

    /// i32 operands with i64 accumulation (overflow-safety analysis).
    fn i64_block(&self, a: &[i32], k: usize, b: &[i32], n: usize, packed: &[i32], out: &mut [i64]);

    /// Integer-domain KV **score** kernel: the quantized query row `xq`
    /// (length `kv.cols()`) dotted against every packed row of `kv`
    /// without dequantizing, keeping one i64 partial sum per
    /// `(row, group)`: `acc[j * groups + g] += Σ_{c ∈ group g} xq[c] ·
    /// code(j, c)`. `acc` must be zeroed, `kv.rows() * groups` long; the
    /// caller applies the α-shift combine across groups and the f32
    /// scales/bias afterwards. Columns walk ascending. With `check` true
    /// each MAC's accumulator is tested against the i32 range (the
    /// hardware datapath width), left-operand zeros are skipped (the
    /// fixed-chain discipline shared with the f32 kernels), and the
    /// excursion count is returned. The fast path gated by
    /// [`kv_dot_cannot_overflow`] returns 0 and is free to accumulate
    /// densely in i32 — the bound certifies every partial stays in range,
    /// and integer addition is exact, so skipping nothing and narrowing
    /// the accumulator both leave the sums bit-identical across backends
    /// and check modes.
    fn kv_score_block(
        &self,
        kv: &QuantRows,
        xq: &[i32],
        groups: usize,
        check: bool,
        acc: &mut [i64],
    ) -> u64;

    /// Integer-domain KV **value** kernel: the quantized probability row
    /// `pq` (length `kv.rows()`) against the packed rows of `kv`,
    /// accumulating per `(group, column)`: `acc[g * kv.cols() + c] +=
    /// Σ_j pq[j] · code(j, c)`. `acc` must be zeroed, `groups * kv.cols()`
    /// long. Rows walk ascending; check-mode and fast-path semantics match
    /// [`kv_score_block`](GemmBackend::kv_score_block).
    fn kv_attn_block(
        &self,
        kv: &QuantRows,
        pq: &[i32],
        groups: usize,
        check: bool,
        acc: &mut [i64],
    ) -> u64;
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
/// [`narrow_dot_block`]; divides [`MR`], the row count callers hand it per
/// pooled work item.
const DOT_ROWS: usize = 4;

/// Operands per fixed-size partial dot product of [`narrow_dot_block`]: a
/// sum of this many adjacent `i16 × i16` products is the shape the
/// vectorizer lowers to packed multiply-add pairs (four `pmaddwd` on
/// baseline x86-64) followed by one horizontal add.
const DOT_LANES: usize = 32;

/// `Σ a[l] · b[l]` over one [`DOT_LANES`]-wide chunk.
#[inline(always)]
fn dot_chunk<A, B>(a: &[A; DOT_LANES], b: &[B; DOT_LANES]) -> i32
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
/// column, accumulated in `i32`: `a` holds `R` rows of `b.len()` elements
/// back to back.
#[inline(always)]
fn dot_rows<const R: usize, A, B>(a: &[A], b: &[B]) -> [i32; R]
where
    A: Copy + Into<i32>,
    B: Copy + Into<i32>,
{
    let k = b.len();
    let (b_chunks, b_rest) = b.as_chunks::<DOT_LANES>();
    let rows: [(&[[A; DOT_LANES]], &[A]); R] =
        std::array::from_fn(|r| a[r * k..(r + 1) * k].as_chunks::<DOT_LANES>());
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
/// through each `bt` column together, so a column is read once per row
/// tile.
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
        for (j, b_col) in bt.chunks_exact(k).enumerate() {
            let acc = dot_rows::<DOT_ROWS, A, B>(a_tile, b_col);
            for (r, &s) in acc.iter().enumerate() {
                out_tile[r * n + j] = finish(j, s);
            }
        }
    }
    for (a_row, out_row) in a_rest.chunks_exact(k).zip(out_rest.chunks_exact_mut(n)) {
        for ((j, b_col), o) in bt.chunks_exact(k).enumerate().zip(out_row) {
            let [s] = dot_rows::<1, A, B>(a_row, b_col);
            *o = finish(j, s);
        }
    }
}

/// Panel-major packing of `b`'s full-width tiles: panel `t` holds columns
/// `t*NR..t*NR+NR` as `k` consecutive NR-wide rows. A pure copy — packing
/// cannot perturb a single bit of the arithmetic. The kk-outer loop reads
/// `b` sequentially; the strided writes land in at most `n/NR` cache lines
/// at a time.
fn pack_panels<T: Copy>(b: &[T], k: usize, n: usize, zero: T) -> Vec<T> {
    let full = n - n % NR;
    let mut packed = vec![zero; k * full];
    for kk in 0..k {
        for (t, chunk) in b[kk * n..kk * n + full].chunks_exact(NR).enumerate() {
            packed[t * k * NR + kk * NR..][..NR].copy_from_slice(chunk);
        }
    }
    packed
}

/// The original row-at-a-time i-k-j loops, unchanged semantics.
pub struct ReferenceBackend;

impl GemmBackend for ReferenceBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Reference
    }

    fn rows_per_block(&self) -> usize {
        1
    }

    fn f32_block(
        &self,
        a: &[f32],
        k: usize,
        b: &[f32],
        n: usize,
        _packed: &[f32],
        out: &mut [f32],
    ) {
        if k == 0 || n == 0 {
            return;
        }
        for (a_row, out_row) in a.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
            for (kk, &av) in a_row.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let b_row = &b[kk * n..(kk + 1) * n];
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
        }
    }

    fn i32_block(
        &self,
        a: &[i32],
        k: usize,
        b: &[i32],
        n: usize,
        _packed: &[i32],
        out: &mut [i32],
    ) {
        if k == 0 || n == 0 {
            return;
        }
        for (a_row, out_row) in a.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
            for (kk, &av) in a_row.iter().enumerate() {
                if av == 0 {
                    continue;
                }
                let b_row = &b[kk * n..(kk + 1) * n];
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
        }
    }

    fn i64_block(
        &self,
        a: &[i32],
        k: usize,
        b: &[i32],
        n: usize,
        _packed: &[i32],
        out: &mut [i64],
    ) {
        if k == 0 || n == 0 {
            return;
        }
        for (a_row, out_row) in a.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
            for (kk, &av) in a_row.iter().enumerate() {
                if av == 0 {
                    continue;
                }
                let av = av as i64;
                let b_row = &b[kk * n..(kk + 1) * n];
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += av * bv as i64;
                }
            }
        }
    }

    fn kv_score_block(
        &self,
        kv: &QuantRows,
        xq: &[i32],
        groups: usize,
        check: bool,
        acc: &mut [i64],
    ) -> u64 {
        assert_eq!(xq.len(), kv.cols(), "query width mismatch");
        assert_eq!(acc.len(), kv.rows() * groups, "accumulator bank mismatch");
        let mut events = 0u64;
        if check {
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
            return events;
        }
        // Check-free: the caller's bound certifies i32 partials, so
        // accumulate densely in i32 (no zero-skip — exact integer sums
        // are identical either way). Rows are only `head_dim` wide, so
        // per-row fixed costs matter: INT8 ungrouped dots the
        // sign-extended bytes in place; other shapes bulk-decode each row
        // once.
        if groups == 1 && kv.bits() == 8 {
            for (j, a) in acc.iter_mut().enumerate() {
                let mut s = 0i32;
                for (&xv, &b) in xq.iter().zip(kv.row_vals(j)) {
                    s += xv * (b as i8 as i32);
                }
                *a += s as i64;
            }
            return 0;
        }
        let cols = kv.cols();
        let mut qs = vec![0i32; cols];
        let mut gs = vec![0u8; cols];
        if groups == 4 {
            // Four-group (Tender INT4) rows: a register bank indexed by
            // the 2-bit group code (`g & 3` proves the index in range).
            for j in 0..kv.rows() {
                kv.decode_row_into(j, &mut qs, &mut gs);
                let mut local = [0i32; 4];
                for ((&xv, &q), &g) in xq.iter().zip(&qs).zip(&gs) {
                    local[(g & 3) as usize] += xv * q;
                }
                for (a, &l) in acc[j * 4..(j + 1) * 4].iter_mut().zip(&local) {
                    *a += l as i64;
                }
            }
            return 0;
        }
        let mut local = vec![0i32; groups];
        for j in 0..kv.rows() {
            kv.decode_row_into(j, &mut qs, &mut gs);
            let accs = &mut acc[j * groups..(j + 1) * groups];
            local.fill(0);
            for ((&xv, &q), &g) in xq.iter().zip(&qs).zip(&gs) {
                local[g as usize] += xv * q;
            }
            for (a, &l) in accs.iter_mut().zip(&local) {
                *a += l as i64;
            }
        }
        events
    }

    fn kv_attn_block(
        &self,
        kv: &QuantRows,
        pq: &[i32],
        groups: usize,
        check: bool,
        acc: &mut [i64],
    ) -> u64 {
        assert_eq!(pq.len(), kv.rows(), "probability width mismatch");
        assert_eq!(acc.len(), groups * kv.cols(), "accumulator bank mismatch");
        let cols = kv.cols();
        let mut events = 0u64;
        if check {
            for (j, &pv) in pq.iter().enumerate() {
                if pv == 0 {
                    continue;
                }
                let pv = pv as i64;
                for (c, (q, g)) in kv.row_iter(j).enumerate() {
                    let a = &mut acc[g * cols + c];
                    *a += pv * q as i64;
                    if outside_i32(*a) {
                        events += 1;
                    }
                }
            }
        } else if groups == 1 && kv.bits() == 8 {
            // Check-free INT8 ungrouped: dense i32 column bank swept
            // directly over the sign-extended bytes, widened once.
            let mut local = vec![0i32; cols];
            for (j, &pv) in pq.iter().enumerate() {
                for (l, &b) in local.iter_mut().zip(kv.row_vals(j)) {
                    *l += pv * (b as i8 as i32);
                }
            }
            for (a, &l) in acc.iter_mut().zip(&local) {
                *a += l as i64;
            }
        } else {
            // Check-free: bulk-decode each row once and sweep dense i32
            // banks, widened once at the end (the caller's bound certifies
            // every partial stays in i32 range).
            let mut qs = vec![0i32; cols];
            let mut gs = vec![0u8; cols];
            let mut local = vec![0i32; groups * cols];
            for (j, &pv) in pq.iter().enumerate() {
                if pv == 0 {
                    continue;
                }
                kv.decode_row_into(j, &mut qs, &mut gs);
                for (c, (&q, &g)) in qs.iter().zip(&gs).enumerate() {
                    local[g as usize * cols + c] += pv * q;
                }
            }
            for (a, &l) in acc.iter_mut().zip(&local) {
                *a += l as i64;
            }
        }
        events
    }
}

/// Cache-blocked, register-tiled kernel.
///
/// Operates on `b` **packed** into panel-major layout — tile `t` becomes a
/// contiguous `k × NR` panel, packed once per matmul via [`pack_panels`]
/// and shared by every pooled worker — and produces each output row `NR`
/// columns at a time: a bank of `NR` register accumulators runs the full
/// `k` loop (ascending, with the reference zero-skip) against one
/// sequential panel, then stores once. Packing is a pure copy, so it
/// cannot perturb a single bit of the arithmetic.
///
/// The speedup has two sources. The reference kernel re-streams all of `b`
/// (n-wide rows) for every output row and rewrites the n-wide output row on
/// every `k` step; the blocked kernel touches `b` once to pack, walks L1-hot
/// panels for the rest of the block (panels are revisited row after row
/// within an [`MR`]-row work item), and writes each output element exactly
/// once. Without packing the tile walk would stride `4·n` bytes per `k`
/// step — a page per access at large `n`, defeating the prefetchers — which
/// measures *slower* than the reference streams.
pub struct BlockedBackend;

/// One register tile: `NR` columns of one output row against one packed
/// `k × NR` panel, `k` ascending, manually unrolled over the accumulator
/// bank.
macro_rules! blocked_tile {
    ($a_row:expr, $panel:expr, $j0:expr, $out_row:expr,
     $acc_ty:ty, $zero:expr, $skip:expr, $mac:expr) => {{
        let mut acc: [$acc_ty; NR] = [$zero; NR];
        for (&av, bp) in $a_row.iter().zip($panel.chunks_exact(NR)) {
            if $skip(av) {
                continue;
            }
            let bp: &[_; NR] = bp.try_into().expect("panel width NR");
            acc[0] = $mac(acc[0], av, bp[0]);
            acc[1] = $mac(acc[1], av, bp[1]);
            acc[2] = $mac(acc[2], av, bp[2]);
            acc[3] = $mac(acc[3], av, bp[3]);
            acc[4] = $mac(acc[4], av, bp[4]);
            acc[5] = $mac(acc[5], av, bp[5]);
            acc[6] = $mac(acc[6], av, bp[6]);
            acc[7] = $mac(acc[7], av, bp[7]);
        }
        $out_row[$j0..$j0 + NR].copy_from_slice(&acc);
    }};
}

/// Two register tiles sharing one panel walk: `NR` columns of **two**
/// output rows advance through the packed panel in lockstep, so every
/// panel line loaded from cache feeds two accumulator banks. Each row
/// keeps its own bank and its own zero-skip, so each output element's
/// accumulation chain is exactly the single-row chain.
macro_rules! blocked_tile2 {
    ($a0:expr, $a1:expr, $panel:expr, $j0:expr, $o0:expr, $o1:expr,
     $acc_ty:ty, $zero:expr, $skip:expr, $mac:expr) => {{
        let mut acc0: [$acc_ty; NR] = [$zero; NR];
        let mut acc1: [$acc_ty; NR] = [$zero; NR];
        for (kk, bp) in $panel.chunks_exact(NR).enumerate() {
            let bp: &[_; NR] = bp.try_into().expect("panel width NR");
            let av0 = $a0[kk];
            if !$skip(av0) {
                acc0[0] = $mac(acc0[0], av0, bp[0]);
                acc0[1] = $mac(acc0[1], av0, bp[1]);
                acc0[2] = $mac(acc0[2], av0, bp[2]);
                acc0[3] = $mac(acc0[3], av0, bp[3]);
                acc0[4] = $mac(acc0[4], av0, bp[4]);
                acc0[5] = $mac(acc0[5], av0, bp[5]);
                acc0[6] = $mac(acc0[6], av0, bp[6]);
                acc0[7] = $mac(acc0[7], av0, bp[7]);
            }
            let av1 = $a1[kk];
            if !$skip(av1) {
                acc1[0] = $mac(acc1[0], av1, bp[0]);
                acc1[1] = $mac(acc1[1], av1, bp[1]);
                acc1[2] = $mac(acc1[2], av1, bp[2]);
                acc1[3] = $mac(acc1[3], av1, bp[3]);
                acc1[4] = $mac(acc1[4], av1, bp[4]);
                acc1[5] = $mac(acc1[5], av1, bp[5]);
                acc1[6] = $mac(acc1[6], av1, bp[6]);
                acc1[7] = $mac(acc1[7], av1, bp[7]);
            }
        }
        $o0[$j0..$j0 + NR].copy_from_slice(&acc0);
        $o1[$j0..$j0 + NR].copy_from_slice(&acc1);
    }};
}

/// Edge columns (`n % NR`): scalar accumulators over the unpacked operand,
/// identical k order. Edge tiles are never zero-padded to `NR` — an
/// `acc + av·0.0` pad step could turn a `-0.0` accumulator into `+0.0`.
macro_rules! blocked_edge {
    ($a_row:expr, $b:expr, $n:expr, $j0:expr, $jw:expr, $out_row:expr,
     $acc_ty:ty, $zero:expr, $skip:expr, $mac:expr) => {{
        for jj in 0..$jw {
            let mut acc: $acc_ty = $zero;
            for (kk, &av) in $a_row.iter().enumerate() {
                if $skip(av) {
                    continue;
                }
                acc = $mac(acc, av, $b[kk * $n + $j0 + jj]);
            }
            $out_row[$j0 + jj] = acc;
        }
    }};
}

macro_rules! blocked_block {
    ($a:expr, $k:expr, $b:expr, $n:expr, $packed:expr, $out:expr, $pair:expr,
     $b_zero:expr, $acc_ty:ty, $zero:expr, $skip:expr, $mac:expr) => {{
        if $k == 0 || $n == 0 {
            return;
        }
        let full = $n - $n % NR;
        let rows = $a.len() / $k;
        metrics::TILES_DISPATCHED.add(($n.div_ceil(NR) * rows) as u64);
        // Entry points pack once per matmul and share the panels across all
        // pooled blocks; a direct call with `&[]` packs privately here.
        let owned;
        let packed = if $packed.is_empty() && full > 0 {
            owned = pack_panels($b, $k, $n, $b_zero);
            &owned[..]
        } else {
            $packed
        };
        debug_assert_eq!(packed.len(), $k * full, "packed panels for wrong shape");
        for (t, panel) in packed.chunks_exact($k * NR).enumerate() {
            let j0 = t * NR;
            // Row pairs share each panel walk where the datapath profits
            // from it (f32 FMA ports keep up with two banks; the integer
            // multipliers do not). Chains per element are identical either
            // way, so `$pair` is purely a tuning knob.
            let even = if $pair { rows - rows % 2 } else { 0 };
            let mut r = 0;
            while r < even {
                let (lo, hi) = $out.split_at_mut((r + 1) * $n);
                blocked_tile2!(
                    &$a[r * $k..(r + 1) * $k],
                    &$a[(r + 1) * $k..(r + 2) * $k],
                    panel,
                    j0,
                    &mut lo[r * $n..],
                    hi,
                    $acc_ty,
                    $zero,
                    $skip,
                    $mac
                );
                r += 2;
            }
            while r < rows {
                blocked_tile!(
                    &$a[r * $k..(r + 1) * $k],
                    panel,
                    j0,
                    &mut $out[r * $n..],
                    $acc_ty,
                    $zero,
                    $skip,
                    $mac
                );
                r += 1;
            }
        }
        if full < $n {
            for (a_row, out_row) in $a.chunks_exact($k).zip($out.chunks_exact_mut($n)) {
                blocked_edge!(
                    a_row,
                    $b,
                    $n,
                    full,
                    $n - full,
                    out_row,
                    $acc_ty,
                    $zero,
                    $skip,
                    $mac
                );
            }
        }
    }};
}

impl GemmBackend for BlockedBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Blocked
    }

    fn rows_per_block(&self) -> usize {
        MR
    }

    fn pack_f32(&self, b: &[f32], k: usize, n: usize) -> Vec<f32> {
        pack_panels(b, k, n, 0.0_f32)
    }

    fn pack_i32(&self, b: &[i32], k: usize, n: usize) -> Vec<i32> {
        pack_panels(b, k, n, 0_i32)
    }

    fn f32_block(&self, a: &[f32], k: usize, b: &[f32], n: usize, packed: &[f32], out: &mut [f32]) {
        blocked_block!(
            a,
            k,
            b,
            n,
            packed,
            out,
            true,
            0.0_f32,
            f32,
            0.0_f32,
            |av: f32| av == 0.0,
            |acc: f32, av: f32, bv: f32| acc + av * bv
        );
    }

    fn i32_block(&self, a: &[i32], k: usize, b: &[i32], n: usize, packed: &[i32], out: &mut [i32]) {
        blocked_block!(
            a,
            k,
            b,
            n,
            packed,
            out,
            false,
            0_i32,
            i32,
            0_i32,
            |av: i32| av == 0,
            |acc: i32, av: i32, bv: i32| acc + av * bv
        );
    }

    fn i64_block(&self, a: &[i32], k: usize, b: &[i32], n: usize, packed: &[i32], out: &mut [i64]) {
        blocked_block!(
            a,
            k,
            b,
            n,
            packed,
            out,
            false,
            0_i32,
            i64,
            0_i64,
            |av: i32| av == 0,
            |acc: i64, av: i32, bv: i32| acc + av as i64 * bv as i64
        );
    }

    /// The blocked KV kernels avoid per-MAC bit extraction: INT8 ungrouped
    /// check-free dots run directly over the sign-extended code bytes with
    /// dense i32 accumulators (the caller's bound certifies i32 partials);
    /// every other shape bulk-decodes each packed row into scratch once and
    /// runs dense loops over the decoded values. The checked path keeps the
    /// reference chain exactly (left-operand zero-skip, per-MAC i32-range
    /// test on the i64 accumulator). Integer arithmetic is exact, so the
    /// sums — and the overflow-event counts, which test the same
    /// accumulator values at the same points — are bit-identical to
    /// [`ReferenceBackend`] by construction.
    fn kv_score_block(
        &self,
        kv: &QuantRows,
        xq: &[i32],
        groups: usize,
        check: bool,
        acc: &mut [i64],
    ) -> u64 {
        assert_eq!(xq.len(), kv.cols(), "query width mismatch");
        assert_eq!(acc.len(), kv.rows() * groups, "accumulator bank mismatch");
        let cols = kv.cols();
        if !check && groups == 1 && kv.bits() == 8 {
            // INT8 ungrouped fast path: dot the sign-extended bytes in
            // place — no scratch, one dense i32 register accumulator per
            // row (the caller's bound certifies i32 partials; dense vs
            // zero-skip cannot change an exact integer sum).
            for (j, a) in acc.iter_mut().enumerate() {
                let vals = kv.row_vals(j);
                let mut s = 0i32;
                for (&xv, &b) in xq.iter().zip(vals) {
                    s += xv * (b as i8 as i32);
                }
                *a += s as i64;
            }
            return 0;
        }
        let mut qs = vec![0i32; cols];
        let mut gs = vec![0u8; cols];
        let mut local = vec![0i32; groups];
        let mut events = 0u64;
        for j in 0..kv.rows() {
            kv.decode_row_into(j, &mut qs, &mut gs);
            let accs = &mut acc[j * groups..(j + 1) * groups];
            if check {
                for ((&xv, &q), &g) in xq.iter().zip(&qs).zip(&gs) {
                    if xv == 0 {
                        continue;
                    }
                    let a = &mut accs[g as usize];
                    *a += xv as i64 * q as i64;
                    if outside_i32(*a) {
                        events += 1;
                    }
                }
            } else if groups == 4 {
                // Four-group (Tender INT4) rows: a register bank indexed
                // by the 2-bit group code (`g & 3` proves the index in
                // range).
                let mut bank = [0i32; 4];
                for ((&xv, &q), &g) in xq.iter().zip(&qs).zip(&gs) {
                    bank[(g & 3) as usize] += xv * q;
                }
                for (a, &l) in accs.iter_mut().zip(&bank) {
                    *a += l as i64;
                }
            } else {
                // Grouped check-free path: dense i32 group accumulators,
                // widened once per row.
                local.fill(0);
                for ((&xv, &q), &g) in xq.iter().zip(&qs).zip(&gs) {
                    local[g as usize] += xv * q;
                }
                for (a, &l) in accs.iter_mut().zip(&local) {
                    *a += l as i64;
                }
            }
        }
        events
    }

    fn kv_attn_block(
        &self,
        kv: &QuantRows,
        pq: &[i32],
        groups: usize,
        check: bool,
        acc: &mut [i64],
    ) -> u64 {
        assert_eq!(pq.len(), kv.rows(), "probability width mismatch");
        assert_eq!(acc.len(), groups * kv.cols(), "accumulator bank mismatch");
        let cols = kv.cols();
        if !check && groups == 1 && kv.bits() == 8 {
            // INT8 ungrouped fast path: dense i32 column bank swept
            // directly over the sign-extended bytes, widened once.
            let mut local = vec![0i32; cols];
            for (j, &pv) in pq.iter().enumerate() {
                let vals = kv.row_vals(j);
                for (l, &b) in local.iter_mut().zip(vals) {
                    *l += pv * (b as i8 as i32);
                }
            }
            for (a, &l) in acc.iter_mut().zip(&local) {
                *a += l as i64;
            }
            return 0;
        }
        let mut qs = vec![0i32; cols];
        let mut gs = vec![0u8; cols];
        let mut events = 0u64;
        if check {
            for (j, &pv) in pq.iter().enumerate() {
                if pv == 0 {
                    continue;
                }
                kv.decode_row_into(j, &mut qs, &mut gs);
                let pv = pv as i64;
                for (c, (&q, &g)) in qs.iter().zip(&gs).enumerate() {
                    let a = &mut acc[g as usize * cols + c];
                    *a += pv * q as i64;
                    if outside_i32(*a) {
                        events += 1;
                    }
                }
            }
        } else {
            // Grouped check-free path: dense i32 banks over the bulk-decoded
            // row, widened once at the end.
            let mut local = vec![0i32; groups * cols];
            for (j, &pv) in pq.iter().enumerate() {
                if pv == 0 {
                    continue;
                }
                kv.decode_row_into(j, &mut qs, &mut gs);
                for (c, (&q, &g)) in qs.iter().zip(&gs).enumerate() {
                    local[g as usize * cols + c] += pv * q;
                }
            }
            for (a, &l) in acc.iter_mut().zip(&local) {
                *a += l as i64;
            }
        }
        events
    }
}

static REFERENCE: ReferenceBackend = ReferenceBackend;
static BLOCKED: BlockedBackend = BlockedBackend;

/// The backend implementation for `kind`.
pub fn backend(kind: BackendKind) -> &'static dyn GemmBackend {
    match kind {
        BackendKind::Reference => &REFERENCE,
        BackendKind::Blocked => &BLOCKED,
    }
}

/// The implementation for the process-wide selection ([`current`]).
pub fn active_backend() -> &'static dyn GemmBackend {
    backend(current())
}

/// The reference implementation, independent of the global selection.
pub fn reference_backend() -> &'static dyn GemmBackend {
    &REFERENCE
}

/// The blocked implementation, independent of the global selection.
pub fn blocked_backend() -> &'static dyn GemmBackend {
    &BLOCKED
}

/// Records one matmul dispatch in the per-backend counters.
pub(crate) fn record_dispatch(kind: BackendKind) {
    match kind {
        BackendKind::Reference => metrics::REFERENCE_GEMMS.incr(),
        BackendKind::Blocked => metrics::BLOCKED_GEMMS.incr(),
    }
}

/// Runs a block-partitioned matmul through `backend`: serial when the work
/// is small, otherwise `rows_per_block()`-row chunks across the pool. Shared
/// by the `Matrix`/`IMatrix` entry points.
pub(crate) fn dispatch_blocks<T: Send, F>(
    backend: &dyn GemmBackend,
    rows: usize,
    k: usize,
    n: usize,
    out: &mut [T],
    block: F,
) where
    F: Fn(&dyn GemmBackend, usize, usize, &mut [T]) + Sync,
{
    let work = rows * k * n;
    if work < pool::PAR_THRESHOLD || rows < 2 {
        block(backend, 0, rows, out);
    } else {
        let rpb = backend.rows_per_block();
        pool::par_chunks_mut(out, rpb * n, |bi, out_block| {
            let r0 = bi * rpb;
            let block_rows = out_block.len() / n;
            block(backend, r0, block_rows, out_block);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_known_names() {
        assert_eq!(
            BackendKind::parse("reference"),
            Some(BackendKind::Reference)
        );
        assert_eq!(BackendKind::parse("REF"), Some(BackendKind::Reference));
        assert_eq!(BackendKind::parse(" Blocked "), Some(BackendKind::Blocked));
        assert_eq!(BackendKind::parse("fancy"), None);
        assert_eq!(BackendKind::Blocked.label(), "blocked");
    }

    #[test]
    fn blocks_agree_on_small_fixed_case() {
        // 3 rows, k = 5, n = NR + 3 → one full tile and one edge tile per row.
        let k = 5;
        let n = NR + 3;
        let a: Vec<f32> = (0..3 * k).map(|i| (i as f32 - 7.0) * 0.25).collect();
        let b: Vec<f32> = (0..k * n).map(|i| ((i * 7) % 11) as f32 - 5.0).collect();
        let mut ref_out = vec![0.0_f32; 3 * n];
        let mut blk_out = vec![0.0_f32; 3 * n];
        reference_backend().f32_block(&a, k, &b, n, &[], &mut ref_out);
        blocked_backend().f32_block(&a, k, &b, n, &[], &mut blk_out);
        for (r, bl) in ref_out.iter().zip(&blk_out) {
            assert_eq!(r.to_bits(), bl.to_bits());
        }
    }

    #[test]
    fn integer_blocks_agree_with_zero_skip_rows() {
        let k = 9;
        let n = 2 * NR; // full tiles only
        let mut a: Vec<i32> = (0..4 * k).map(|i| (i as i32 % 13) - 6).collect();
        // A zero in the left operand exercises the skip on both paths.
        a[k + 2] = 0;
        let b: Vec<i32> = (0..k * n).map(|i| (i as i32 % 17) - 8).collect();
        let mut ref32 = vec![0_i32; 4 * n];
        let mut blk32 = vec![0_i32; 4 * n];
        reference_backend().i32_block(&a, k, &b, n, &[], &mut ref32);
        blocked_backend().i32_block(&a, k, &b, n, &[], &mut blk32);
        assert_eq!(ref32, blk32);
        let mut ref64 = vec![0_i64; 4 * n];
        let mut blk64 = vec![0_i64; 4 * n];
        reference_backend().i64_block(&a, k, &b, n, &[], &mut ref64);
        blocked_backend().i64_block(&a, k, &b, n, &[], &mut blk64);
        assert_eq!(ref64, blk64);
    }

    /// Builds a grouped INT4 / ungrouped INT8 store with deterministic
    /// pseudo-random contents for kernel agreement tests.
    fn kv_fixture(rows: usize, cols: usize, bits: u32, grouped: bool) -> QuantRows {
        let lim = 1i32 << (bits - 1);
        let mut s = QuantRows::with_row_capacity(cols, bits, grouped, rows);
        for r in 0..rows {
            let qs: Vec<i32> = (0..cols)
                .map(|c| ((r * 31 + c * 17 + 5) as i32 % (2 * lim)) - lim)
                .collect();
            let gs: Vec<u8> = if grouped {
                (0..cols).map(|c| ((r + c * 7) % 4) as u8).collect()
            } else {
                Vec::new()
            };
            s.push_row(&qs, &gs);
        }
        s
    }

    #[test]
    fn kv_kernels_agree_across_backends_and_check_modes() {
        for (bits, grouped, groups) in [(8, false, 1usize), (4, true, 4)] {
            let kv = kv_fixture(13, 19, bits, grouped);
            let xq: Vec<i32> = (0..19).map(|c| (c % 9) - 4).collect();
            let pq: Vec<i32> = (0..13).map(|j| (j % 7) - 3).collect();
            for check in [false, true] {
                let mut rs = vec![0i64; kv.rows() * groups];
                let mut bs = vec![0i64; kv.rows() * groups];
                let er = reference_backend().kv_score_block(&kv, &xq, groups, check, &mut rs);
                let eb = blocked_backend().kv_score_block(&kv, &xq, groups, check, &mut bs);
                assert_eq!(rs, bs, "score sums diverge (bits {bits}, check {check})");
                assert_eq!(er, eb, "score event counts diverge");
                assert_eq!(er, 0, "tiny shapes cannot overflow i32");
                let mut ra = vec![0i64; groups * kv.cols()];
                let mut ba = vec![0i64; groups * kv.cols()];
                let ea = reference_backend().kv_attn_block(&kv, &pq, groups, check, &mut ra);
                let eab = blocked_backend().kv_attn_block(&kv, &pq, groups, check, &mut ba);
                assert_eq!(ra, ba, "attn sums diverge (bits {bits}, check {check})");
                assert_eq!(ea, eab, "attn event counts diverge");
            }
        }
    }

    #[test]
    fn kv_score_matches_scalar_definition() {
        let kv = kv_fixture(5, 7, 4, true);
        let xq: Vec<i32> = vec![3, 0, -2, 1, 4, -1, 2];
        let groups = 4;
        let mut acc = vec![0i64; kv.rows() * groups];
        reference_backend().kv_score_block(&kv, &xq, groups, false, &mut acc);
        for j in 0..kv.rows() {
            let mut want = vec![0i64; groups];
            for (c, &xv) in xq.iter().enumerate() {
                let (q, g) = kv.get(j, c);
                want[g] += xv as i64 * q as i64;
            }
            assert_eq!(&acc[j * groups..(j + 1) * groups], &want[..]);
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
        let cols = 1;
        let mut kv = QuantRows::with_row_capacity(cols, 4, false, rows);
        for _ in 0..rows {
            kv.push_row(&[-8], &[]);
        }
        let pq = vec![127i32; rows];
        assert!(!kv_dot_cannot_overflow(rows, 8, 4, 1));
        let mut acc = vec![0i64; cols];
        let events = reference_backend().kv_attn_block(&kv, &pq, 1, true, &mut acc);
        assert!(events > 0, "saturated walk must record excursions");
        let mut blk = vec![0i64; cols];
        let eb = blocked_backend().kv_attn_block(&kv, &pq, 1, true, &mut blk);
        assert_eq!(acc, blk);
        assert_eq!(events, eb);
    }

    #[test]
    fn narrow_dot_matches_i64_definition_at_every_width_and_edge() {
        // Rows off the DOT_ROWS tile, k off (and under) the DOT_LANES chunk,
        // n = 1, and every i16/i32 operand pairing.
        for (rows, k, n) in [(1, 5, 1), (3, 31, 2), (4, 32, 3), (9, 77, 5), (6, 0, 2)] {
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
        reference_backend().f32_block(&[], 0, &[], 4, &[], &mut out);
        blocked_backend().f32_block(&[], 0, &[], 4, &[], &mut out);
        let mut out1 = vec![0.0_f32; 0];
        blocked_backend().f32_block(&[1.0, 2.0], 2, &[], 0, &[], &mut out1);
        assert!(out1.is_empty());
    }
}
