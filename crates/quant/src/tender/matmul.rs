//! Decomposed matmul with implicit (runtime) or explicit requantization.
//!
//! Both paths compute the same mathematical quantity (Eqs. 1 and 2 of the
//! paper are equivalent):
//!
//! * **Explicit** (Figure 5(a)): each channel group's partial product is
//!   dequantized to floating point and summed — the costly software path
//!   that motivates the hardware design.
//! * **Implicit** (Figure 5(b)): groups are processed from the largest
//!   scale; between groups the *integer* accumulator is multiplied by α
//!   (a 1-bit left shift for α = 2); only the final result is dequantized,
//!   once, with the smallest scale. This is what the Multi-Scale Systolic
//!   Array executes, and this module is its arithmetic reference model.
//!
//! # Accumulator width
//!
//! The paper's PE accumulator is 32 bits wide (§IV-B). Before a chunk runs,
//! [`chunk_accumulator_bound`] computes a sound worst-case bound on
//! `|accumulator|` from the group sizes and operand bit widths. When the
//! bound fits in `i32` — true for all paper-scale shapes — the chunk is
//! *licensed* and runs on that 32-bit accumulator as **one** plain integer
//! GEMM: each activation code is pre-multiplied by its group's
//! `α^(G−1−g)`, which is the [`accumulate_chunk_explicit_shifted`] order.
//! Shift-accumulate is linear, so `Σ_g α^(G−1−g) · P_g` is the same integer
//! in whichever order its terms are added, and the bound (which is exactly
//! `Σ |term|` at worst-case operands) keeps every partial sum of every
//! order inside `i32`: a licensed chunk's overflow count is exactly zero,
//! and its result is byte-identical to the per-step loop below at any
//! thread count.
//!
//! Chunks the bound does not license run the per-step `i64` loop, which is
//! also the semantic definition and test oracle
//! ([`accumulate_chunk_implicit`]).
//!
//! # Runtime quantization of the activations
//!
//! With the group weights folded into the codes, the licensed path has no
//! use for the Index Buffer's channel *order*: it reads the buffer
//! flattened to a per-channel scale row and a per-channel weight row
//! (`ChannelRows`, built once per (site, chunk) at prepare time beside the
//! bias-correction rows) and quantizes each activation row in one pass
//! through [`crate::quantizer::quantize_row`], the engine's one runtime row
//! quantizer. The walks that do go group by group — the checked loop, the
//! explicit kernel, [`quantized_group_operands`] — keep reading `cc.order`
//! and keep calling the scalar definition element by element; they are the
//! oracle the licensed path is tested against, not its twin.
//!
//! # Overflow semantics of the checked loop (hardware-faithful)
//!
//! An excursion past `i32` range at **any** accumulation step would clip on
//! silicon, even if later steps of opposite sign bring the value back in
//! range. The checked loop therefore tests the `i64` accumulator after
//! *every* mutation — each MAC and each α-shift — and counts every
//! observation outside `[i32::MIN, i32::MAX]` as one overflow event, so the
//! paper's "sufficiently large bit width" claim is checkable. (An earlier
//! revision only sampled the accumulator at group boundaries, silently
//! missing exactly the mid-chunk excursions the hardware would corrupt.)

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

use tender_metrics::kernel as metrics;
use tender_tensor::gemm;
use tender_tensor::pool;
use tender_tensor::{stats, Dense, IMatrix, Matrix};

use super::calib::{ChunkCalibration, TenderCalibration};
use super::config::TenderConfig;
use crate::quantizer::{
    qmax, quantize_row, quantize_value, quantize_value_saturating, symmetric_scale,
};

/// A [`QuantizedWeight`]'s one store: its codes transposed (`n × k`, column
/// `j`'s codes contiguous in row `j`) at the narrowest width that holds
/// them, streamed by [`gemm::narrow_dot_block`] and walked by every reader.
#[derive(Debug, Clone)]
enum PackedCodes {
    I16(Dense<i16>),
    I32(Dense<i32>),
}

impl PackedCodes {
    /// `(n, k)`: output columns × input channels.
    fn shape(&self) -> (usize, usize) {
        match self {
            Self::I16(c) => c.shape(),
            Self::I32(c) => c.shape(),
        }
    }

    /// The code of input channel `ch` in output column `j`.
    #[inline]
    fn at(&self, j: usize, ch: usize) -> i32 {
        match self {
            Self::I16(c) => c[(j, ch)].into(),
            Self::I32(c) => c[(j, ch)],
        }
    }
}

/// A weight quantized per output column, each weight held once as a code.
#[derive(Debug, Clone)]
pub struct QuantizedWeight {
    codes: PackedCodes,
    scales: Vec<f32>,
    bits: u32,
}

impl QuantizedWeight {
    /// Quantizes `w` symmetrically per output column at `bits`: the code of
    /// `w[(ch, j)]` is `quantize_value(w[(ch, j)], scales[j], bits)`.
    pub fn per_col(w: &Matrix, bits: u32) -> Self {
        let col_max = stats::col_abs_max(w);
        let scales: Vec<f32> = col_max.iter().map(|&m| symmetric_scale(m, bits)).collect();
        let codes = if bits <= 16 {
            PackedCodes::I16(transposed_codes(w, &scales, bits, |q| {
                i16::try_from(q).expect("|code| ≤ qmax(16) = i16::MAX")
            }))
        } else {
            PackedCodes::I32(transposed_codes(w, &scales, bits, |q| q))
        };
        Self {
            codes,
            scales,
            bits,
        }
    }

    /// The integer weight values (`k × n`), built from the store.
    pub fn values(&self) -> IMatrix {
        let (n, k) = self.codes.shape();
        IMatrix::from_fn(k, n, |ch, j| self.codes.at(j, ch))
    }

    /// Per-column scale factors.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// The dequantized (fake-quantized) weight `code · scale` (`k × n`).
    pub fn dequantized(&self) -> Matrix {
        let (n, k) = self.codes.shape();
        Matrix::from_fn(k, n, |ch, j| self.codes.at(j, ch) as f32 * self.scales[j])
    }

    /// The weight bit width.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Bytes of the store: the codes at their packed width, plus one `f32`
    /// scale per column.
    pub fn resident_bytes(&self) -> usize {
        let codes = match &self.codes {
            PackedCodes::I16(c) => size_of_val(c.as_slice()),
            PackedCodes::I32(c) => size_of_val(c.as_slice()),
        };
        codes + size_of_val(self.scales.as_slice())
    }
}

/// The `n × k` store of a `k × n` weight's codes, narrowed by `narrow`. Each
/// weight row is read once, in order, and quantized in one pass through
/// [`quantize_row`] (exact against [`quantize_value`], no libm call); a
/// block of rows' codes is then written out transposed, so the reads and
/// the writes both stay within a cache-sized block.
fn transposed_codes<T: Copy + Default>(
    w: &Matrix,
    scales: &[f32],
    bits: u32,
    narrow: impl Fn(i32) -> T,
) -> Dense<T> {
    const BLOCK_ROWS: usize = 32;
    let (k, n) = w.shape();
    let mut out = vec![T::default(); n * k];
    let mut block = vec![0_i32; BLOCK_ROWS * n];
    for ch0 in (0..k).step_by(BLOCK_ROWS) {
        let rows = BLOCK_ROWS.min(k - ch0);
        for (r, codes) in block.chunks_mut(n.max(1)).take(rows).enumerate() {
            quantize_row(w.row(ch0 + r), 0.0_f32, scales, bits, codes);
        }
        for (j, column) in out.chunks_mut(k.max(1)).enumerate() {
            for (r, code) in column[ch0..ch0 + rows].iter_mut().enumerate() {
                *code = narrow(block[r * n + j]);
            }
        }
    }
    Dense::from_vec(n, k, out).expect("n × k codes")
}

/// Result of a decomposed matmul plus diagnostics.
#[derive(Debug, Clone)]
pub struct MatmulStats {
    /// The (approximately) quantized product.
    pub result: Matrix,
    /// Number of accumulation steps (MAC or α-shift) after which an
    /// element's integer accumulator sat outside the 32-bit range the
    /// hardware provides — including excursions that cancel before the
    /// chunk ends (see the module docs). Zero for every workload the paper
    /// models.
    pub overflow_events: usize,
    /// Number of `(row, channel)` activations the quantizer clipped to
    /// `±qmax`.
    pub saturated_values: usize,
    /// Number of row chunks processed.
    pub chunks_processed: usize,
}

/// Whether `a` lies outside the hardware accumulator's 32-bit range.
#[inline]
fn outside_i32(a: i64) -> bool {
    a > i32::MAX as i64 || a < i32::MIN as i64
}

/// Sound worst-case bound on `|accumulator|` at **any** step of one chunk's
/// decomposed accumulation (implicit or explicit-shifted order).
///
/// Every MAC adds at most `qmax(act_bits) · qmax(w_bits)` in magnitude and
/// every inter-group rescale multiplies the running magnitude by α, so
/// folding `bound = bound·α + group_len · step_max` over the groups bounds
/// each intermediate value (the explicit-shifted order weights each group
/// by `α^(G-1-g)` up front, which telescopes to the same total). Saturating
/// `u128` arithmetic keeps the bound itself well-defined for adversarial
/// configurations.
#[doc(hidden)]
pub fn chunk_accumulator_bound(cc: &ChunkCalibration, w_bits: u32, config: &TenderConfig) -> u128 {
    let step = qmax(config.bits) as u128 * qmax(w_bits) as u128;
    let alpha = config.alpha as u128;
    let mut bound: u128 = 0;
    for chans in &cc.order {
        bound = bound
            .saturating_mul(alpha)
            .saturating_add(chans.len() as u128 * step);
    }
    bound
}

/// Whether a chunk with this calibration can be proven overflow-free, which
/// licenses it for the 32-bit-accumulator kernel (the documented fast path).
#[doc(hidden)]
pub fn chunk_cannot_overflow(cc: &ChunkCalibration, w_bits: u32, config: &TenderConfig) -> bool {
    chunk_accumulator_bound(cc, w_bits, config) <= i32::MAX as u128
}

/// Whether every pre-scaled activation code `xq · α^(G−1−g)` of this
/// configuration fits `i16`: `qmax(bits) · α^(G−1) ≤ i16::MAX`. Licensed
/// chunks then feed the kernel 16-bit codes, otherwise 32-bit ones.
#[doc(hidden)]
pub fn codes_fit_i16(config: &TenderConfig) -> bool {
    let top = (config.alpha as u128).saturating_pow(config.num_groups.saturating_sub(1) as u32);
    (qmax(config.bits) as u128).saturating_mul(top) <= i16::MAX as u128
}

/// Bias-correction row: `bias · W_deq`, added to every output row of a chunk
/// (the "+ Bias × Weight" step in Figure 4). Column `j` sums `b · (code ·
/// scale)` over its codes, input channels ascending, skipping zero biases.
fn bias_correction(bias: &[f32], w: &QuantizedWeight) -> Vec<f32> {
    let nonzero: Vec<(usize, f32)> = bias
        .iter()
        .copied()
        .enumerate()
        .filter(|&(_, b)| b != 0.0)
        .collect();
    // Column `j`'s codes are row `j` of the store.
    fn columns<T: Copy>(
        codes: &Dense<T>,
        scales: &[f32],
        nonzero: &[(usize, f32)],
        to_f32: impl Fn(T) -> f32,
    ) -> Vec<f32> {
        let column = |(row, &s): (&[T], &f32)| {
            nonzero
                .iter()
                .fold(0.0_f32, |corr, &(ch, b)| corr + b * (to_f32(row[ch]) * s))
        };
        codes.iter_rows().zip(scales).map(column).collect()
    }
    match &w.codes {
        PackedCodes::I16(c) => columns(c, &w.scales, &nonzero, f32::from),
        PackedCodes::I32(c) => columns(c, &w.scales, &nonzero, |q| q as f32),
    }
}

/// Row `r` of `x` quantized once against one chunk, for the walks that go
/// group by group: per group, in Index-Buffer order, the `(channel, code)`
/// pairs whose code is nonzero (every walk skips a zero code), and the
/// row's saturation count.
fn row_group_codes(
    x: &Matrix,
    r: usize,
    cc: &ChunkCalibration,
    config: &TenderConfig,
) -> (Vec<Vec<(usize, i32)>>, usize) {
    let mut saturated = 0_usize;
    let mut groups = vec![Vec::new(); config.num_groups];
    for ((codes, chans), &s_g) in groups.iter_mut().zip(&cc.order).zip(&cc.scales) {
        for &ch in chans {
            let (xq, sat) = quantize_value_saturating(x[(r, ch)] - cc.bias[ch], s_g, config.bits);
            saturated += sat as usize;
            if xq != 0 {
                codes.push((ch, xq));
            }
        }
    }
    (groups, saturated)
}

/// The Index Buffer of one chunk flattened to two per-channel rows:
/// `scale[ch] = scales[g(ch)]` and `weight[ch] = α^(G−1−g(ch))`, with
/// `g(ch)` read off `cc.order` — the list the group walks read.
///
/// The licensed path folds each group's `α^(G−1−g)` into the activation
/// codes and runs one GEMM over all channels, so it never visits channels
/// *by group* and their order is irrelevant to it: quantizing a row is one
/// straight pass `code[ch] = q((x[ch] − bias[ch]) / scale[ch]) · weight[ch]`.
/// The order still matters to everything that walks groups: the checked
/// `i64` loop, the explicit kernel and [`quantized_group_operands`].
///
/// A channel `cc.order` omits (only a hand-built calibration can) gets an
/// infinite scale and a zero weight: its quotient is `±0` or NaN, its code
/// zero, and it never counts as saturated — what the group walks, which
/// never visit it, give it too.
#[derive(Debug, Clone, PartialEq)]
pub(super) struct ChannelRows {
    scale: Vec<f32>,
    weight: Vec<i32>,
}

impl ChannelRows {
    pub(super) fn new(cc: &ChunkCalibration, config: &TenderConfig) -> Self {
        let groups = config.num_groups;
        // α^(G−1−g) per group. A nonempty group's factor is at most the
        // chunk bound, hence an `i32` on a licensed chunk; an empty group's
        // reaches no channel.
        let alpha = i32::try_from(config.alpha).unwrap_or(i32::MAX);
        let mut factor = vec![1_i32; groups];
        for g in (1..groups).rev() {
            factor[g - 1] = factor[g].saturating_mul(alpha);
        }
        let mut scale = vec![f32::INFINITY; cc.num_channels()];
        let mut weight = vec![0_i32; cc.num_channels()];
        let per_group = cc.order[..groups].iter().zip(&cc.scales[..groups]);
        for ((chans, &s_g), &f_g) in per_group.zip(&factor) {
            for &ch in chans {
                scale[ch] = s_g;
                weight[ch] = f_g;
            }
        }
        Self { scale, weight }
    }
}

/// What is static per (site, chunk) and read by every forward call: the
/// bias-correction row and the flattened Index Buffer. [`super::TenderMatmul`]
/// builds one per calibration chunk at prepare time; the free functions
/// build them per call.
#[derive(Debug, Clone)]
pub(super) struct PreparedChunk {
    corr: Vec<f32>,
    rows: ChannelRows,
}

impl PreparedChunk {
    /// Bytes of the bias-correction row and the per-channel rows.
    pub(super) fn resident_bytes(&self) -> usize {
        size_of_val(self.corr.as_slice())
            + size_of_val(self.rows.scale.as_slice())
            + size_of_val(self.rows.weight.as_slice())
    }
}

/// One [`PreparedChunk`] per calibration chunk, in chunk order.
pub(super) fn prepare_chunks(
    w: &QuantizedWeight,
    calib: &TenderCalibration,
    config: &TenderConfig,
) -> Vec<PreparedChunk> {
    calib
        .chunks()
        .iter()
        .map(|cc| PreparedChunk {
            corr: bias_correction(&cc.bias, w),
            rows: ChannelRows::new(cc, config),
        })
        .collect()
}

/// The single dequantization of the implicit path: the integer accumulator
/// times the last group's scale and the column's weight scale, plus the
/// bias-correction entry.
#[inline(always)]
fn dequant(acc: f32, s_last: f32, w_scale: f32, corr: f32) -> f32 {
    acc * s_last * w_scale + corr
}

/// Records one implicit chunk of `m` rows in the kernel counters. Every
/// (row, channel) pair is quantized exactly once per chunk on either path.
fn record_implicit_chunk(m: usize, cc: &ChunkCalibration, licensed: bool) {
    if licensed {
        metrics::CHUNKS_FAST_PATH.incr();
    } else {
        metrics::CHUNKS_CHECKED.incr();
    }
    record_quantized(m, cc);
}

/// Records the `m × channels` activations one chunk quantizes, per group.
fn record_quantized(m: usize, cc: &ChunkCalibration) {
    for (g, chans) in cc.order.iter().enumerate() {
        metrics::GROUP_QUANTIZED.add(g, (m * chans.len()) as u64);
    }
    metrics::QUANTIZED_VALUES.add((m * cc.num_channels()) as u64);
}

/// Integer accumulation of one chunk with *implicit* requantization:
/// groups in ascending index (descending scale), accumulator multiplied by
/// α between groups — the per-step `i64` definition, whatever the bound.
#[doc(hidden)]
pub fn accumulate_chunk_implicit(
    x_chunk: &Matrix,
    cc: &super::calib::ChunkCalibration,
    w: &QuantizedWeight,
    config: &TenderConfig,
) -> (Vec<i64>, usize) {
    let licensed = chunk_cannot_overflow(cc, w.bits, config);
    record_implicit_chunk(x_chunk.rows(), cc, licensed);
    let (acc, overflow, saturated) =
        accumulate_rows_checked(x_chunk, 0..x_chunk.rows(), cc, w, config);
    metrics::SATURATED_VALUES.add(saturated as u64);
    metrics::OVERFLOW_EVENTS.add(overflow as u64);
    (acc, overflow)
}

/// Metrics-free [`accumulate_chunk_implicit`]; returns `(accumulator,
/// overflow events, saturation events)`. Exposed for the differential
/// tests, which compare the counts directly without racing on the
/// process-global metric statics.
#[doc(hidden)]
pub fn accumulate_chunk_implicit_with(
    x_chunk: &Matrix,
    cc: &super::calib::ChunkCalibration,
    w: &QuantizedWeight,
    config: &TenderConfig,
) -> (Vec<i64>, usize, usize) {
    accumulate_rows_checked(x_chunk, 0..x_chunk.rows(), cc, w, config)
}

/// The checked path: `rows` of `x` against one chunk's calibration through
/// the per-step `i64` loop; returns `(accumulator, overflow events,
/// saturation events)`.
fn accumulate_rows_checked(
    x: &Matrix,
    rows: Range<usize>,
    cc: &ChunkCalibration,
    w: &QuantizedWeight,
    config: &TenderConfig,
) -> (Vec<i64>, usize, usize) {
    let m = rows.len();
    let n = w.scales.len();
    let mut acc = vec![0_i64; m * n];
    let overflow = AtomicUsize::new(0);
    let saturated = AtomicUsize::new(0);
    // Each accumulator row depends only on its own activation row. Row
    // partitioning plus commutative integer overflow/saturation sums keeps
    // the result (accumulator bits *and* the counts) identical at any
    // thread count.
    let row_kernel = |r: usize, a_row: &mut [i64]| {
        let (row_overflow, row_saturated) =
            implicit_row_checked(x, rows.start + r, cc, w, config, a_row);
        overflow.fetch_add(row_overflow, Ordering::Relaxed);
        saturated.fetch_add(row_saturated, Ordering::Relaxed);
    };
    if m * x.cols() * n < pool::PAR_THRESHOLD || m < 2 {
        for r in 0..m {
            row_kernel(r, &mut acc[r * n..(r + 1) * n]);
        }
    } else {
        pool::par_chunks_mut(&mut acc, n, row_kernel);
    }
    (acc, overflow.into_inner(), saturated.into_inner())
}

/// One accumulator row of the per-step loop, per output column: group
/// ascending, α-shift between groups, channels in Index-Buffer order, the
/// `i32` range tested after every mutation. Returns `(overflow, saturation)`.
fn implicit_row_checked(
    x: &Matrix,
    r: usize,
    cc: &ChunkCalibration,
    w: &QuantizedWeight,
    config: &TenderConfig,
    a_row: &mut [i64],
) -> (usize, usize) {
    let alpha = config.alpha as i64;
    let (groups, row_saturated) = row_group_codes(x, r, cc, config);
    let mut row_overflow = 0_usize;
    for (j, a) in a_row.iter_mut().enumerate() {
        for (g, codes) in groups.iter().enumerate() {
            if g > 0 {
                *a *= alpha;
                row_overflow += outside_i32(*a) as usize;
            }
            for &(ch, xq) in codes {
                *a += xq as i64 * w.codes.at(j, ch) as i64;
                row_overflow += outside_i32(*a) as usize;
            }
        }
    }
    (row_overflow, row_saturated)
}

/// The licensed path: `rows` of `x` against one chunk's calibration on the
/// 32-bit accumulator, dequantized straight into `out_chunk`. Picks the
/// operand widths ([`codes_fit_i16`] for the activation codes, the packed
/// weight's own width) and returns the saturation-event count.
#[allow(clippy::too_many_arguments)]
fn licensed_chunk(
    x: &Matrix,
    rows: Range<usize>,
    cc: &ChunkCalibration,
    channels: &ChannelRows,
    w: &QuantizedWeight,
    config: &TenderConfig,
    corr: &[f32],
    out_chunk: &mut [f32],
) -> usize {
    let ws = &w.scales;
    match (codes_fit_i16(config), &w.codes) {
        (true, PackedCodes::I16(bt)) => {
            licensed_rows::<i16, i16>(x, rows, cc, channels, bt, ws, config, corr, out_chunk)
        }
        (true, PackedCodes::I32(bt)) => {
            licensed_rows::<i16, i32>(x, rows, cc, channels, bt, ws, config, corr, out_chunk)
        }
        (false, PackedCodes::I16(bt)) => {
            licensed_rows::<i32, i16>(x, rows, cc, channels, bt, ws, config, corr, out_chunk)
        }
        (false, PackedCodes::I32(bt)) => {
            licensed_rows::<i32, i32>(x, rows, cc, channels, bt, ws, config, corr, out_chunk)
        }
    }
}

/// Rows per pooled work item of [`licensed_rows`]: one worker quantizes
/// `MR` activation rows and multiplies them against the weight codes
/// together.
const MR: usize = 16;

/// [`licensed_chunk`] at fixed operand widths. Each [`MR`]-row block
/// quantizes its activations once into codes pre-multiplied by
/// `α^(G−1−g)` — which collapses the group walk into one integer GEMM —
/// and multiplies them against the transposed weight codes `bt`. A row is
/// quantized in one pass over its channels through the runtime row
/// quantizer ([`quantize_row`], per-channel bias and [`ChannelRows`]
/// scale), then weighted and narrowed to the operand width. Blocks fan out
/// over the pool above [`pool::PAR_THRESHOLD`]; a decode row stays inline.
#[allow(clippy::too_many_arguments)]
fn licensed_rows<A, B>(
    x: &Matrix,
    rows: Range<usize>,
    cc: &ChunkCalibration,
    channels: &ChannelRows,
    bt: &Dense<B>,
    w_scales: &[f32],
    config: &TenderConfig,
    corr: &[f32],
    out_chunk: &mut [f32],
) -> usize
where
    A: Copy + Default + Into<i32> + TryFrom<i32>,
    B: Copy + Into<i32> + Sync,
{
    let k = x.cols();
    let n = corr.len();
    let s_last = cc.scales[config.num_groups - 1];
    let saturated = AtomicUsize::new(0);
    let block = |bi: usize, out_block: &mut [f32]| {
        let r0 = rows.start + bi * MR;
        let mut codes = vec![A::default(); out_block.len() / n * k];
        let mut quantized = vec![0_i32; k];
        let mut block_saturated = 0_usize;
        for (r, code_row) in codes.chunks_exact_mut(k).enumerate() {
            // Saturation is counted once per (row, channel), as in the
            // per-step loop.
            block_saturated += quantize_row(
                x.row(r0 + r),
                &cc.bias[..],
                &channels.scale[..],
                config.bits,
                &mut quantized,
            );
            let mut fits = true;
            for ((code, &q), &f) in code_row.iter_mut().zip(&quantized).zip(&channels.weight) {
                let scaled = A::try_from(q * f);
                fits &= scaled.is_ok();
                *code = scaled.unwrap_or_default();
            }
            assert!(fits, "licensed code fits its operand width");
        }
        saturated.fetch_add(block_saturated, Ordering::Relaxed);
        gemm::narrow_dot_block(&codes, bt.as_slice(), k, n, out_block, |j, acc| {
            dequant(acc as f32, s_last, w_scales[j], corr[j])
        });
    };
    if rows.len() * k * n < pool::PAR_THRESHOLD || rows.len() < 2 {
        for (bi, out_block) in out_chunk.chunks_mut(MR * n).enumerate() {
            block(bi, out_block);
        }
    } else {
        pool::par_chunks_mut(out_chunk, MR * n, block);
    }
    saturated.into_inner()
}

/// Integer accumulation of one chunk with *explicit* shifted accumulation:
/// `Σ_g P_g · α^(G-1-g)`. Mathematically identical to the implicit path;
/// used by tests (including cross-crate property tests) to prove
/// bit-exactness.
///
/// Returns the accumulator plus the per-step overflow-event count under the
/// same hardware-faithful semantics as [`accumulate_chunk_implicit`]: one
/// event per MAC whose result lies outside `i32` range, checked at every
/// step of *this* path's accumulation order (which differs from the
/// implicit order, so the two paths' counts are reported independently).
#[doc(hidden)]
pub fn accumulate_chunk_explicit_shifted(
    x_chunk: &Matrix,
    cc: &super::calib::ChunkCalibration,
    w: &QuantizedWeight,
    config: &TenderConfig,
) -> (Vec<i64>, usize) {
    let m = x_chunk.rows();
    let n = w.scales.len();
    let mut acc = vec![0_i64; m * n];
    let mut overflow = 0_usize;
    let check_steps = !chunk_cannot_overflow(cc, w.bits, config);
    for r in 0..m {
        let (groups, _) = row_group_codes(x_chunk, r, cc, config);
        for (j, a) in acc[r * n..(r + 1) * n].iter_mut().enumerate() {
            for (g, codes) in groups.iter().enumerate() {
                let weight_pow = (config.alpha as i64).pow((groups.len() - 1 - g) as u32);
                for &(ch, xq) in codes {
                    *a += xq as i64 * w.codes.at(j, ch) as i64 * weight_pow;
                    overflow += (check_steps && outside_i32(*a)) as usize;
                }
            }
        }
    }
    metrics::OVERFLOW_EVENTS.add(overflow as u64);
    (acc, overflow)
}

/// Builds the per-group integer operands `(A_g, B_g)` that the Multi-Scale
/// Systolic Array consumes for one chunk: the activation's group-`g`
/// channels, bias-subtracted and quantized with the group scale, and the
/// weight rows for those channels (in the Index Buffer's channel order).
///
/// Feeding these to the hardware model in `tender-sim` and shift-
/// accumulating group by group reproduces [`implicit_requant_matmul`]'s
/// integer accumulator exactly.
pub fn quantized_group_operands(
    x_chunk: &Matrix,
    cc: &super::calib::ChunkCalibration,
    w: &QuantizedWeight,
    config: &TenderConfig,
) -> Vec<(IMatrix, IMatrix)> {
    let m = x_chunk.rows();
    (0..config.num_groups)
        .map(|g| {
            let chans = &cc.order[g];
            let s_g = cc.scales[g];
            let a = IMatrix::from_fn(m, chans.len(), |r, i| {
                let ch = chans[i];
                quantize_value(x_chunk[(r, ch)] - cc.bias[ch], s_g, config.bits)
            });
            let b = IMatrix::from_fn(chans.len(), w.scales.len(), |i, j| w.codes.at(j, chans[i]));
            (a, b)
        })
        .collect()
}

/// Tender matmul via **implicit runtime requantization** (Eq. 2 / Fig. 5(b)).
///
/// Splits `x` into row chunks, runs the integer group-by-group accumulation
/// with α-shifts between groups, dequantizes once with the smallest scale,
/// and adds the bias-correction term.
///
/// # Panics
///
/// Panics if `x.cols()` does not match the calibrated channel count or the
/// weight's row count.
pub fn implicit_requant_matmul(
    x: &Matrix,
    w: &QuantizedWeight,
    calib: &TenderCalibration,
    config: &TenderConfig,
) -> MatmulStats {
    implicit_requant_matmul_at(x, 0, w, calib, config)
}

/// [`implicit_requant_matmul`] for activation rows starting at absolute
/// sequence position `row0` — the decode-path entry point.
///
/// Each row is quantized against the calibration chunk that covered its
/// *absolute* row index during prefill (`calib.chunk_for_row(row0 + r)`),
/// and integer sums do not depend on which rows share a call, so a single
/// decoded row is bit-identical to the same row of the full-sequence
/// product.
///
/// # Panics
///
/// Panics on the same shape mismatches as [`implicit_requant_matmul`].
pub fn implicit_requant_matmul_at(
    x: &Matrix,
    row0: usize,
    w: &QuantizedWeight,
    calib: &TenderCalibration,
    config: &TenderConfig,
) -> MatmulStats {
    let prepared = prepare_chunks(w, calib, config);
    implicit_runs(x, &contiguous(row0, x.rows()), w, calib, config, &prepared)
}

/// The absolute positions of `rows` activation rows that follow one another
/// from `row0`.
fn contiguous(row0: usize, rows: usize) -> Vec<usize> {
    (row0..row0 + rows).collect()
}

/// Body of every implicit entry point, row `r` of `x` at absolute position
/// `positions[r]`: each run of adjacent rows sharing a calibration chunk
/// ([`chunk_runs`]) goes to the 32-bit kernel when the chunk's bound
/// licenses it, otherwise through the checked `i64` loop. `prepared` is
/// [`prepare_chunks`] of `w`, `calib` and `config`.
pub(super) fn implicit_runs(
    x: &Matrix,
    positions: &[usize],
    w: &QuantizedWeight,
    calib: &TenderCalibration,
    config: &TenderConfig,
    prepared: &[PreparedChunk],
) -> MatmulStats {
    check_shapes(x, positions, w, calib);
    metrics::IMPLICIT_MATMULS.incr();
    let n = w.scales.len();
    let mut result = Matrix::zeros(x.rows(), n);
    let mut overflow_events = 0;
    let mut saturated_values = 0;
    let mut chunks_processed = 0;
    // Runs execute in turn; each fans its rows out over the pool when it is
    // large enough to pay for that.
    for (r0, r1) in chunk_runs(positions, calib.chunk_rows()) {
        let ci = calib.chunk_index_for_row(positions[r0]);
        let cc = &calib.chunks()[ci];
        let PreparedChunk { corr, rows } = &prepared[ci];
        let out_chunk = &mut result.as_mut_slice()[r0 * n..r1 * n];
        let licensed = chunk_cannot_overflow(cc, w.bits, config);
        record_implicit_chunk(r1 - r0, cc, licensed);
        saturated_values += if licensed {
            licensed_chunk(x, r0..r1, cc, rows, w, config, corr, out_chunk)
        } else {
            let (acc, overflow, saturated) = accumulate_rows_checked(x, r0..r1, cc, w, config);
            overflow_events += overflow;
            let s_last = cc.scales[config.num_groups - 1];
            for (out_row, acc_row) in out_chunk.chunks_exact_mut(n).zip(acc.chunks_exact(n)) {
                for (((o, &a), &ws), &c) in out_row.iter_mut().zip(acc_row).zip(&w.scales).zip(corr)
                {
                    *o = dequant(a as f32, s_last, ws, c);
                }
            }
            saturated
        };
        chunks_processed += 1;
    }
    metrics::SATURATED_VALUES.add(saturated_values as u64);
    metrics::OVERFLOW_EVENTS.add(overflow_events as u64);
    MatmulStats {
        result,
        overflow_events,
        saturated_values,
        chunks_processed,
    }
}

/// One chunk of the explicit (Eq. 1) path: group partial products are
/// dequantized to `f32` per channel and summed into `out_chunk`, then the
/// bias-correction row `corr` is added: per output element, `xq · s_g`
/// times `code · scale` in Index-Buffer order. Returns the saturation count.
fn explicit_chunk(
    x: &Matrix,
    rows: Range<usize>,
    cc: &ChunkCalibration,
    w: &QuantizedWeight,
    config: &TenderConfig,
    corr: &[f32],
    out_chunk: &mut [f32],
) -> usize {
    let mut chunk_saturated = 0_usize;
    for (r, out_row) in rows.zip(out_chunk.chunks_exact_mut(corr.len())) {
        let (groups, saturated) = row_group_codes(x, r, cc, config);
        chunk_saturated += saturated;
        for (j, (o, &c)) in out_row.iter_mut().zip(corr).enumerate() {
            for (codes, &s_g) in groups.iter().zip(&cc.scales) {
                for &(ch, xq) in codes {
                    *o += xq as f32 * s_g * (w.codes.at(j, ch) as f32 * w.scales[j]);
                }
            }
            *o += c;
        }
    }
    chunk_saturated
}

/// Maximal runs `(start, end)` of adjacent activation rows whose absolute
/// positions fall in one nominal calibration chunk (`position / chunk_rows`
/// — the absolute grid, also past the calibrated range, where the clamped
/// chunk metadata is the same on both sides of a boundary). For a
/// contiguous range the boundaries are the grid's, so a run starting
/// mid-chunk (decode) ends where prefill's chunk did; rows of different
/// sessions stacked into one call share a run whenever they sit in the same
/// chunk, whatever their order.
fn chunk_runs(positions: &[usize], chunk_rows: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
    let mut r = 0;
    std::iter::from_fn(move || {
        let chunk = positions.get(r)? / chunk_rows;
        let same = |&&p: &&usize| p / chunk_rows == chunk;
        let run = (r, r + positions[r..].iter().take_while(same).count());
        r = run.1;
        Some(run)
    })
}

/// Tender matmul via **explicit requantization** (Eq. 1 / Fig. 5(a)): each
/// group's partial product is dequantized to `f32` and summed.
///
/// Numerically this matches [`implicit_requant_matmul`] up to `f32`
/// rounding; the point of the paper is that it costs far more on hardware
/// (shortened reduction axis + floating-point traffic), which
/// `tender-sim` models.
///
/// # Panics
///
/// Panics if `x.cols()` does not match the calibrated channel count or the
/// weight's row count.
pub fn explicit_requant_matmul(
    x: &Matrix,
    w: &QuantizedWeight,
    calib: &TenderCalibration,
    config: &TenderConfig,
) -> MatmulStats {
    explicit_requant_matmul_at(x, 0, w, calib, config)
}

/// [`explicit_requant_matmul`] for activation rows starting at absolute
/// sequence position `row0`; see [`implicit_requant_matmul_at`] for the
/// chunk-selection rule. Each output row's f32 chain depends only on its
/// own activation row, so the parity contract holds here too.
///
/// # Panics
///
/// Panics on the same shape mismatches as [`explicit_requant_matmul`].
pub fn explicit_requant_matmul_at(
    x: &Matrix,
    row0: usize,
    w: &QuantizedWeight,
    calib: &TenderCalibration,
    config: &TenderConfig,
) -> MatmulStats {
    let positions = contiguous(row0, x.rows());
    check_shapes(x, &positions, w, calib);
    metrics::EXPLICIT_MATMULS.incr();
    let n = w.scales.len();
    let mut result = Matrix::zeros(x.rows(), n);
    let mut saturated_values = 0;
    let mut chunks_processed = 0;
    for (r0, r1) in chunk_runs(&positions, calib.chunk_rows()) {
        let ci = calib.chunk_index_for_row(positions[r0]);
        let cc = &calib.chunks()[ci];
        let corr = bias_correction(&cc.bias, w);
        record_quantized(r1 - r0, cc);
        let out_chunk = &mut result.as_mut_slice()[r0 * n..r1 * n];
        saturated_values += explicit_chunk(x, r0..r1, cc, w, config, &corr, out_chunk);
        chunks_processed += 1;
    }
    metrics::SATURATED_VALUES.add(saturated_values as u64);
    MatmulStats {
        result,
        // Group partial products are dequantized to f32 before summation in
        // this path, so there is no integer accumulator to overflow.
        overflow_events: 0,
        saturated_values,
        chunks_processed,
    }
}

/// Dynamic Tender matmul between two runtime activations (e.g.
/// `X_Q × X_K^T`), used by the "Tender (all)" variant.
///
/// The left operand is decomposed with metadata computed *from the runtime
/// tensor itself* (the software analogue of the per-head calibrated path);
/// the right operand is quantized per column.
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
pub fn tender_dynamic_matmul(a: &Matrix, b: &Matrix, config: &TenderConfig) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "tender_dynamic_matmul shape mismatch");
    let calib = TenderCalibration::from_samples(std::slice::from_ref(a), config);
    let w = QuantizedWeight::per_col(b, config.bits);
    implicit_requant_matmul(a, &w, &calib, config).result
}

fn check_shapes(x: &Matrix, positions: &[usize], w: &QuantizedWeight, calib: &TenderCalibration) {
    assert_eq!(positions.len(), x.rows(), "one position per row");
    assert_eq!(
        x.cols(),
        w.codes.shape().1,
        "activation channels must match weight rows"
    );
    assert_eq!(
        x.cols(),
        calib.chunks()[0].num_channels(),
        "activation channels must match calibration"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use tender_tensor::rng::DetRng;
    use tender_tensor::stats::{mse, sqnr_db};

    fn outlier_activation(rng: &mut DetRng, rows: usize, cols: usize) -> Matrix {
        let mut x = rng.normal_matrix(rows, cols, 0.0, 0.5);
        for r in 0..rows {
            x[(r, 1)] = rng.normal(3.0, 25.0);
            x[(r, 6)] = rng.normal(0.0, 12.0);
        }
        x
    }

    fn setup(
        seed: u64,
        bits: u32,
        groups: usize,
    ) -> (Matrix, QuantizedWeight, TenderCalibration, TenderConfig) {
        let mut rng = DetRng::new(seed);
        let x = outlier_activation(&mut rng, 24, 16);
        let wf = rng.normal_matrix(16, 8, 0.0, 0.2);
        let config = TenderConfig {
            bits,
            num_groups: groups,
            alpha: 2,
            row_chunk: 8,
            quant_act_act: false,
            subtract_bias: true,
        };
        let calib = TenderCalibration::from_samples(std::slice::from_ref(&x), &config);
        let w = QuantizedWeight::per_col(&wf, bits);
        (x, w, calib, config)
    }

    /// The bits of every element, so `-0.0` and `0.0` differ.
    fn bits_of(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn the_store_holds_each_weight_once_at_the_narrowest_width() {
        // 16 bits is the last width whose codes fit `i16`; 17 is the first
        // that needs the `i32` arm.
        let (k, n) = (11, 5);
        let wf = DetRng::new(3).normal_matrix(k, n, 0.0, 0.2);
        for bits in [4, 8, 16, 17] {
            let w = QuantizedWeight::per_col(&wf, bits);
            let (len, bytes) = match &w.codes {
                PackedCodes::I16(c) => (c.len(), std::mem::size_of_val(c.as_slice())),
                PackedCodes::I32(c) => (c.len(), std::mem::size_of_val(c.as_slice())),
            };
            let width = if bits <= 16 { 2 } else { 4 };
            assert_eq!(w.codes.shape(), (n, k), "bits={bits}: transposed");
            assert_eq!((len, bytes), (n * k, n * k * width), "bits={bits}");
            assert_eq!(w.resident_bytes(), n * k * width + 4 * n, "bits={bits}");
            for j in 0..n {
                for ch in 0..k {
                    let want = quantize_value(wf[(ch, j)], w.scales[j], bits);
                    assert_eq!(w.codes.at(j, ch), want, "bits={bits} ({j},{ch})");
                }
            }
            // The owned views are built from the store: `dequantized()` is
            // bit for bit the `code · scale` matrix a stored copy held.
            let values = w.values();
            assert_eq!(values.abs_max(), qmax(bits), "the sweep reaches ±qmax");
            let deq = values.map_into(|v| v as f32).scale_cols(w.scales());
            assert_eq!(bits_of(&w.dequantized()), bits_of(&deq), "bits={bits}");
        }
    }

    #[test]
    fn explicit_kernel_is_the_dequantized_sum_in_index_buffer_order() {
        // Eq. 1 written out: per output element, `xq · s_g` times the
        // dequantized weight over the Index Buffer's channel order, zero
        // codes skipped, then the bias row (`bias · W_deq`, channels
        // ascending, zero biases skipped).
        for (bits, groups) in [(8, 4), (4, 8), (4, 1)] {
            let (x, w, calib, config) = setup(71 + groups as u64, bits, groups);
            let deq = w.dequantized();
            let got = explicit_requant_matmul(&x, &w, &calib, &config).result;
            let want = Matrix::from_fn(x.rows(), deq.cols(), |r, j| {
                let cc = calib.chunk_for_row(r);
                let mut o = 0.0_f32;
                for (chans, &s_g) in cc.order.iter().zip(&cc.scales) {
                    for &ch in chans {
                        let xq = quantize_value(x[(r, ch)] - cc.bias[ch], s_g, bits);
                        if xq != 0 {
                            o += xq as f32 * s_g * deq[(ch, j)];
                        }
                    }
                }
                let mut corr = 0.0_f32;
                for (ch, &b) in cc.bias.iter().enumerate() {
                    if b != 0.0 {
                        corr += b * deq[(ch, j)];
                    }
                }
                o + corr
            });
            assert_eq!(bits_of(&got), bits_of(&want), "bits={bits} G={groups}");
        }
    }

    #[test]
    fn implicit_equals_explicit_shifted_bit_exactly() {
        // The paper's central arithmetic claim: Eq. 2 (shift-accumulate)
        // equals Eq. 1 (sum of scaled partial products) exactly in integers.
        for (bits, groups) in [(8, 4), (4, 8), (8, 1), (4, 3)] {
            let (x, w, calib, config) = setup(7 + bits as u64, bits, groups);
            let x_chunk = x.slice_rows(0, 8);
            let cc = calib.chunk_for_row(0);
            let (implicit, _) = accumulate_chunk_implicit(&x_chunk, cc, &w, &config);
            let (explicit, _) = accumulate_chunk_explicit_shifted(&x_chunk, cc, &w, &config);
            assert_eq!(implicit, explicit, "bits={bits} groups={groups}");
        }
    }

    #[test]
    fn implicit_equals_explicit_float_within_rounding() {
        let (x, w, calib, config) = setup(11, 8, 4);
        let imp = implicit_requant_matmul(&x, &w, &calib, &config);
        let exp = explicit_requant_matmul(&x, &w, &calib, &config);
        let scale = imp.result.abs_max().max(1.0);
        assert!(
            imp.result.approx_eq(&exp.result, scale * 1e-4),
            "implicit and explicit paths diverged beyond f32 rounding"
        );
    }

    #[test]
    fn alpha_three_also_exact() {
        let mut rng = DetRng::new(13);
        let x = outlier_activation(&mut rng, 8, 12);
        let wf = rng.normal_matrix(12, 4, 0.0, 0.2);
        let config = TenderConfig {
            bits: 8,
            num_groups: 3,
            alpha: 3,
            row_chunk: 0,
            quant_act_act: false,
            subtract_bias: true,
        };
        let calib = TenderCalibration::from_samples(std::slice::from_ref(&x), &config);
        let w = QuantizedWeight::per_col(&wf, 8);
        let cc = calib.chunk_for_row(0);
        let (implicit, _) = accumulate_chunk_implicit(&x, cc, &w, &config);
        let (explicit, _) = accumulate_chunk_explicit_shifted(&x, cc, &w, &config);
        assert_eq!(implicit, explicit);
    }

    #[test]
    fn channel_rows_flatten_the_index_buffer() {
        for (bits, groups, alpha) in [(8, 4, 2), (4, 8, 2), (8, 3, 3), (8, 1, 2)] {
            let (_, w, calib, mut config) = setup(5 + groups as u64, bits, groups);
            config.alpha = alpha;
            let prepared = prepare_chunks(&w, &calib, &config);
            assert_eq!(prepared.len(), calib.chunks().len());
            for (cc, chunk) in calib.chunks().iter().zip(&prepared) {
                // Prepared at build time == built per call.
                assert_eq!(chunk.rows, ChannelRows::new(cc, &config));
                assert_eq!(chunk.corr, bias_correction(&cc.bias, &w));
                for (g, chans) in cc.order.iter().enumerate() {
                    for &ch in chans {
                        assert_eq!(chunk.rows.scale[ch], cc.scales[g]);
                        let weight = (alpha as i32).pow((groups - 1 - g) as u32);
                        assert_eq!(chunk.rows.weight[ch], weight, "G={groups} g={g}");
                    }
                }
            }
        }
        // A channel in no group: infinite scale, zero weight.
        let (_, _, calib, config) = setup(9, 8, 4);
        let mut cc = calib.chunk_for_row(0).clone();
        let dropped = cc.order.iter_mut().find_map(|chans| chans.pop()).unwrap();
        let rows = ChannelRows::new(&cc, &config);
        assert_eq!(
            (rows.scale[dropped], rows.weight[dropped]),
            (f32::INFINITY, 0)
        );
    }

    #[test]
    fn at_zero_delegates_to_plain_kernels() {
        let (x, w, calib, config) = setup(51, 8, 4);
        let imp = implicit_requant_matmul(&x, &w, &calib, &config);
        let imp_at = implicit_requant_matmul_at(&x, 0, &w, &calib, &config);
        assert_eq!(imp.result, imp_at.result);
        assert_eq!(imp.chunks_processed, imp_at.chunks_processed);
        let exp = explicit_requant_matmul(&x, &w, &calib, &config);
        let exp_at = explicit_requant_matmul_at(&x, 0, &w, &calib, &config);
        assert_eq!(exp.result, exp_at.result);
    }

    #[test]
    fn single_row_at_matches_full_sequence_row_bitwise() {
        // The decode-parity contract: row p alone, quantized against the
        // chunk that covered absolute row p, must reproduce the
        // full-sequence product's row p bit-for-bit — including rows past
        // the calibrated range, which reuse the last chunk.
        for (bits, groups) in [(8, 4), (4, 8)] {
            let (x, w, calib, config) = setup(61 + bits as u64, bits, groups);
            let full_imp = implicit_requant_matmul(&x, &w, &calib, &config).result;
            let full_exp = explicit_requant_matmul(&x, &w, &calib, &config).result;
            for p in 0..x.rows() {
                let row = x.slice_rows(p, p + 1);
                let imp = implicit_requant_matmul_at(&row, p, &w, &calib, &config).result;
                let exp = explicit_requant_matmul_at(&row, p, &w, &calib, &config).result;
                assert_eq!(imp.row(0), full_imp.row(p), "implicit row {p}");
                assert_eq!(exp.row(0), full_exp.row(p), "explicit row {p}");
            }
        }
    }

    #[test]
    fn mid_sequence_slice_at_matches_full_rows() {
        // A multi-row slice starting mid-chunk must split on the same
        // absolute chunk boundaries the full pass used.
        let (x, w, calib, config) = setup(67, 8, 4); // 24 rows, chunk 8
        let full = implicit_requant_matmul(&x, &w, &calib, &config).result;
        let slice = x.slice_rows(5, 21);
        let got = implicit_requant_matmul_at(&slice, 5, &w, &calib, &config);
        for r in 0..slice.rows() {
            assert_eq!(got.result.row(r), full.row(5 + r), "row {}", 5 + r);
        }
        // Rows 5..8, 8..16, 16..21 → three runs.
        assert_eq!(got.chunks_processed, 3);
    }

    #[test]
    fn chunk_runs_cover_rows_on_absolute_boundaries() {
        let at = |positions: &[usize]| chunk_runs(positions, 8).collect::<Vec<_>>();
        let runs = |rows, row0| at(&contiguous(row0, rows));
        assert_eq!(runs(16, 0), vec![(0, 8), (8, 16)]);
        assert_eq!(runs(1, 13), vec![(0, 1)]);
        assert_eq!(runs(10, 6), vec![(0, 2), (2, 10)]);
        // Past the calibrated range the nominal grid still applies; the
        // clamped chunk metadata is identical so results do not change.
        assert_eq!(runs(4, 30), vec![(0, 2), (2, 4)]);
        assert_eq!(runs(0, 5), vec![]);
        // Rows of different sessions: adjacent rows in one chunk are one
        // run in any order; a chunk met again later is a new run.
        assert_eq!(at(&[13, 9, 15, 8]), vec![(0, 4)]);
        assert_eq!(
            at(&[97, 33, 34, 100, 5]),
            vec![(0, 1), (1, 3), (3, 4), (4, 5)]
        );
        assert_eq!(at(&[3, 12, 4]), vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn result_is_close_to_exact_matmul() {
        let (x, w, calib, config) = setup(17, 8, 4);
        let exact = x.matmul(&w.dequantized()).unwrap();
        // Compare against x · W_deq (isolating activation-quantization error).
        let got = implicit_requant_matmul(&x, &w, &calib, &config).result;
        assert!(sqnr_db(&exact, &got) > 30.0);
    }

    /// Builds a 1×2 activation and 2×1 weight where the first MAC pushes the
    /// accumulator far past `i32::MAX` and the second brings it back into
    /// range before the chunk (and its single group) ends.
    fn mid_chunk_excursion_setup() -> (Matrix, QuantizedWeight, TenderCalibration, TenderConfig) {
        let config = TenderConfig {
            bits: 16,
            num_groups: 1,
            alpha: 2,
            row_chunk: 0,
            quant_act_act: false,
            subtract_bias: false, // a 1-row chunk would otherwise bias to 0
        };
        // Weight quantized at 24 bits: q = [+8388607, -8388607].
        let wf = Matrix::from_fn(2, 1, |r, _| if r == 0 { 1.0 } else { -1.0 });
        let w = QuantizedWeight::per_col(&wf, 24);
        // xq0 = 32767, xq1 = 32603: after channel 0 the accumulator is
        // 32767 · 8388607 ≈ 2.75e11 (far outside i32); after channel 1 it is
        // (32767 - 32603) · 8388607 ≈ 1.38e9, back inside i32.
        let x = Matrix::from_fn(1, 2, |_, c| if c == 0 { 1.0 } else { 0.995 });
        let calib = TenderCalibration::from_samples(std::slice::from_ref(&x), &config);
        (x, w, calib, config)
    }

    #[test]
    fn mid_chunk_excursion_is_counted() {
        // Regression for the group-boundary-sampling blind spot: the
        // accumulator leaves i32 range mid-chunk and returns before the
        // group boundary, so the old end-of-group check reported 0.
        let (x, w, calib, config) = mid_chunk_excursion_setup();
        let cc = calib.chunk_for_row(0);
        let (acc, overflow) = accumulate_chunk_implicit(&x, cc, &w, &config);
        assert!(
            acc[0] <= i32::MAX as i64 && acc[0] >= i32::MIN as i64,
            "final accumulator must be back in range (got {})",
            acc[0]
        );
        assert_eq!(
            overflow, 1,
            "exactly the channel-0 MAC leaves i32 range mid-chunk"
        );
        // The full matmul must surface the same count.
        let stats = implicit_requant_matmul(&x, &w, &calib, &config);
        assert_eq!(stats.overflow_events, 1);
        // The explicit-shifted order hits the same excursion here (single
        // group, same channel order).
        let (_, explicit_overflow) = accumulate_chunk_explicit_shifted(&x, cc, &w, &config);
        assert_eq!(explicit_overflow, 1);
    }

    /// What `implicit_requant_matmul` must return for a single-chunk `x`:
    /// the per-step `i64` accumulator through the defining dequantization.
    fn oracle_result(
        x: &Matrix,
        w: &QuantizedWeight,
        cc: &ChunkCalibration,
        config: &TenderConfig,
    ) -> Vec<f32> {
        let (acc, _, _) = accumulate_chunk_implicit_with(x, cc, w, config);
        let corr = bias_correction(&cc.bias, w);
        let s_last = cc.scales[config.num_groups - 1];
        acc.iter()
            .enumerate()
            .map(|(i, &a)| {
                let c = i % corr.len();
                dequant(a as f32, s_last, w.scales[c], corr[c])
            })
            .collect()
    }

    #[test]
    fn operand_width_flips_exactly_at_i16_max() {
        // Largest pre-scaled code qmax(bits) · α^(G−1): 32767 must still
        // ride in i16 operands, 32768 (and 7 · 4682) must not, and both
        // widths must reproduce the oracle bit for bit.
        for (bits, groups, alpha, top_code, fits) in [
            (16, 1, 2, 32767, true),
            (4, 2, 4681, 32767, true),
            (2, 16, 2, 32768, false),
            (4, 2, 4682, 32774, false),
        ] {
            let config = TenderConfig {
                bits,
                num_groups: groups,
                alpha,
                row_chunk: 0,
                quant_act_act: false,
                subtract_bias: false,
            };
            // Channel 0 carries ±TMax, so its code is ±qmax in group 0; the
            // rest fall into the last group.
            let x = Matrix::from_fn(3, 6, |r, c| match (r, c) {
                (0, 0) => 1000.0,
                (1, 0) => -1000.0,
                (_, 0) => 250.0,
                _ => 1e-3 * (r + c) as f32,
            });
            let calib = TenderCalibration::from_samples(std::slice::from_ref(&x), &config);
            let cc = calib.chunk_for_row(0);
            let wf = Matrix::from_fn(6, 3, |r, c| (r as f32 - 2.5) * (c as f32 + 1.0));
            let w = QuantizedWeight::per_col(&wf, 3);
            assert!(chunk_cannot_overflow(cc, w.bits, &config), "bits={bits}");
            assert_eq!(
                codes_fit_i16(&config),
                fits,
                "bits={bits} G={groups} α={alpha}"
            );
            let group0 = &quantized_group_operands(&x, cc, &w, &config)[0].0;
            let factor = (alpha as i64).pow(groups as u32 - 1);
            assert_eq!(group0[(0, 0)] as i64 * factor, top_code);
            assert_eq!(group0[(1, 0)] as i64 * factor, -top_code);
            let got = implicit_requant_matmul(&x, &w, &calib, &config);
            assert_eq!(got.overflow_events, 0);
            assert_eq!(
                got.result.as_slice(),
                &oracle_result(&x, &w, cc, &config)[..],
                "bits={bits} G={groups} α={alpha}"
            );
        }
    }

    /// `channels` one-bit-wide channels (codes and weights in {−1, 0, 1}),
    /// one per group for the first 31 and the rest in the last group, with
    /// every activation at `sign` times its group scale — so every code is
    /// `sign · qmax` and every weight `+qmax`: the worst case of a chunk
    /// whose bound is `2^31 − 1 + (channels − 31)`.
    fn unit_code_chunk(
        channels: usize,
        sign: f32,
    ) -> (Matrix, QuantizedWeight, TenderCalibration, TenderConfig) {
        let groups = 31;
        let config = TenderConfig {
            bits: 2,
            num_groups: groups,
            alpha: 2,
            row_chunk: 0,
            quant_act_act: false,
            subtract_bias: false,
        };
        let tmax = (1_u32 << 30) as f32;
        let group_of: Vec<usize> = (0..channels).map(|ch| ch.min(groups - 1)).collect();
        let mut order = vec![Vec::new(); groups];
        for (ch, &g) in group_of.iter().enumerate() {
            order[g].push(ch);
        }
        let cc = ChunkCalibration {
            bias: vec![0.0; channels],
            scales: super::super::decompose::group_scales(tmax, groups, 2, 2),
            group_of,
            order,
            tmax,
        };
        let x = Matrix::from_fn(2, channels, |_, ch| sign * cc.scales[cc.group_of[ch]]);
        let w = QuantizedWeight::per_col(&Matrix::filled(channels, 3, 1.0), 2);
        let calib = TenderCalibration::from_parts(vec![cc], 2);
        (x, w, calib, config)
    }

    #[test]
    fn license_flips_exactly_at_i32_max() {
        // Bound exactly i32::MAX: licensed, and the worst-case operands
        // drive the 32-bit accumulator to ±i32::MAX without tripping the
        // debug-build overflow check.
        for sign in [1.0, -1.0] {
            let (x, w, calib, config) = unit_code_chunk(31, sign);
            let cc = calib.chunk_for_row(0);
            assert_eq!(
                chunk_accumulator_bound(cc, w.bits, &config),
                i32::MAX as u128
            );
            assert!(chunk_cannot_overflow(cc, w.bits, &config));
            let (acc, overflow, _) = accumulate_chunk_implicit_with(&x, cc, &w, &config);
            assert!(acc.iter().all(|&a| a == sign as i64 * i32::MAX as i64));
            assert_eq!(overflow, 0);
            let got = implicit_requant_matmul(&x, &w, &calib, &config);
            assert_eq!(got.overflow_events, 0);
            assert_eq!(
                got.result.as_slice(),
                &oracle_result(&x, &w, cc, &config)[..]
            );
        }
        // One more unit channel: bound i32::MAX + 1, so the chunk must take
        // the checked i64 loop, which sees the last MAC of every output
        // element (2 rows × 3 columns) step out of range.
        let (x, w, calib, config) = unit_code_chunk(32, 1.0);
        let cc = calib.chunk_for_row(0);
        assert_eq!(
            chunk_accumulator_bound(cc, w.bits, &config),
            i32::MAX as u128 + 1
        );
        assert!(!chunk_cannot_overflow(cc, w.bits, &config));
        let got = implicit_requant_matmul(&x, &w, &calib, &config);
        assert_eq!(got.overflow_events, 6);
        assert_eq!(
            got.result.as_slice(),
            &oracle_result(&x, &w, cc, &config)[..]
        );
        // The crafted mid-chunk excursion is unlicensed too and still
        // reports exactly its one event.
        let (x, w, calib, config) = mid_chunk_excursion_setup();
        assert!(!chunk_cannot_overflow(
            calib.chunk_for_row(0),
            w.bits,
            &config
        ));
        assert_eq!(
            implicit_requant_matmul(&x, &w, &calib, &config).overflow_events,
            1
        );
    }

    #[test]
    fn worst_case_int8_operands_fill_a_licensed_i16_chunk() {
        // The i16-operand twin of the test above: ±qmax activations against
        // ±qmax weights over as many INT8/G1 channels as the bound admits
        // (16129 · K ≤ i32::MAX), in a debug build, without an overflow
        // panic and equal to the i64 loop.
        let config = TenderConfig::int8()
            .with_groups(1)
            .with_row_chunk(0)
            .with_bias(false);
        let k = (i32::MAX / (127 * 127)) as usize;
        let x = Matrix::from_fn(2, k, |r, _| if r == 0 { 9.0 } else { -9.0 });
        let wf = Matrix::from_fn(k, 2, |_, c| if c == 0 { 0.5 } else { -0.5 });
        let calib = TenderCalibration::from_samples(std::slice::from_ref(&x), &config);
        let cc = calib.chunk_for_row(0);
        let w = QuantizedWeight::per_col(&wf, 8);
        assert!(chunk_cannot_overflow(cc, w.bits, &config) && codes_fit_i16(&config));
        let (acc, _, _) = accumulate_chunk_implicit_with(&x, cc, &w, &config);
        let peak = 127 * 127 * k as i64;
        assert_eq!(acc, vec![peak, -peak, -peak, peak]);
        assert!(i32::MAX as i64 - peak < 127 * 127);
        let got = implicit_requant_matmul(&x, &w, &calib, &config);
        assert_eq!(
            got.result.as_slice(),
            &oracle_result(&x, &w, cc, &config)[..]
        );
    }

    /// One hand-built chunk over `k` channels, channel `ch` in group
    /// `ch % groups`, with zero bias and TMax = `qmax(bits)`, so at α = 2
    /// every group scale is a power of two and `code · s_g` quantizes back
    /// to `code` exactly. `rows` is the chunk height.
    fn tiny_chunk(
        k: usize,
        bits: u32,
        groups: usize,
        alpha: u32,
        rows: usize,
    ) -> (TenderCalibration, TenderConfig) {
        let config = TenderConfig {
            bits,
            num_groups: groups,
            alpha,
            row_chunk: 0,
            quant_act_act: false,
            subtract_bias: false,
        };
        let group_of: Vec<usize> = (0..k).map(|ch| ch % groups).collect();
        let mut order = vec![Vec::new(); groups];
        for (ch, &g) in group_of.iter().enumerate() {
            order[g].push(ch);
        }
        let tmax = qmax(bits) as f32;
        let cc = ChunkCalibration {
            bias: vec![0.0; k],
            scales: super::super::decompose::group_scales(tmax, groups, alpha, bits),
            group_of,
            order,
            tmax,
        };
        (TenderCalibration::from_parts(vec![cc], rows), config)
    }

    /// A weight whose store holds `code(j, ch)` as given, at unit scales,
    /// in the `i32` arm if `wide`.
    fn weight_of_codes(
        (n, k): (usize, usize),
        bits: u32,
        wide: bool,
        code: impl Fn(usize, usize) -> i32,
    ) -> QuantizedWeight {
        let codes = if wide {
            PackedCodes::I32(Dense::from_fn(n, k, code))
        } else {
            PackedCodes::I16(Dense::from_fn(n, k, |j, ch| code(j, ch) as i16))
        };
        QuantizedWeight {
            codes,
            scales: vec![1.0; n],
            bits,
        }
    }

    #[test]
    fn license_is_exact_over_every_tiny_operand() {
        // ROADMAP 4(e) by enumeration: at k ≤ 3 channels, 2–4-bit operands,
        // G ≤ 3 and α = 2, one activation row per activation code vector
        // against one weight column per weight code vector. Every chunk is
        // licensed there, so the checked walk must count zero overflows, its
        // accumulator must be the defining sum, and the licensed kernel's
        // output bits must be the walk's.
        let digit = |idx: usize, ch: usize, bits: u32| {
            let base = 2 * qmax(bits) as usize + 1;
            (idx / base.pow(ch as u32) % base) as i32 - qmax(bits)
        };
        for k in 1..=3 {
            let vectors = |bits: u32| (2 * qmax(bits) as usize + 1).pow(k as u32);
            for (act_bits, w_bits) in (2..=4).flat_map(|a| (2..=4).map(move |b| (a, b))) {
                let (m, n) = (vectors(act_bits), vectors(w_bits));
                if m * n > 120_000 {
                    continue; // (3|4, 4|3) and (4, 4) at k = 3: debug-build time
                }
                for (groups, wide) in (1..=3).flat_map(|g| [(g, false), (g, true)]) {
                    let (calib, config) = tiny_chunk(k, act_bits, groups, 2, m);
                    let cc = calib.chunk_for_row(0);
                    let x = Matrix::from_fn(m, k, |r, ch| {
                        digit(r, ch, act_bits) as f32 * cc.scales[cc.group_of[ch]]
                    });
                    let w = weight_of_codes((n, k), w_bits, wide, |j, ch| digit(j, ch, w_bits));
                    assert!(chunk_cannot_overflow(cc, w_bits, &config));
                    let (acc, overflow, saturated) =
                        accumulate_chunk_implicit_with(&x, cc, &w, &config);
                    let what = format!("k={k} bits={act_bits}/{w_bits} G={groups} wide={wide}");
                    assert_eq!((overflow, saturated), (0, 0), "{what}");
                    for (i, &a) in acc.iter().enumerate() {
                        let (r, j) = (i / n, i % n);
                        let want: i64 = (0..k)
                            .map(|ch| {
                                let shift = 2_i64.pow((groups - 1 - cc.group_of[ch]) as u32);
                                shift * (digit(r, ch, act_bits) * digit(j, ch, w_bits)) as i64
                            })
                            .sum();
                        assert_eq!(a, want, "{what} ({r},{j})");
                    }
                    let got = implicit_requant_matmul(&x, &w, &calib, &config);
                    let oracle = oracle_result(&x, &w, cc, &config);
                    let oracle_bits: Vec<u32> = oracle.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(bits_of(&got.result), oracle_bits, "{what}");
                }
            }
        }
    }

    #[test]
    fn worst_case_operands_reach_the_bound_exactly() {
        // The bound is not just sound but tight: all-±qmax operands drive the
        // checked accumulator to exactly ±`chunk_accumulator_bound`.
        for (bits, groups, alpha, k) in [2, 4, 8].into_iter().flat_map(|b| {
            (1..=4).flat_map(move |g| {
                [2, 3]
                    .into_iter()
                    .flat_map(move |a| (1..=6).map(move |k| (b, g, a, k)))
            })
        }) {
            let (calib, config) = tiny_chunk(k, bits, groups, alpha, 1);
            let cc = calib.chunk_for_row(0);
            let bound = chunk_accumulator_bound(cc, bits, &config) as i64;
            let q = qmax(bits);
            for (xs, ws) in [(1, 1), (1, -1), (-1, 1), (-1, -1)] {
                let x = Matrix::from_fn(1, k, |_, ch| (xs * q) as f32 * cc.scales[cc.group_of[ch]]);
                let w = weight_of_codes((1, k), bits, false, |_, _| ws * q);
                let (acc, overflow, saturated) =
                    accumulate_chunk_implicit_with(&x, cc, &w, &config);
                let what = format!("bits={bits} G={groups} α={alpha} k={k} signs={xs}/{ws}");
                assert_eq!(acc, vec![(xs * ws) as i64 * bound], "{what}");
                assert_eq!((overflow, saturated), (0, 0), "{what}");
            }
        }
    }

    #[test]
    fn overflow_bound_gates_the_fast_path() {
        // Paper-scale shapes are provably overflow-free…
        let (x, w, calib, config) = setup(43, 8, 4);
        let _ = x;
        let cc = calib.chunk_for_row(0);
        assert!(chunk_cannot_overflow(cc, w.bits(), &config));
        // …while the crafted excursion chunk is not.
        let (_, w2, calib2, config2) = mid_chunk_excursion_setup();
        let cc2 = calib2.chunk_for_row(0);
        assert!(!chunk_cannot_overflow(cc2, w2.bits(), &config2));
        // The bound is sound: it dominates the worst single-step magnitude.
        let bound = chunk_accumulator_bound(cc2, w2.bits(), &config2);
        assert!(bound >= 32767_u128 * 8388607 * 2);
    }

    #[test]
    fn no_overflow_for_modelled_shapes() {
        let (x, w, calib, config) = setup(19, 8, 4);
        let stats = implicit_requant_matmul(&x, &w, &calib, &config);
        assert_eq!(stats.overflow_events, 0);
        assert_eq!(stats.chunks_processed, 3); // 24 rows / chunk 8
    }

    #[test]
    fn more_groups_reduce_error() {
        // Fig. 9: perplexity (error) decreases as groups increase. The trend
        // is statistical, so average the MSE over several seeds rather than
        // relying on a single draw.
        let mut errs = [0.0_f64; 4];
        for seed in 23..31 {
            let mut rng = DetRng::new(seed);
            let x = outlier_activation(&mut rng, 32, 16);
            let wf = rng.normal_matrix(16, 8, 0.0, 0.2);
            let exact = x.matmul(&wf).unwrap();
            for (e, groups) in errs.iter_mut().zip([1_usize, 2, 4, 8]) {
                let config = TenderConfig::int4().with_groups(groups).with_row_chunk(0);
                let calib = TenderCalibration::from_samples(std::slice::from_ref(&x), &config);
                let w = QuantizedWeight::per_col(&wf, 4);
                *e += mse(
                    &exact,
                    &implicit_requant_matmul(&x, &w, &calib, &config).result,
                );
            }
        }
        assert!(
            errs[1] < errs[0],
            "2 groups {} !< 1 group {}",
            errs[1],
            errs[0]
        );
        assert!(
            errs[3] < errs[1],
            "8 groups {} !< 2 groups {}",
            errs[3],
            errs[1]
        );
    }

    #[test]
    fn row_chunking_reduces_error_under_intra_channel_variance() {
        // Rows 0..16 small, rows 16..32 large: per-chunk calibration must
        // beat a single global chunk (the INT4 optimization of §III-B).
        let mut rng = DetRng::new(29);
        let x = Matrix::from_fn(32, 16, |r, c| {
            let base = rng.normal(0.0, 0.3);
            let scale = if r < 16 { 1.0 } else { 40.0 };
            if c == 2 {
                rng.normal(0.0, 20.0) * scale / 40.0 + scale / 10.0
            } else {
                base * scale
            }
        });
        let wf = rng.normal_matrix(16, 8, 0.0, 0.2);
        let exact = x.matmul(&wf).unwrap();
        let w = QuantizedWeight::per_col(&wf, 4);

        let cfg_nochunk = TenderConfig::int4().with_row_chunk(0);
        let cal_nochunk = TenderCalibration::from_samples(std::slice::from_ref(&x), &cfg_nochunk);
        let e_nochunk = mse(
            &exact,
            &implicit_requant_matmul(&x, &w, &cal_nochunk, &cfg_nochunk).result,
        );

        let cfg_chunk = TenderConfig::int4().with_row_chunk(16);
        let cal_chunk = TenderCalibration::from_samples(std::slice::from_ref(&x), &cfg_chunk);
        let e_chunk = mse(
            &exact,
            &implicit_requant_matmul(&x, &w, &cal_chunk, &cfg_chunk).result,
        );

        assert!(
            e_chunk < e_nochunk,
            "chunked {e_chunk} !< unchunked {e_nochunk}"
        );
    }

    #[test]
    fn dynamic_matmul_close_to_exact() {
        let mut rng = DetRng::new(31);
        let a = rng.normal_matrix(12, 16, 0.0, 1.0);
        let b = rng.normal_matrix(16, 12, 0.0, 1.0);
        let exact = a.matmul(&b).unwrap();
        let got = tender_dynamic_matmul(&a, &b, &TenderConfig::int8().with_row_chunk(0));
        assert!(sqnr_db(&exact, &got) > 25.0);
    }

    /// A weight that reaches every special case of the quantizer: NaN,
    /// ±∞, `±0.0`, exact `.5` ties (columns whose scale is a power of two),
    /// saturating and subnormal values, at a `k` that spans more than one
    /// block of rows.
    fn special_weight(k: usize, n: usize, seed: u64) -> Matrix {
        let mut rng = DetRng::new(seed);
        let mut w = rng.normal_matrix(k, n, 0.0, 0.4);
        for ch in 0..k {
            for j in 0..n {
                w[(ch, j)] = match (ch * 7 + j * 3 + seed as usize) % 23 {
                    0 if j % 5 == 1 => f32::NAN,
                    1 if j % 5 == 2 => f32::INFINITY,
                    2 if j % 5 == 2 => f32::NEG_INFINITY,
                    3 => 0.0,
                    4 => -0.0,
                    // A tie at scale 2^-4 once column `j`'s max is 2^-4·qmax.
                    5..=7 => (rng.below(9) as f32 - 4.0 + 0.5) * 0.0625,
                    8 => f32::from_bits(1 + rng.below(1000) as u32),
                    _ => w[(ch, j)],
                };
            }
        }
        w
    }

    /// `QuantizedWeight::per_col` quantizes each weight row in one pass
    /// and writes the store transposed; the scalar definition reads each
    /// column strided. Codes, scales and the bias-correction rows must
    /// agree bit for bit, at every store width.
    #[test]
    fn per_col_store_is_the_scalar_definition() {
        let (k, n) = (75, 13);
        for (seed, bits) in [(1, 4), (2, 8), (3, 16), (4, 20)] {
            let mut w = special_weight(k, n, seed);
            // Half the columns get max = 2^-4 · qmax, so their scale is
            // exactly 2^-4 and the tie values above round away from zero.
            for j in (0..n).step_by(2) {
                w[(k - 1, j)] = 0.0625 * qmax(bits) as f32;
            }
            let qw = QuantizedWeight::per_col(&w, bits);
            let scales: Vec<f32> = stats::col_abs_max(&w)
                .iter()
                .map(|&m| symmetric_scale(m, bits))
                .collect();
            assert_eq!(
                bits_of_slice(qw.scales()),
                bits_of_slice(&scales),
                "bits {bits}"
            );
            let want = IMatrix::from_fn(k, n, |ch, j| quantize_value(w[(ch, j)], scales[j], bits));
            assert_eq!(qw.values(), want, "bits {bits}");
            assert_eq!(matches!(qw.codes, PackedCodes::I16(_)), bits <= 16);

            // Biases with zeros of both signs (skipped) and a NaN.
            let bias: Vec<f32> = (0..k)
                .map(|ch| match ch % 6 {
                    0 => 0.0,
                    1 => -0.0,
                    2 if ch == 8 => f32::NAN,
                    _ => (ch as f32 - 30.0) * 0.37,
                })
                .collect();
            let definition: Vec<f32> = (0..n)
                .map(|j| {
                    (0..k)
                        .filter(|&ch| bias[ch] != 0.0)
                        .fold(0.0_f32, |corr, ch| {
                            corr + bias[ch] * (qw.codes.at(j, ch) as f32 * qw.scales[j])
                        })
                })
                .collect();
            assert_eq!(
                bits_of_slice(&bias_correction(&bias, &qw)),
                bits_of_slice(&definition),
                "bits {bits}"
            );
        }
    }

    fn bits_of_slice(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn quantized_weight_round_trip() {
        let mut rng = DetRng::new(37);
        let w = rng.normal_matrix(8, 8, 0.0, 0.5);
        let qw = QuantizedWeight::per_col(&w, 8);
        assert_eq!(qw.bits(), 8);
        assert_eq!(qw.scales().len(), 8);
        let deq = qw.dequantized();
        for r in 0..8 {
            for c in 0..8 {
                let err = (w[(r, c)] - deq[(r, c)]).abs();
                assert!(err <= qw.scales()[c] / 2.0 + 1e-6);
            }
        }
    }

    #[test]
    #[should_panic(expected = "activation channels must match")]
    fn shape_mismatch_panics() {
        let (x, w, calib, config) = setup(41, 8, 4);
        let bad = Matrix::zeros(4, x.cols() + 1);
        let _ = implicit_requant_matmul(&bad, &w, &calib, &config);
    }
}
