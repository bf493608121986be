//! The KV row codec: one encoder and one decoder, shared by the append
//! path ([`PlaneQuant`]) and the demotion path ([`demote_payload`]), so a
//! demoted page equals the same rows quantized from scratch by
//! construction. The decoder is defined row by row ([`decode_rows`]) and
//! run page by page ([`dequant_page_into`]: the groups' power-of-two
//! spacing folded into the codes as a shift, one multiply by the smallest
//! scale). Also the activation-side helpers of the integer read path.
//!
//! Both quantizing directions — rows into the cache ([`encode_row`]) and
//! query / probability rows against it ([`quantize_act_into`]) — produce their
//! codes through the engine's one runtime row quantizer,
//! [`tender_quant::quantizer::quantize_row`], and the encoder classifies
//! through the same threshold core as `classify_channels`
//! ([`group_thresholds`] once per row, [`group_of`] per element). The
//! encoder's buffers live in a [`RowScratch`] owned by the caller (the
//! cache, or one demotion call), so appending a row allocates nothing.

use std::sync::Arc;

use tender_metrics::engine as metrics;
use tender_metrics::kernel as kernel_metrics;
use tender_quant::quantizer::{f16_round, quantize_row, symmetric_scale, QUANT_LANES};
use tender_quant::tender::{group_of, group_scales, group_thresholds};
use tender_tensor::arena::QuantPage;
use tender_tensor::qrows::MAX_PACKED_GROUPS;
use tender_tensor::{PagePayload, QuantRows};

use super::mode::{KvCacheMode, ALPHA, KV_ACT_BITS};

/// Per-channel bias `(lo + hi)/2` over a batch of `head_dim`-wide rows,
/// f16-rounded, non-finite values excluded (the prompt acts as the
/// calibration set, mirroring `ChunkCalibration::from_activation`).
fn plane_bias<'a>(rows: impl Iterator<Item = &'a [f32]>, head_dim: usize) -> Vec<f32> {
    let mut range = vec![(f32::INFINITY, f32::NEG_INFINITY); head_dim];
    for row in rows {
        for ((lo, hi), &x) in range.iter_mut().zip(row) {
            if x.is_finite() {
                *lo = lo.min(x);
                *hi = hi.max(x);
            }
        }
    }
    range
        .into_iter()
        .map(|(lo, hi)| {
            if lo <= hi {
                f16_round(0.5 * (lo + hi))
            } else {
                0.0
            }
        })
        .collect()
}

/// Largest finite magnitude of a row (non-finite entries are excluded so
/// one NaN cannot inflate every scale).
///
/// The maximum of non-negative finite floats does not depend on the order
/// they are compared in, so the row is folded through a bank of
/// [`QUANT_LANES`] running maxima with selects instead of branches — the
/// shape that compiles to packed compares and `maxps` — and the bank is
/// folded at the end.
fn finite_amax(xs: &[f32]) -> f32 {
    // |x| if finite, else 0.0 (NaN and ∞ both fail the comparison).
    let finite_abs = |x: f32| {
        let a = x.abs();
        if a < f32::INFINITY {
            a
        } else {
            0.0
        }
    };
    let larger = |m: f32, a: f32| if a > m { a } else { m };
    let (chunks, tail) = xs.as_chunks::<QUANT_LANES>();
    let mut bank = [0.0f32; QUANT_LANES];
    for chunk in chunks {
        for l in 0..QUANT_LANES {
            bank[l] = larger(bank[l], finite_abs(chunk[l]));
        }
    }
    let tail_max = tail.iter().fold(0.0, |m, &x| larger(m, finite_abs(x)));
    bank.iter().fold(tail_max, |m, &a| larger(m, a))
}

/// The row encoder's own buffers: the per-element scale, code and group
/// tag of the row being encoded.
#[derive(Debug, Clone, Default)]
struct CodeScratch {
    scales: Vec<f32>,
    codes: Vec<i32>,
    tags: Vec<u8>,
}

/// Everything quantizing one row into a page needs besides the page and
/// the plane state: the row's residual and the encoder's buffers. Owned by
/// whoever appends, reused across rows and planes.
#[derive(Debug, Clone, Default)]
pub(super) struct RowScratch {
    resid: Vec<f32>,
    code: CodeScratch,
}

/// The row encoder: classifies each residual channel into its
/// power-of-two group (thresholds from [`group_thresholds`], once for the
/// row; a non-finite residual degrades to group 0 via a MAX sentinel, the
/// calibration path's rule), quantizes the row under those per-element
/// scales in one [`quantize_row`] pass and appends the packed row.
fn encode_row(
    out: &mut QuantRows,
    resid: &[f32],
    tmax: f32,
    scales: &[f32],
    bits: u32,
    scratch: &mut CodeScratch,
) {
    let groups = scales.len();
    scratch.codes.resize(resid.len(), 0);
    if groups > 1 {
        let mut thresholds = [0.0f32; MAX_PACKED_GROUPS];
        let thresholds = &mut thresholds[..groups];
        group_thresholds(tmax, ALPHA, thresholds);
        scratch.tags.resize(resid.len(), 0);
        scratch.scales.resize(resid.len(), 0.0);
        let per_element = scratch.tags.iter_mut().zip(&mut scratch.scales);
        for (&x, (tag, scale)) in resid.iter().zip(per_element) {
            let mag = if x.is_finite() { x.abs() } else { f32::MAX };
            let g = group_of(mag, thresholds);
            *tag = g as u8;
            *scale = scales[g];
        }
        quantize_row(resid, 0.0, &scratch.scales[..], bits, &mut scratch.codes);
    } else {
        scratch.tags.clear();
        quantize_row(resid, 0.0, scales[0], bits, &mut scratch.codes);
    }
    out.push_row(&scratch.codes, &scratch.tags);
}

/// The row decoder: hands every stored row of a page to `sink` as f32 —
/// exact for an f32 page, dequantized under the page's own frozen scale
/// snapshot for a quantized one. This is the definition of a stored row's
/// value: the gathered read uses it, and [`dequant_page_into`] is tested
/// against it and falls back to it.
pub(super) fn decode_rows(payload: &PagePayload, mut sink: impl FnMut(&[f32])) {
    match payload {
        PagePayload::F32(m) => {
            for r in 0..m.rows() {
                sink(m.row(r));
            }
        }
        PagePayload::Quant(q) => decode_quant_rows(q, sink),
    }
}

/// [`decode_rows`] of a quantized page: `code · scales[group] + bias` per
/// element, row by row.
fn decode_quant_rows(q: &QuantPage, mut sink: impl FnMut(&[f32])) {
    let mut row = vec![0.0f32; q.rows.cols()];
    for r in 0..q.rows.rows() {
        let elements = q.rows.row_iter(r).zip(q.bias.iter());
        for (o, ((code, g), b)) in row.iter_mut().zip(elements) {
            *o = code as f32 * q.scales[g] + b;
        }
        sink(&row);
    }
}

/// The smallest scale of a snapshot whose every scale is *exactly* it times
/// its group's combine weight, `scales[g] == s_last · 2^(G−1−g)` — the
/// license of [`dequant_page_into`]'s shift-and-scale. Every
/// [`group_scales`] output qualifies (dividing by `qmax` commutes with a
/// power-of-two scaling) except where the snapshot reaches the subnormals,
/// i.e. the degenerate `TMax = f32::MIN_POSITIVE` page.
fn shift_scale(scales: &[f32]) -> Option<f32> {
    let &s_last = scales.last()?;
    let exact = |(g, &s): (usize, &f32)| {
        s.is_finite() && s == s_last * (1u32 << (scales.len() - 1 - g)) as f32
    };
    (s_last.is_normal() && scales.iter().enumerate().all(exact)).then_some(s_last)
}

/// Dequantizes a whole page into `out` (row-major, `rows · head_dim`), the
/// paper's way: [`QuantRows::decode_shifted_into`] folds each group's
/// power-of-two weight into its code as an integer shift, so one multiply by
/// the smallest scale is all the floating-point work left —
/// `code as f32 · s_last + bias[c]`.
///
/// Bit-identical to [`decode_rows`]: under the [`shift_scale`] license
/// `q · 2^k` is an exact small integer and `(q · 2^k) · s_last` and
/// `q · (s_last · 2^k)` round the same real number once. Unlicensed
/// snapshots take `decode_rows` itself. `codes` is caller scratch.
pub(super) fn dequant_page_into(q: &QuantPage, codes: &mut Vec<i16>, out: &mut Vec<f32>) {
    let Some(s_last) = shift_scale(&q.scales) else {
        out.clear();
        decode_quant_rows(q, |row| out.extend_from_slice(row));
        return;
    };
    let dh = q.rows.cols();
    debug_assert_eq!(q.bias.len(), dh, "one bias per channel");
    codes.resize(q.rows.rows() * dh, 0);
    q.rows.decode_shifted_into(q.scales.len(), codes);
    out.resize(codes.len(), 0.0);
    for (row, codes) in out.chunks_exact_mut(dh).zip(codes.chunks_exact(dh)) {
        for ((o, &code), &b) in row.iter_mut().zip(codes).zip(q.bias.iter()) {
            *o = code as f32 * s_last + b;
        }
    }
}

/// Re-quantizes a page's rows from scratch at a lower storage tier (the
/// demotion step of the eviction ladder).
///
/// The page's rows are decoded to f32, then encoded exactly as an
/// append-time plane would encode them — page-local bias `(lo + hi)/2`
/// f16-rounded per channel, residual `TMax`, power-of-two group scales,
/// `classify_channels` group assignment — so a demoted page is
/// bit-identical to quantizing the same rows from scratch. The returned
/// payload carries `page_local = true`: its bias/`TMax` are its own and
/// counted against the page.
///
/// # Panics
///
/// Panics if `target` is [`KvCacheMode::F32`] — demotion only moves down
/// the ladder.
pub fn demote_payload(payload: &PagePayload, target: KvCacheMode) -> PagePayload {
    assert!(
        target != KvCacheMode::F32,
        "demotion target must be a quantized tier"
    );
    let bits = target.bits();
    let groups = target.num_groups();
    let dh = payload.cols();

    let mut rows = Vec::new();
    match payload {
        PagePayload::F32(m) => rows.extend_from_slice(m.as_slice()),
        PagePayload::Quant(q) => dequant_page_into(q, &mut Vec::new(), &mut rows),
    }

    // Page-local calibration: bias, residual TMax, group scales.
    let bias = plane_bias(rows.chunks_exact(dh), dh);
    let mut tmax = f32::MIN_POSITIVE;
    for row in rows.chunks_exact_mut(dh) {
        for (x, b) in row.iter_mut().zip(&bias) {
            *x -= b;
        }
        tmax = tmax.max(finite_amax(row));
    }
    let scales = group_scales(tmax, groups, ALPHA, bits);

    let mut out = QuantRows::with_row_capacity(dh, bits, groups > 1, payload.rows());
    let mut scratch = CodeScratch::default();
    for resid in rows.chunks_exact(dh) {
        encode_row(&mut out, resid, tmax, &scales, bits, &mut scratch);
    }
    PagePayload::Quant(QuantPage {
        rows: out,
        scales,
        bias: Arc::new(bias),
        tmax,
        page_local: true,
    })
}

/// The shrink-only demotion step: `payload` one rung down the
/// f32 → int8 → int4 ladder, or `None` at the floor or when the lower
/// rung would not free bytes. At tiny head dims a rung's per-group scale
/// snapshot can outweigh its code savings, and the arena's in-place edit
/// paths apply byte deltas without a cap check — a non-shrinking
/// demotion must never be committed.
pub(super) fn demote_if_smaller(payload: &PagePayload, page_rows: usize) -> Option<PagePayload> {
    let demoted = demote_payload(payload, payload.tier().demoted()?);
    (demoted.allocated_bytes(page_rows) < payload.allocated_bytes(page_rows)).then_some(demoted)
}

/// One quantized plane's append-time state: fixed per-channel bias,
/// running `TMax`, derived group scales. The packed codes themselves live
/// in arena pages; this struct is what quantizes new rows into the tail
/// page and freezes a scale snapshot onto it after every write.
#[derive(Debug, Clone, Default)]
pub(super) struct PlaneQuant {
    /// Per-channel bias, fixed at first append. Shared (`Arc`) with every
    /// non-demoted page of the plane.
    bias: Arc<Vec<f32>>,
    /// Running per-plane residual absolute maximum; doubles on requant.
    tmax: f32,
    /// `group_scales(tmax, groups, ALPHA, bits)`, cached.
    scales: Vec<f32>,
    /// Runtime requantization events this plane has performed.
    pub(super) requants: u64,
}

impl PlaneQuant {
    /// Fixes the plane's per-channel bias from the first batch of rows
    /// it ever sees; later batches keep it.
    pub(super) fn fix_bias<'a>(&mut self, rows: impl Iterator<Item = &'a [f32]>, head_dim: usize) {
        if self.bias.is_empty() {
            self.bias = Arc::new(plane_bias(rows, head_dim));
        }
    }

    /// An empty tail page for this plane in `mode`.
    pub(super) fn fresh_page(&self, mode: KvCacheMode, head_dim: usize, rows: usize) -> QuantPage {
        QuantPage {
            rows: QuantRows::with_row_capacity(head_dim, mode.bits(), mode.num_groups() > 1, rows),
            scales: self.scales.clone(),
            bias: self.bias.clone(),
            tmax: self.tmax,
            page_local: false,
        }
    }

    /// Quantizes one row into the live tail page against the running
    /// `TMax`, requantizing the *tail page only* when the row exceeds it
    /// (sealed pages keep their frozen snapshots), then commits the current
    /// plane state onto the page as its scale snapshot. Allocates only when
    /// the scales change (first row, requantization).
    pub(super) fn push_into(
        &mut self,
        page: &mut QuantPage,
        row: &[f32],
        mode: KvCacheMode,
        scratch: &mut RowScratch,
    ) {
        let (bits, groups) = (mode.bits(), mode.num_groups());
        scratch.resid.clear();
        scratch
            .resid
            .extend(row.iter().zip(self.bias.iter()).map(|(x, b)| x - b));
        let row_max = finite_amax(&scratch.resid);
        if self.scales.is_empty() {
            self.tmax = if row_max > 0.0 {
                row_max
            } else {
                f32::MIN_POSITIVE
            };
            self.scales = group_scales(self.tmax, groups, ALPHA, bits);
        } else if row_max > self.tmax {
            // Runtime requantization: double TMax until it covers the new
            // row, then apply the same number of doublings to the tail
            // page's stored rows (it is the only page still written under
            // the current scales).
            let mut doublings = 0u32;
            let mut t = self.tmax;
            while t < row_max {
                t *= 2.0;
                doublings += 1;
                if !t.is_finite() {
                    t = row_max;
                    break;
                }
            }
            self.tmax = t;
            page.rows.requant_shift(doublings, groups);
            self.scales = group_scales(self.tmax, groups, ALPHA, bits);
            self.requants += 1;
            metrics::KV_REQUANTS.incr();
        }
        encode_row(
            &mut page.rows,
            &scratch.resid,
            self.tmax,
            &self.scales,
            bits,
            &mut scratch.code,
        );
        // Commit the snapshot the page's rows are now consistent with.
        page.scales.clone_from(&self.scales);
        page.tmax = self.tmax;
        if !Arc::ptr_eq(&page.bias, &self.bias) {
            page.bias = Arc::clone(&self.bias);
        }
        page.page_local = false;
    }
}

/// Quantizes an f32 activation row to `KV_ACT_BITS` codes into `codes`
/// (resized to the row), returning the scale. Non-finite entries are
/// excluded from the range estimate and clamp deterministically in the
/// quantizer (NaN → 0, ±∞ → ±qmax).
pub(super) fn quantize_act_into(xs: &[f32], codes: &mut Vec<i32>) -> f32 {
    let scale = symmetric_scale(finite_amax(xs), KV_ACT_BITS);
    codes.resize(xs.len(), 0);
    quantize_row(xs, 0.0, scale, KV_ACT_BITS, codes);
    scale
}

/// Folds the per-group i64 partial sums of one checked dot into a single
/// value with the α = 2 shift-combine (groups ascending:
/// `acc ← acc·2 + S_g`), mirroring the implicit-requantization kernels.
/// Every shift and add is tested against the i32 datapath range and
/// excursions are counted into `events`. The check-free kernels never call
/// this: their codes carry the combine weights already.
pub(super) fn combine_groups(accs: &[i64], events: &mut u64) -> i64 {
    let mut acc = accs[0];
    for &s in &accs[1..] {
        acc *= ALPHA as i64;
        if acc > i32::MAX as i64 || acc < i32::MIN as i64 {
            *events += 1;
        }
        acc += s;
        if acc > i32::MAX as i64 || acc < i32::MIN as i64 {
            *events += 1;
        }
    }
    acc
}

/// Records one plane walk of `dots` integer dot products in the kernel
/// overflow-machinery counters.
pub(super) fn record_dot_metrics(dots: usize, check: bool, events: u64) {
    if check {
        kernel_metrics::CHUNKS_CHECKED.add(dots as u64);
    } else {
        kernel_metrics::CHUNKS_FAST_PATH.add(dots as u64);
    }
    if events > 0 {
        kernel_metrics::OVERFLOW_EVENTS.add(events);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tender_quant::quantizer::quantize_value;

    #[test]
    fn finite_amax_is_the_largest_finite_magnitude_wherever_it_sits() {
        let by_definition = |xs: &[f32]| {
            xs.iter()
                .filter(|x| x.is_finite())
                .fold(0.0f32, |m, x| m.max(x.abs()))
        };
        let mut xs: Vec<f32> = (0..40).map(|i| (i as f32 * 0.73).sin() * 3.0).collect();
        xs[5] = f32::NAN;
        xs[11] = f32::INFINITY;
        xs[12] = f32::NEG_INFINITY;
        xs[13] = -0.0;
        for len in 0..=xs.len() {
            for peak in 0..len {
                let mut row = xs[..len].to_vec();
                row[peak] = if peak % 2 == 0 { -77.5 } else { 77.5 };
                assert_eq!(finite_amax(&row).to_bits(), by_definition(&row).to_bits());
                assert_eq!(finite_amax(&row), 77.5, "peak at {peak} of {len}");
            }
            let row = &xs[..len];
            assert_eq!(finite_amax(row).to_bits(), by_definition(row).to_bits());
        }
        assert_eq!(
            finite_amax(&[f32::NAN, f32::INFINITY]).to_bits(),
            0.0f32.to_bits()
        );
        assert_eq!(finite_amax(&[-0.0]).to_bits(), 0.0f32.to_bits());
    }

    /// A page of `codes × tags` rows under `scales`, with an awkward bias.
    fn page_of(
        bits: u32,
        scales: Vec<f32>,
        cols: usize,
        rows: &[(Vec<i32>, Vec<u8>)],
    ) -> QuantPage {
        let mut packed = QuantRows::with_row_capacity(cols, bits, scales.len() > 1, rows.len());
        for (qs, gs) in rows {
            packed.push_row(qs, gs);
        }
        QuantPage {
            rows: packed,
            scales,
            bias: Arc::new((0..cols).map(|c| (c as f32 - 1.5) * 0.37).collect()),
            tmax: 1.0,
            page_local: true,
        }
    }

    /// `dequant_page_into` against `decode_rows`, bit for bit.
    fn assert_dequant_is_decode_rows(q: QuantPage) {
        let mut want = Vec::new();
        let payload = PagePayload::Quant(q);
        decode_rows(&payload, |row| want.extend(row.iter().map(|x| x.to_bits())));
        let PagePayload::Quant(q) = &payload else {
            unreachable!()
        };
        // Dirty scratch of the wrong size: nothing may survive from a
        // previous page.
        let (mut codes, mut got) = (vec![77i16; 3], vec![f32::NAN; 5]);
        dequant_page_into(q, &mut codes, &mut got);
        let got: Vec<u32> = got.iter().map(|x| x.to_bits()).collect();
        assert_eq!(got, want, "scales {:?}", q.scales);
    }

    /// Every INT4 code under every tag (whole quads, so the flat decode arm
    /// runs) and, ragged, through the per-element arm.
    fn int4_pages(scales: &[f32]) -> [QuantPage; 2] {
        let all: Vec<(i32, u8)> = (-8..8).flat_map(|q| (0..4).map(move |t| (q, t))).collect();
        let rows_of = |cols: usize| -> Vec<(Vec<i32>, Vec<u8>)> {
            all.chunks(cols)
                .filter(|chunk| chunk.len() == cols)
                .map(|chunk| chunk.iter().copied().unzip())
                .collect()
        };
        [
            page_of(4, scales.to_vec(), 4, &rows_of(4)),
            page_of(4, scales.to_vec(), 7, &rows_of(7)),
        ]
    }

    /// Every INT8 code, ungrouped.
    fn int8_page(scale: f32) -> QuantPage {
        let rows: Vec<(Vec<i32>, Vec<u8>)> = (-128..128)
            .collect::<Vec<i32>>()
            .chunks(16)
            .map(|chunk| (chunk.to_vec(), Vec::new()))
            .collect();
        page_of(8, vec![scale], 16, &rows)
    }

    #[test]
    fn shift_and_scale_dequant_is_decode_rows_for_every_code_and_tag() {
        for tmax in [1.0f32, 0.3, 77.7, 1e-30, 3.0e38, f32::MIN_POSITIVE * 1e6] {
            let scales = group_scales(tmax, 4, ALPHA, 4);
            assert!(
                shift_scale(&scales).is_some(),
                "tmax {tmax} must be licensed"
            );
            int4_pages(&scales)
                .into_iter()
                .for_each(assert_dequant_is_decode_rows);
            let scale = group_scales(tmax, 1, ALPHA, 8)[0];
            assert!(shift_scale(&[scale]).is_some());
            assert_dequant_is_decode_rows(int8_page(scale));
        }
    }

    #[test]
    fn unlicensed_snapshots_fall_back_to_decode_rows() {
        // The degenerate page (`TMax = MIN_POSITIVE` puts the snapshot in
        // the subnormals, where halving is no longer exact) and a snapshot
        // no `group_scales` call produces.
        let tiny = group_scales(f32::MIN_POSITIVE, 4, ALPHA, 4);
        for scales in [tiny, vec![0.8, 0.3, 0.2, 0.1]] {
            assert_eq!(shift_scale(&scales), None, "{scales:?}");
            int4_pages(&scales)
                .into_iter()
                .for_each(assert_dequant_is_decode_rows);
        }
        assert_eq!(shift_scale(&[f32::INFINITY, 1.0]), None);
        assert_eq!(shift_scale(&[f32::NAN]), None);
        assert_dequant_is_decode_rows(int8_page(f32::MIN_POSITIVE / 127.0));
    }

    #[test]
    fn quantize_act_is_the_scalar_map_over_the_finite_range() {
        let ramp: Vec<f32> = (0..224).map(|i| (i as f32 - 100.0) * 0.013).collect();
        let mut poisoned = ramp.clone();
        poisoned[0] = f32::NAN;
        poisoned[9] = f32::INFINITY;
        poisoned[17] = f32::NEG_INFINITY;
        let halves: Vec<f32> = (0..16).map(|i| i as f32 - 7.5).collect();
        for xs in [
            &ramp[..],
            &poisoned[..],
            &halves[..],
            &[0.0; 19][..],
            &[f32::NAN; 3][..],
            &[-3.5][..],
            &[][..],
        ] {
            let mut codes = vec![55; 3]; // dirty scratch of the wrong size
            let scale = quantize_act_into(xs, &mut codes);
            let want_scale = symmetric_scale(finite_amax(xs), KV_ACT_BITS);
            assert_eq!(scale.to_bits(), want_scale.to_bits());
            let want: Vec<i32> = xs
                .iter()
                .map(|&x| quantize_value(x, scale, KV_ACT_BITS))
                .collect();
            assert_eq!(codes, want);
        }
        // Non-finite entries clamp deterministically and do not set the scale.
        let mut codes = Vec::new();
        quantize_act_into(&poisoned, &mut codes);
        assert_eq!([codes[0], codes[9], codes[17]], [0, 127, -127]);
    }
}
