//! The KV row codec: one encoder and one decoder, shared by the append
//! path ([`PlaneQuant`]) and the demotion path ([`demote_payload`]), so a
//! demoted page equals the same rows quantized from scratch by
//! construction. Also the activation-side helpers of the integer read
//! path.

use std::sync::Arc;

use tender_metrics::engine as metrics;
use tender_metrics::kernel as kernel_metrics;
use tender_quant::quantizer::{f16_round, quantize_value, symmetric_scale};
use tender_quant::tender::{classify_channels, group_scales};
use tender_tensor::arena::QuantPage;
use tender_tensor::{PagePayload, PageTier, QuantRows};

use super::mode::{KvCacheMode, ALPHA, KV_ACT_BITS};

/// Per-channel bias `(lo + hi)/2` over a batch of rows, f16-rounded,
/// non-finite values excluded (the prompt acts as the calibration set,
/// mirroring `ChunkCalibration::from_activation`).
fn plane_bias<R: AsRef<[f32]>>(rows: &[R], head_dim: usize) -> Vec<f32> {
    let mut bias = vec![0.0f32; head_dim];
    for (c, b) in bias.iter_mut().enumerate() {
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        for row in rows {
            let x = row.as_ref()[c];
            if x.is_finite() {
                lo = lo.min(x);
                hi = hi.max(x);
            }
        }
        if lo <= hi {
            *b = f16_round(0.5 * (lo + hi));
        }
    }
    bias
}

/// Largest finite magnitude of a row (non-finite entries are excluded so
/// one NaN cannot inflate every scale).
fn finite_amax(xs: &[f32]) -> f32 {
    xs.iter()
        .filter(|x| x.is_finite())
        .fold(0.0f32, |m, x| m.max(x.abs()))
}

/// A row's residual against the per-channel bias, plus its
/// [`finite_amax`].
fn residual(row: &[f32], bias: &[f32]) -> (Vec<f32>, f32) {
    let resid: Vec<f32> = row.iter().zip(bias).map(|(x, b)| x - b).collect();
    let amax = finite_amax(&resid);
    (resid, amax)
}

/// The row encoder: classifies each residual channel into its
/// power-of-two group ([`classify_channels`]; a non-finite residual
/// degrades to group 0 via a MAX sentinel, the calibration path's rule),
/// quantizes it under that group's scale and appends the packed row.
fn encode_row(out: &mut QuantRows, resid: &[f32], tmax: f32, scales: &[f32], bits: u32) {
    let groups = scales.len();
    let gs: Vec<u8> = if groups > 1 {
        let mags: Vec<f32> = resid
            .iter()
            .map(|&x| if x.is_finite() { x.abs() } else { f32::MAX })
            .collect();
        classify_channels(&mags, tmax, groups, ALPHA)
            .expect("magnitudes are finite by construction")
            .into_iter()
            .map(|g| g as u8)
            .collect()
    } else {
        Vec::new()
    };
    let qs: Vec<i32> = resid
        .iter()
        .enumerate()
        .map(|(c, &x)| {
            let g = gs.get(c).copied().unwrap_or(0) as usize;
            quantize_value(x, scales[g], bits)
        })
        .collect();
    out.push_row(&qs, &gs);
}

/// The row decoder: hands every stored row of a page to `sink` as f32 —
/// exact for an f32 page, dequantized under the page's own frozen scale
/// snapshot for a quantized one.
pub(super) fn decode_rows(payload: &PagePayload, mut sink: impl FnMut(&[f32])) {
    match payload {
        PagePayload::F32(m) => {
            for r in 0..m.rows() {
                sink(m.row(r));
            }
        }
        PagePayload::Quant(q) => {
            let dh = q.rows.cols();
            let mut qs = vec![0i32; dh];
            let mut gs = vec![0u8; dh];
            let mut row = vec![0.0f32; dh];
            for r in 0..q.rows.rows() {
                q.rows.decode_row_into(r, &mut qs, &mut gs);
                for (c, o) in row.iter_mut().enumerate() {
                    *o = qs[c] as f32 * q.scales[gs[c] as usize] + q.bias[c];
                }
                sink(&row);
            }
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

    let mut rows: Vec<Vec<f32>> = Vec::with_capacity(payload.rows());
    decode_rows(payload, |row| rows.push(row.to_vec()));

    // Page-local calibration: bias, residual TMax, group scales.
    let bias = plane_bias(&rows, dh);
    let resids: Vec<(Vec<f32>, f32)> = rows.iter().map(|row| residual(row, &bias)).collect();
    let tmax = resids
        .iter()
        .fold(f32::MIN_POSITIVE, |m, (_, amax)| m.max(*amax));
    let scales = group_scales(tmax, groups, ALPHA, bits);

    let mut out = QuantRows::with_row_capacity(dh, bits, groups > 1, rows.len());
    for (resid, _) in &resids {
        encode_row(&mut out, resid, tmax, &scales, bits);
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
    let target = match payload.tier() {
        PageTier::F32 => KvCacheMode::Int8,
        PageTier::Int8 => KvCacheMode::Int4,
        PageTier::Int4 => return None,
    };
    let demoted = demote_payload(payload, target);
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
    pub(super) fn fix_bias(&mut self, rows: &[&[f32]], head_dim: usize) {
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
    /// plane state onto the page as its scale snapshot.
    pub(super) fn push_into(&mut self, page: &mut QuantPage, row: &[f32], mode: KvCacheMode) {
        let (bits, groups) = (mode.bits(), mode.num_groups());
        let (resid, row_max) = residual(row, &self.bias);
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
        encode_row(&mut page.rows, &resid, self.tmax, &self.scales, bits);
        // Commit the snapshot the page's rows are now consistent with.
        page.scales = self.scales.clone();
        page.tmax = self.tmax;
        page.bias = self.bias.clone();
        page.page_local = false;
    }
}

/// Quantizes an f32 activation row to `KV_ACT_BITS` codes, returning the
/// codes and the scale. Non-finite entries are excluded from the range
/// estimate and clamp deterministically in `quantize_value`.
pub(super) fn quantize_act(xs: &[f32]) -> (Vec<i32>, f32) {
    let scale = symmetric_scale(finite_amax(xs), KV_ACT_BITS);
    let codes = xs
        .iter()
        .map(|&x| quantize_value(x, scale, KV_ACT_BITS))
        .collect();
    (codes, scale)
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
