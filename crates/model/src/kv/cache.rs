//! [`KvCache`]: per-layer, per-head K/V page lists over a [`KvArena`] —
//! append, copy-on-write fork, own-page demotion, and cached attention
//! ([`KvCache::attend_row`]): one page walk per product, whose per-page arm
//! is the integer read for quantized planes and the f32 read for f32-mode
//! ones, and the gathered read they are tested against.

use std::ops::Range;

use tender_metrics::engine as metrics;
use tender_quant::scheme::Scheme;
use tender_tensor::arena::QuantPage;
use tender_tensor::{
    gemm, ops, DemoteKey, EvictError, KvArena, Matrix, Page, PagePayload, PageTier,
};

use super::mode::{KvCacheMode, KvReadPath, KV_ACT_BITS};
use super::quant::{
    combine_groups, decode_rows, demote_if_smaller, dequant_page_into, quantize_act_into,
    record_dot_metrics, PlaneQuant, RowScratch,
};
use crate::shape::ModelShape;

/// One head's K or V plane: an ordered page list plus (for quantized
/// modes) the append-time quantization state.
#[derive(Debug, Clone)]
struct Plane {
    /// Owning handles to this plane's arena pages in position order; all
    /// full except possibly the last. Cloning the plane shares every page
    /// with the clone; dropping it releases them.
    pages: Vec<Page>,
    /// Cached positions across the pages.
    len: usize,
    /// Append-time quantization state (`None` for f32 planes).
    quant: Option<PlaneQuant>,
}

impl Plane {
    fn new(mode: KvCacheMode) -> Self {
        Self {
            pages: Vec::new(),
            len: 0,
            quant: (mode != KvCacheMode::F32).then(PlaneQuant::default),
        }
    }

    /// The tail page, if it still has room for a row.
    fn open_tail(&self, page_rows: usize) -> Option<&Page> {
        let tail = self.pages.last()?;
        (self.len < self.pages.len() * page_rows).then_some(tail)
    }

    /// The score walk: one score per cached position of this K plane
    /// against the (scaled) query row `qh`, in position order. The arm is
    /// chosen per page, by plane mode and page tier:
    ///
    /// - *quantized plane:* `qh` is quantized once to [`KV_ACT_BITS`] codes
    ///   and every page dotted on its packed codes
    ///   ([`ReadScratch::page_sums`]); the page's frozen scale applies once
    ///   per dot and its bias dot (`Σ_c qh[c]·bias[c]`, full f32 precision)
    ///   is added.
    /// - *f32 plane:* an f32 page is dotted where it lies, a demoted page
    ///   once dequantized into `read` ([`dequant_page_into`]: the bits
    ///   [`decode_rows`] gives). The page's rows advance together, `k`
    ///   outermost, so its dots are independent chains in flight at once;
    ///   per score the chain is [`ops::row_dot_nt`]'s (`k` ascending, zeros
    ///   of `qh` skipped, one f32 accumulator).
    ///
    /// [`ops::row_dot_nt`]: tender_tensor::ops::row_dot_nt
    /// [`decode_rows`]: super::quant::decode_rows
    fn scores(&self, qh: &[f32], read: &mut ReadScratch) -> Vec<f32> {
        let dh = qh.len();
        let x_scale = self
            .quant
            .is_some()
            .then(|| quantize_act_into(qh, &mut read.act));
        let mut out = Vec::with_capacity(self.len);
        let mut reads = [0u64; 2];
        for page in &self.pages {
            let payload = page.read();
            let rows = match (&*payload, x_scale) {
                (PagePayload::Quant(qp), Some(x_scale)) => {
                    let bias_dot = qh
                        .iter()
                        .zip(qp.bias.iter())
                        .fold(0.0f32, |d, (x, b)| d + x * b);
                    let factor = x_scale * qp.scales.last().expect("page scale snapshot");
                    read.page_sums(qp, 0..dh, false, |_, s| out.push(s * factor + bias_dot));
                    continue;
                }
                (PagePayload::Quant(qp), None) => {
                    reads[1] += 1;
                    dequant_page_into(qp, &mut read.codes, &mut read.rows);
                    &read.rows[..]
                }
                (PagePayload::F32(m), _) => {
                    reads[0] += 1;
                    m.as_slice()
                }
            };
            let start = out.len();
            out.resize(start + rows.len() / dh, 0.0);
            for (k, &x) in qh.iter().enumerate() {
                if x == 0.0 {
                    continue;
                }
                for (acc, row) in out[start..].iter_mut().zip(rows.chunks_exact(dh)) {
                    *acc += x * row[k];
                }
            }
        }
        publish_walk(x_scale.is_some(), reads, out.len(), out.len() * dh);
        out
    }

    /// The value walk: the probability row `probs` (one per cached
    /// position) against this V plane, accumulated into one `dh`-wide row
    /// page by page in position order. The same per-page arms as
    /// [`Plane::scores`]: a quantized page through its packed codes, under
    /// its own frozen scale, plus its bias times the page's probability
    /// mass; an f32 page (or a demoted one, dequantized) on
    /// `gemm::f32_block`'s chain — positions ascending, zero probabilities
    /// skipped, one f32 accumulator per column.
    fn values(&self, probs: &[f32], dh: usize, read: &mut ReadScratch) -> Vec<f32> {
        let mut out = vec![0.0f32; dh];
        let p_scale = self
            .quant
            .is_some()
            .then(|| quantize_act_into(probs, &mut read.act));
        let mut reads = [0u64; 2];
        let mut off = 0;
        for page in &self.pages {
            let payload = page.read();
            let rows = match (&*payload, p_scale) {
                (PagePayload::Quant(qp), Some(p_scale)) => {
                    let span = off..off + qp.rows.rows();
                    let psum = probs[span.clone()].iter().fold(0.0f32, |s, &p| s + p);
                    let factor = p_scale * qp.scales.last().expect("page scale snapshot");
                    off = span.end;
                    read.page_sums(qp, span, true, |c, s| {
                        out[c] += s * factor + qp.bias[c] * psum;
                    });
                    continue;
                }
                (PagePayload::Quant(qp), None) => {
                    reads[1] += 1;
                    dequant_page_into(qp, &mut read.codes, &mut read.rows);
                    &read.rows[..]
                }
                (PagePayload::F32(m), _) => {
                    reads[0] += 1;
                    m.as_slice()
                }
            };
            for (&p, row) in probs[off..].iter().zip(rows.chunks_exact(dh)) {
                if p == 0.0 {
                    continue;
                }
                for (o, &v) in out.iter_mut().zip(row) {
                    *o += p * v;
                }
            }
            off += rows.len() / dh;
        }
        publish_walk(p_scale.is_some(), reads, dh, probs.len() * dh);
        out
    }
}

/// Publishes what one walk read: a quantized plane's integer dots and their
/// MACs, or an f32 plane's pages read in place and dequantized (`reads`).
fn publish_walk(quantized: bool, reads: [u64; 2], dots: usize, macs: usize) {
    if quantized {
        metrics::KV_INT_DOTS.add(dots as u64);
        metrics::KV_INT_DOT_MACS.add(macs as u64);
    } else {
        metrics::KV_F32_PAGE_READS.add(reads[0]);
        metrics::KV_DEQUANT_PAGE_READS.add(reads[1]);
    }
}

/// The buffers of the cache's reads, reused by every walk: the quantized
/// query or probability row, one page's pre-shifted codes (the integer
/// kernels' and the dequantizer's), a demoted page's f32 rows, and the
/// licensed and checked kernels' sums.
#[derive(Debug, Clone, Default)]
struct ReadScratch {
    act: Vec<i32>,
    codes: Vec<i16>,
    rows: Vec<f32>,
    sums: Vec<i32>,
    group_sums: Vec<i64>,
}

impl ReadScratch {
    /// One quantized page against the activation codes `act[x]`: its
    /// combined integer sums — one per row for the score product, one per
    /// column for the `value` product — handed to `emit` with their index.
    /// Under the [`gemm::kv_dot_cannot_overflow`] license for `x.len()`
    /// terms the page is decoded once into codes pre-multiplied by their
    /// group's α = 2 combine weight and each sum is one `i32` accumulator
    /// ([`gemm::kv_score_block`] / [`gemm::kv_attn_block`]); integer sums
    /// are exact and order-free, so they equal the checked per-group walk
    /// and [`combine_groups`], which is what runs when the license fails.
    fn page_sums(
        &mut self,
        qp: &QuantPage,
        x: Range<usize>,
        value: bool,
        mut emit: impl FnMut(usize, f32),
    ) {
        let (kv, groups, act) = (&qp.rows, qp.scales.len(), &self.act[x]);
        let n = if value { kv.cols() } else { kv.rows() };
        if gemm::kv_dot_cannot_overflow(act.len(), KV_ACT_BITS, kv.bits(), groups) {
            self.codes.resize(kv.rows() * kv.cols(), 0);
            self.sums.resize(n, 0);
            if value {
                gemm::kv_attn_block(kv, act, groups, &mut self.codes, &mut self.sums);
            } else {
                gemm::kv_score_block(kv, act, groups, &mut self.codes, &mut self.sums);
            }
            for (i, &s) in self.sums.iter().enumerate() {
                emit(i, s as f32);
            }
            record_dot_metrics(n, false, 0);
        } else {
            self.group_sums.clear();
            self.group_sums.resize(n * groups, 0);
            let mut events = if value {
                gemm::kv_attn_checked(kv, act, groups, &mut self.group_sums)
            } else {
                gemm::kv_score_checked(kv, act, groups, &mut self.group_sums)
            };
            for (i, sums) in self.group_sums.chunks_exact(groups).enumerate() {
                emit(i, combine_groups(sums, &mut events) as f32);
            }
            record_dot_metrics(n, true, events);
        }
    }
}

/// Session-local per-tier page accounting (this cache's own view: a page
/// shared with forked sessions is counted here by every owner, unlike the
/// arena's global stats, which count it once).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KvTierStats {
    /// Pages this cache references per tier (`PageTier::index` order:
    /// f32, int8, int4).
    pub pages: [u64; 3],
    /// Resident bytes of those pages per tier.
    pub resident: [u64; 3],
    /// Allocated (full-page) bytes of those pages per tier.
    pub allocated: [u64; 3],
}

impl KvTierStats {
    /// Total pages across tiers.
    pub fn pages_total(&self) -> u64 {
        self.pages.iter().sum()
    }

    /// Total resident bytes across tiers.
    pub fn resident_total(&self) -> u64 {
        self.resident.iter().sum()
    }

    /// Total allocated bytes across tiers.
    pub fn allocated_total(&self) -> u64 {
        self.allocated.iter().sum()
    }
}

/// Per-layer, per-head K/V row storage, paged out of a [`KvArena`].
///
/// Each (layer, head) pair owns two page-list planes built by row appends;
/// all `layers × heads` pairs always hold the same number of positions.
/// Storage precision is chosen by [`KvCacheMode`]; quantized planes
/// quantize at append. Every mode is read page by page in place (or, under
/// [`KvReadPath::Dequant`], by gathering a dequantized matrix).
///
/// **Growth policy.** The cache grows page by page with no sequence limit
/// of its own — the *model's* positional limit (`max_seq` rows of
/// positional embeddings) is enforced one level up by
/// `DecodeSession::step`, which returns `StepError::SequenceFull`
/// instead of appending past it. What can stop an append is the arena's
/// byte cap: [`KvCache::append`] demotes this cache's cold pages down the
/// f32 → int8 → int4 ladder to make room and returns [`EvictError`] only
/// at the floor.
///
/// **Sharing.** `clone()` clones every page handle (copy-on-write fork):
/// the clone shares the prefix physically and copies a page only when one
/// owner appends to it; dropping a cache drops its handles, and a page
/// goes with its last owner. The arena's gauges count shared pages once;
/// [`KvCache::bytes`] is this cache's own (session-local) view.
#[derive(Debug)]
pub struct KvCache {
    layers: usize,
    heads: usize,
    head_dim: usize,
    mode: KvCacheMode,
    /// How quantized planes are read during decode attention.
    read_path: KvReadPath,
    /// The arena every page is allocated from.
    arena: KvArena,
    /// This cache's owner id within the arena — a component of the
    /// demotion clock key, registered from single-threaded construction
    /// code so it is reproducible at any thread count.
    owner: u64,
    /// `layers × heads` K planes, indexed `li * heads + head`, then as
    /// many V planes in the same order. A plane's index is its
    /// demotion-queue key; K before V, layer/head ascending is also
    /// [`KvCache::demote_one`]'s scan order, so the boundary drain prefers
    /// the same "coldest" pages.
    planes: Vec<Plane>,
    /// The row encoder's buffers, reused by every quantized append so a
    /// row costs no allocation. Nothing in them outlives one row.
    scratch: RowScratch,
    /// The in-place reads' buffers, reused by every page they walk.
    read: ReadScratch,
}

impl KvCache {
    /// An empty cache in `mode` over a private, unbounded arena with the
    /// default page size.
    pub fn with_mode(shape: &ModelShape, mode: KvCacheMode) -> Self {
        Self::with_arena(shape, mode, &KvArena::default())
    }

    /// An empty cache in `mode` drawing pages from `arena` (shared with
    /// every other cache holding a handle to it).
    pub fn with_arena(shape: &ModelShape, mode: KvCacheMode, arena: &KvArena) -> Self {
        let planes = 2 * shape.layers * shape.heads;
        let cache = Self {
            layers: shape.layers,
            heads: shape.heads,
            head_dim: shape.head_dim(),
            mode,
            read_path: KvReadPath::default(),
            arena: arena.clone(),
            owner: arena.register_owner(),
            planes: (0..planes).map(|_| Plane::new(mode)).collect(),
            scratch: RowScratch::default(),
            read: ReadScratch::default(),
        };
        cache.publish_overhead(true);
        cache
    }

    /// Index of `(li, head)`'s K plane; see [`KvCache::v_plane`].
    fn k_plane(&self, li: usize, head: usize) -> usize {
        li * self.heads + head
    }

    /// Index of `(li, head)`'s V plane.
    fn v_plane(&self, li: usize, head: usize) -> usize {
        self.layers * self.heads + self.k_plane(li, head)
    }

    /// The storage precision this cache was built with.
    pub fn mode(&self) -> KvCacheMode {
        self.mode
    }

    /// The arena this cache draws pages from.
    pub fn arena(&self) -> &KvArena {
        &self.arena
    }

    /// Cached positions per page.
    pub fn page_rows(&self) -> usize {
        self.arena.page_rows()
    }

    /// Cached sequence positions (identical across layers and heads).
    pub fn len(&self) -> usize {
        self.planes.first().map_or(0, |p| p.len)
    }

    /// Whether the cache holds no positions yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Positions each head's current page list can hold before another
    /// page is allocated.
    pub fn capacity(&self) -> usize {
        self.planes
            .first()
            .map_or(0, |p| p.pages.len() * self.arena.page_rows())
    }

    /// Per-plane constant bytes this cache publishes outside the arena
    /// (quantization metadata: bias + `TMax` per plane in quantized modes).
    fn overhead_bytes(&self) -> u64 {
        2 * (self.layers * self.heads) as u64 * self.mode.head_overhead_bytes(self.head_dim)
    }

    /// Adds or removes the plane-constant overhead from the aggregate
    /// gauges (page bytes are accounted by the arena itself).
    fn publish_overhead(&self, add: bool) {
        let b = self.overhead_bytes();
        if b == 0 {
            return;
        }
        if add {
            metrics::KV_CACHE_BYTES.add(b);
            metrics::KV_CACHE_ALLOCATED_BYTES.add(b);
            metrics::KV_CACHE_PEAK_BYTES.observe(metrics::KV_CACHE_BYTES.get());
        } else {
            metrics::KV_CACHE_BYTES.sub(b);
            metrics::KV_CACHE_ALLOCATED_BYTES.sub(b);
        }
    }

    /// **Resident** K+V bytes, session-local view: what this cache's pages
    /// occupy (pages shared with forks counted in full), plus per-plane
    /// quantization constants. Preallocated-but-unwritten page tails are
    /// *not* counted — see [`KvCache::allocated_bytes`].
    pub fn bytes(&self) -> u64 {
        self.tier_stats().resident_total() + self.overhead_bytes()
    }

    /// **Allocated** K+V bytes, session-local view: the full-page
    /// footprint of every page this cache references, plus per-plane
    /// constants. Always ≥ [`KvCache::bytes`].
    pub fn allocated_bytes(&self) -> u64 {
        self.tier_stats().allocated_total() + self.overhead_bytes()
    }

    /// Session-local per-tier page accounting (pages shared with forks are
    /// counted by every owner; the arena's [`KvArena::stats`] count each
    /// page once).
    pub fn tier_stats(&self) -> KvTierStats {
        let page_rows = self.arena.page_rows();
        let mut out = KvTierStats::default();
        for page in self.planes.iter().flat_map(|plane| &plane.pages) {
            let p = page.read();
            let t = p.tier().index();
            out.pages[t] += 1;
            out.resident[t] += p.resident_bytes();
            out.allocated[t] += p.allocated_bytes(page_rows);
        }
        out
    }

    /// Runtime requantization events summed across every plane.
    pub fn requants(&self) -> u64 {
        self.planes
            .iter()
            .filter_map(|p| p.quant.as_ref())
            .map(|q| q.requants)
            .sum()
    }

    /// Appends layer `li`'s freshly projected K/V rows (`n × d_model`
    /// each), splitting the model dimension across heads. In quantized
    /// modes the rows are quantized here, against each plane's running
    /// `TMax` (first append also fixes the plane's per-channel bias).
    /// An append requantizes no other page short of the arena's hard cap:
    /// on a capped arena, pages that seal are queued for the boundary
    /// drain, which is what acts on the high-watermark.
    ///
    /// # Errors
    ///
    /// [`EvictError`] when the arena is at its byte cap and every page of
    /// this cache is already at the int4 floor (or shared/unsealed, hence
    /// not demotable).
    ///
    /// # Panics
    ///
    /// Panics if `li` is out of range, the shapes disagree with the cache
    /// geometry, or `k` and `v` have different row counts.
    pub fn append(&mut self, li: usize, k: &Matrix, v: &Matrix) -> Result<(), EvictError> {
        assert_eq!(k.shape(), v.shape(), "K/V row mismatch");
        assert_eq!(k.cols(), self.heads * self.head_dim, "d_model mismatch");
        self.append_rows(li, k.as_slice(), v.as_slice())
    }

    /// [`KvCache::append`] of row-major `d_model`-wide K/V rows.
    fn append_rows(&mut self, li: usize, k: &[f32], v: &[f32]) -> Result<(), EvictError> {
        assert!(li < self.layers, "layer {li} out of cache range");
        for head in 0..self.heads {
            let c0 = head * self.head_dim;
            self.append_plane(self.k_plane(li, head), k, c0)?;
            self.append_plane(self.v_plane(li, head), v, c0)?;
        }
        Ok(())
    }

    /// Appends columns `c0 .. c0 + head_dim` of every row of `m` (row-major,
    /// `d_model` wide) to plane `idx`, one page-run at a time: the rows that
    /// fit the tail page go in under a single exclusive edit of it (one
    /// lock, one re-billing), then the next page opens. Bytes only grow
    /// inside a run, so the peak gauge observed at its end is the maximum a
    /// per-row edit would have seen.
    fn append_plane(&mut self, idx: usize, m: &[f32], c0: usize) -> Result<(), EvictError> {
        let (dh, width) = (self.head_dim, self.heads * self.head_dim);
        let head_row = |r: usize| &m[r * width + c0..r * width + c0 + dh];
        let rows = m.len() / width;
        if rows == 0 {
            return Ok(());
        }
        if let Some(q) = &mut self.planes[idx].quant {
            q.fix_bias((0..rows).map(head_row), dh);
        }
        let page_rows = self.arena.page_rows();
        let mode = self.mode;
        // A sealed page is worth queueing only where a drain can pop it (a
        // capped arena) and a lower rung exists.
        let queues = self.arena.config().capacity_bytes.is_some() && mode.demoted().is_some();
        let mut r0 = 0;
        while r0 < rows {
            let r1 = rows.min(r0 + self.writable_tail(idx)?);
            let plane = &mut self.planes[idx];
            let scratch = &mut self.scratch;
            let tail = plane.pages.last().expect("tail page");
            tail.with_mut(|p| match (p, &mut plane.quant) {
                (PagePayload::F32(page), None) => {
                    for r in r0..r1 {
                        page.push_row(head_row(r));
                    }
                }
                (PagePayload::Quant(page), Some(q)) => {
                    for r in r0..r1 {
                        q.push_into(page, head_row(r), mode, scratch);
                    }
                }
                _ => panic!("tail page tier does not match its plane"),
            });
            plane.len += r1 - r0;
            let sealed = plane.len.is_multiple_of(page_rows);
            if sealed && queues {
                // The page just sealed: it becomes a demotion candidate under
                // a structural clock key, so concurrent enqueues from pool
                // workers drain in the same order at any thread count.
                let key = DemoteKey {
                    clock: self.arena.clock(),
                    owner: self.owner,
                    plane: idx as u32,
                    page_idx: (plane.pages.len() - 1) as u32,
                };
                self.arena.enqueue_demotion(key, tail.downgrade(), mode);
            }
            r0 = r1;
        }
        Ok(())
    }

    /// Makes plane `idx`'s tail page writable by this cache alone —
    /// copying a tail a fork still shares, opening a fresh page when every
    /// page is full — and returns how many more rows it holds.
    fn writable_tail(&mut self, idx: usize) -> Result<usize, EvictError> {
        let page_rows = self.arena.page_rows();
        match self.planes[idx].open_tail(page_rows) {
            Some(tail) if tail.is_exclusive() => {}
            // A fork still shares the partial tail: copy-on-write. Swapping
            // the copy in drops this cache's handle to the original.
            Some(shared) => {
                let copy = self.retry_demoting(|| self.arena.cow_clone(shared))?;
                *self.planes[idx].pages.last_mut().expect("partial tail") = copy;
            }
            // Every page is full (or there are none): open a new tail page.
            None => {
                let page = self.retry_demoting(|| self.arena.alloc(self.fresh_payload(idx)))?;
                self.planes[idx].pages.push(page);
            }
        }
        let plane = &self.planes[idx];
        Ok(plane.pages.len() * page_rows - plane.len)
    }

    /// Exact allocated bytes the next single-position append will newly
    /// reserve from the arena: a fresh page for every plane whose pages
    /// are all full, plus a copy-on-write clone of any shared partial
    /// tail (an unsealed tail is always at the append tier, so both cost
    /// one append-tier page). Zero when the next row lands entirely in
    /// exclusive partial tails. The batch iteration prices every live
    /// session with this so the boundary drain can make room before any
    /// worker appends.
    pub fn next_append_alloc_bytes(&self) -> u64 {
        let page_rows = self.arena.page_rows();
        let opens = self
            .planes
            .iter()
            .filter(|plane| {
                plane
                    .open_tail(page_rows)
                    .is_none_or(|tail| !tail.is_exclusive())
            })
            .count();
        opens as u64 * self.mode.page_alloc_bytes(self.head_dim, page_rows)
    }

    /// An empty page payload at this plane's append tier.
    fn fresh_payload(&self, idx: usize) -> PagePayload {
        let page_rows = self.arena.page_rows();
        match &self.planes[idx].quant {
            None => PagePayload::F32(Matrix::with_row_capacity(self.head_dim, page_rows)),
            Some(q) => PagePayload::Quant(q.fresh_page(self.mode, self.head_dim, page_rows)),
        }
    }

    /// The demote-and-retry wrapper: runs `attempt` until it succeeds,
    /// demoting one of this cache's own pages after every refusal.
    /// Interim cap refusals are counted by the arena as `alloc_retries`;
    /// only the terminal refusal — demotion ladder at its floor — is an
    /// `evict_failure`.
    fn retry_demoting<T>(
        &self,
        mut attempt: impl FnMut() -> Result<T, EvictError>,
    ) -> Result<T, EvictError> {
        loop {
            match attempt() {
                Ok(v) => return Ok(v),
                Err(e) => {
                    if !self.demote_one() {
                        self.arena.note_evict_failure();
                        return Err(e);
                    }
                }
            }
        }
    }

    /// Reserves the next append at an iteration boundary: demotes this
    /// cache's own pages until the arena has headroom for `need` bytes on
    /// top of the `committed` bytes earlier sessions of the same boundary
    /// were already promised.
    ///
    /// # Errors
    ///
    /// [`EvictError`] when the headroom is still short with this cache's
    /// ladder at its floor.
    pub(crate) fn reserve_next_append(&self, need: u64, committed: u64) -> Result<(), EvictError> {
        self.retry_demoting(|| {
            if committed + need <= self.arena.headroom_bytes() {
                return Ok(());
            }
            Err(EvictError {
                needed: need,
                allocated: self.arena.allocated_bytes(),
                capacity: self.arena.config().capacity_bytes.unwrap_or(u64::MAX),
            })
        })
    }

    /// Demotes this cache's coldest eligible page one tier down the
    /// f32 → int8 → int4 ladder, in place. Eligible pages are *sealed*
    /// (full — the live tail is still being written under plane scales)
    /// and *exclusively owned* (a fork sharing the page may still need its
    /// exact bytes). Scan order is deterministic: tier-major (all f32
    /// candidates before any int8), then K planes before V, layer/head
    /// ascending, oldest page first — so the coldest exact page goes
    /// first. Returns `false` when nothing is demotable (the floor).
    fn demote_one(&self) -> bool {
        let page_rows = self.arena.page_rows();
        for tier in [PageTier::F32, PageTier::Int8] {
            for plane in &self.planes {
                let sealed = plane.len / page_rows;
                for page in &plane.pages[..sealed] {
                    if !page.is_exclusive() || page.tier() != tier {
                        continue; // shared with a fork, or not this rung's turn
                    }
                    let shrank = page
                        .with_mut(|p| demote_if_smaller(p, page_rows).map(|d| *p = d).is_some());
                    if shrank {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// Selects how the cache is read during decode attention: in place by
    /// default (quantized planes in the integer domain, f32-mode planes
    /// where their pages lie); under [`KvReadPath::Dequant`] every plane is
    /// gathered into a dequantized matrix first ([`KvCache::head_k`] /
    /// [`KvCache::head_v`]) — the oracle both in-place reads are tested
    /// against, bit-identical to the default on an f32-mode cache.
    pub fn set_read_path(&mut self, path: KvReadPath) {
        self.read_path = path;
    }

    /// Gathers one plane's pages into a `len × head_dim` matrix: f32 pages
    /// are copied row-for-row (bit-identical to the appended rows),
    /// quantized pages are dequantized under their own frozen snapshot.
    fn gather(&self, plane: &Plane) -> Matrix {
        let mut out = Matrix::with_row_capacity(self.head_dim, plane.len);
        for page in &plane.pages {
            decode_rows(&page.read(), |row| out.push_row(row));
        }
        out
    }

    /// Cached keys for `(li, head)`: a `len × head_dim` matrix gathered
    /// from the plane's page list (exact rows from f32 pages, dequantized
    /// under each page's frozen snapshot otherwise). This is the
    /// [`KvReadPath::Dequant`] read; default-path decode attention reads
    /// the pages in place.
    pub fn head_k(&self, li: usize, head: usize) -> Matrix {
        self.gather(&self.planes[self.k_plane(li, head)])
    }

    /// Cached values for `(li, head)`: a `len × head_dim` matrix gathered
    /// from the plane's page list. Same contract as [`KvCache::head_k`].
    pub fn head_v(&self, li: usize, head: usize) -> Matrix {
        self.gather(&self.planes[self.v_plane(li, head)])
    }

    /// Whether this cache reads planes of the given kind (f32-mode or
    /// quantized) in place.
    fn reads_in_place(&self, f32_mode: bool) -> bool {
        self.read_path == KvReadPath::Integer && (self.mode == KvCacheMode::F32) == f32_mode
    }

    /// The in-place score read of `(li, head)`: the query row checked, then
    /// [`Plane::scores`] through `read`, as a `1 × len` row.
    fn read_scores(&self, li: usize, head: usize, qh: &[f32], read: &mut ReadScratch) -> Matrix {
        let dh = self.head_dim;
        assert_eq!(
            qh.len(),
            dh,
            "query row for (layer {li}, head {head}) is {} wide, head_dim is {dh}",
            qh.len()
        );
        row_matrix(self.planes[self.k_plane(li, head)].scores(qh, read))
    }

    /// The in-place value read of `(li, head)`: the probability row checked,
    /// then [`Plane::values`] through `read`, as a `1 × head_dim` row.
    fn read_values(&self, li: usize, head: usize, probs: &[f32], read: &mut ReadScratch) -> Matrix {
        let plane = &self.planes[self.v_plane(li, head)];
        assert_eq!(
            probs.len(),
            plane.len,
            "probability row for (layer {li}, head {head}) is {} wide, the plane caches {} positions",
            probs.len(),
            plane.len
        );
        row_matrix(plane.values(probs, self.head_dim, read))
    }

    /// One position of cached attention in layer `li`: appends its K/V rows
    /// (`k_row`, `v_row`, `d_model` wide), then for every head scores the
    /// query row `q_row` (already scaled by `1/√head_dim`) against the whole
    /// K plane, takes [`ops::softmax_rows`] and writes the value product
    /// into the head's columns of `out`. Returns the multiply-accumulates
    /// run on packed codes (zero unless the integer read ran).
    ///
    /// *Append, then read* is the order that makes `n` rows of one call
    /// bit-identical to `n` one-row calls: appending a later row can raise
    /// a quantized plane's `TMax` and `requant_shift` the tail page, which
    /// this row must read as it was when it was the newest (DESIGN §9.2).
    ///
    /// The cache picks the read: quantized planes in the integer domain
    /// whatever the scheme; f32-mode planes in place when `act_act` is
    /// `None` (act×act is the plain f32 product, which the in-place walk
    /// reproduces bit for bit); otherwise — a scheme that quantizes act×act
    /// products, whose kernel takes whole matrices, or
    /// [`KvReadPath::Dequant`] — the gathered planes, through that scheme's
    /// `act_act_matmul`, or through [`ops::row_dot_nt`] and the f32 matmul.
    ///
    /// # Errors
    ///
    /// As [`KvCache::append`]; nothing is read then.
    ///
    /// # Panics
    ///
    /// Panics if `li` is out of range or a row is not `d_model` wide.
    pub(crate) fn attend_row(
        &mut self,
        li: usize,
        k_row: &[f32],
        v_row: &[f32],
        q_row: &[f32],
        act_act: Option<&dyn Scheme>,
        out: &mut [f32],
    ) -> Result<u64, EvictError> {
        let (dh, width) = (self.head_dim, self.heads * self.head_dim);
        let widths = [k_row.len(), v_row.len(), q_row.len(), out.len()];
        assert!(widths.iter().all(|&w| w == width), "d_model mismatch");
        self.append_rows(li, k_row, v_row)?;
        let quantized = self.mode != KvCacheMode::F32;
        let in_place = self.read_path == KvReadPath::Integer && (quantized || act_act.is_none());
        let mut read = std::mem::take(&mut self.read);
        let heads = q_row.chunks_exact(dh).zip(out.chunks_exact_mut(dh));
        for (head, (qh, out)) in heads.enumerate() {
            if in_place {
                let probs = ops::softmax_rows(&self.read_scores(li, head, qh, &mut read));
                out.copy_from_slice(self.read_values(li, head, probs.row(0), &mut read).row(0));
            } else {
                let (k, v) = (self.head_k(li, head), self.head_v(li, head));
                let q = row_matrix(qh.to_vec());
                let attn = match act_act {
                    Some(scheme) => {
                        let probs = ops::softmax_rows(&scheme.act_act_matmul(&q, &k.transpose()));
                        scheme.act_act_matmul(&probs, &v)
                    }
                    None => {
                        let probs = ops::softmax_rows(&ops::row_dot_nt(&q, &k));
                        probs.matmul(&v).expect("attention shapes")
                    }
                };
                out.copy_from_slice(attn.row(0));
            }
        }
        self.read = read;
        let len = self.planes[self.k_plane(li, 0)].len;
        Ok(if in_place && quantized {
            (2 * self.heads * dh * len) as u64
        } else {
            0
        })
    }

    /// Attention scores of the (already scaled) query row `qh` against the
    /// cached K plane of `(li, head)` of an **f32-mode** cache: a `1 × len`
    /// row, read page by page where the pages lie (the cache's score walk) —
    /// bit-identical to `row_dot_nt(qh, head_k(li, head))`.
    ///
    /// Returns `None` when the cache mode is quantized or the read path is
    /// [`KvReadPath::Dequant`].
    ///
    /// # Panics
    ///
    /// Panics on an in-place f32 cache if `qh` is not `head_dim` wide.
    pub fn attn_scores_f32(&mut self, li: usize, head: usize, qh: &[f32]) -> Option<Matrix> {
        let mut read = std::mem::take(&mut self.read);
        let scores = self
            .reads_in_place(true)
            .then(|| self.read_scores(li, head, qh, &mut read));
        self.read = read;
        scores
    }

    /// Attention-value product of the probability row `probs` (length
    /// `len`) against the cached V plane of `(li, head)` of an **f32-mode**
    /// cache: a `1 × head_dim` row accumulated page by page in position
    /// order (the cache's value walk) — bit-identical to
    /// `probs.matmul(head_v(li, head))`. Same `None` contract as
    /// [`KvCache::attn_scores_f32`].
    ///
    /// # Panics
    ///
    /// Panics on an in-place f32 cache if `probs` does not hold one
    /// probability per cached position.
    pub fn attn_values_f32(&mut self, li: usize, head: usize, probs: &[f32]) -> Option<Matrix> {
        let mut read = std::mem::take(&mut self.read);
        let attn = self
            .reads_in_place(true)
            .then(|| self.read_values(li, head, probs, &mut read));
        self.read = read;
        attn
    }

    /// Integer-domain attention scores of the (already scaled) query row
    /// `qh` against the cached K plane of `(li, head)`: a `1 × len` row
    /// computed on the packed codes page by page (the cache's score walk).
    /// Integer sums under the [`gemm::kv_dot_cannot_overflow`] license are
    /// exact and order-free, so the result is bit-identical across thread
    /// counts and equal to the checked per-group walk, which is what runs
    /// when the license fails.
    ///
    /// Returns `None` when the cache mode is `f32` or the read path is
    /// [`KvReadPath::Dequant`] — the caller then falls back to the f32
    /// product over the gathered plane.
    ///
    /// # Panics
    ///
    /// Panics on a quantized integer-path cache if `qh` is not `head_dim`
    /// wide.
    pub fn attn_scores_quant(&self, li: usize, head: usize, qh: &[f32]) -> Option<Matrix> {
        self.reads_in_place(false)
            .then(|| self.read_scores(li, head, qh, &mut ReadScratch::default()))
    }

    /// Integer-domain attention-value product of the probability row
    /// `probs` (length `len`) against the cached V plane of `(li, head)`:
    /// a `1 × head_dim` row computed on the packed codes page by page, each
    /// page under its own frozen scales, contributions summed in page order
    /// (the cache's value walk). Same `None` contract and determinism argument
    /// as [`KvCache::attn_scores_quant`].
    ///
    /// # Panics
    ///
    /// Panics on a quantized integer-path cache if `probs` does not hold
    /// one probability per cached position.
    pub fn attn_values_quant(&self, li: usize, head: usize, probs: &[f32]) -> Option<Matrix> {
        self.reads_in_place(false)
            .then(|| self.read_values(li, head, probs, &mut ReadScratch::default()))
    }
}

/// A `1 × n` matrix over `row`.
fn row_matrix(row: Vec<f32>) -> Matrix {
    Matrix::from_vec(1, row.len(), row).expect("one row")
}

impl Clone for KvCache {
    /// Copy-on-write fork: cloning the planes clones every page handle
    /// (the fork shares the prefix physically); only the plane-constant
    /// overhead is re-published, under a fresh owner id. The first
    /// divergent append onto a shared page copies it.
    fn clone(&self) -> Self {
        let cache = Self {
            layers: self.layers,
            heads: self.heads,
            head_dim: self.head_dim,
            mode: self.mode,
            read_path: self.read_path,
            arena: self.arena.clone(),
            owner: self.arena.register_owner(),
            planes: self.planes.clone(),
            scratch: RowScratch::default(),
            read: ReadScratch::default(),
        };
        cache.publish_overhead(true);
        cache
    }
}

impl Drop for KvCache {
    /// The page handles drop with the planes; only the overhead this
    /// cache published itself is taken back here.
    fn drop(&mut self) {
        self.publish_overhead(false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{paged_arena, tiny};
    use tender_quant::tender::{TenderConfig, TenderScheme};
    use tender_tensor::rng::DetRng;

    #[test]
    fn kv_cache_grows_by_pages_past_initial_allocation() {
        // Growth policy: storage is paged, allocated on demand from the
        // arena; the max_seq limit is the *session's* concern (see
        // `step_past_max_seq_is_sequence_full`).
        let (shape, _) = tiny();
        let arena = paged_arena(2, None, 1.0);
        let mut cache = KvCache::with_arena(&shape, KvCacheMode::F32, &arena);
        assert_eq!(cache.capacity(), 0, "no pages before the first append");
        assert!(cache.is_empty());
        let k = Matrix::filled(3, shape.d_model, 1.0);
        let v = Matrix::filled(3, shape.d_model, 2.0);
        for li in 0..shape.layers {
            cache.append(li, &k, &v).expect("uncapped arena");
        }
        assert_eq!(cache.len(), 3);
        // 3 rows on 2-row pages: two pages per plane, capacity 4.
        assert_eq!(cache.capacity(), 4, "pages are allocated on demand");
        assert_eq!(
            cache.bytes(),
            (2 * 3 * shape.d_model * shape.layers * 4) as u64
        );
        // Resident counts rows; allocated counts whole pages.
        assert_eq!(
            cache.allocated_bytes(),
            (2 * 4 * shape.d_model * shape.layers * 4) as u64
        );
        assert!(cache.allocated_bytes() >= cache.bytes());
    }

    #[test]
    fn kv_cache_splits_rows_per_head() {
        let (shape, _) = tiny();
        let dh = shape.head_dim();
        let mut cache = KvCache::with_mode(&shape, KvCacheMode::F32);
        // Column c carries value c so each head slice is recognizable.
        let k = Matrix::from_fn(1, shape.d_model, |_, c| c as f32);
        let v = Matrix::from_fn(1, shape.d_model, |_, c| -(c as f32));
        cache.append(0, &k, &v).expect("uncapped arena");
        for head in 0..shape.heads {
            let hk = cache.head_k(0, head);
            let hv = cache.head_v(0, head);
            assert_eq!(hk.shape(), (1, dh));
            for c in 0..dh {
                assert_eq!(hk[(0, c)], (head * dh + c) as f32);
                assert_eq!(hv[(0, c)], -((head * dh + c) as f32));
            }
        }
    }

    #[test]
    #[should_panic(expected = "d_model mismatch")]
    fn kv_cache_rejects_wrong_width() {
        let (shape, _) = tiny();
        let mut cache = KvCache::with_mode(&shape, KvCacheMode::F32);
        let bad = Matrix::zeros(1, shape.d_model + 1);
        let _ = cache.append(0, &bad, &bad);
    }

    /// An INT8 cache over the tiny shape (head_dim 16) holding 3 positions.
    fn three_row_int8_cache() -> KvCache {
        let (shape, _) = tiny();
        let mut cache = KvCache::with_mode(&shape, KvCacheMode::Int8);
        let rows = Matrix::from_fn(3, shape.d_model, |r, c| (r + c) as f32);
        cache.append(0, &rows, &rows).expect("uncapped arena");
        cache
    }

    #[test]
    #[should_panic(expected = "query row for (layer 0, head 1) is 17 wide, head_dim is 16")]
    fn attn_scores_quant_rejects_wrong_width_query() {
        let _ = three_row_int8_cache().attn_scores_quant(0, 1, &[0.5; 17]);
    }

    #[test]
    #[should_panic(
        expected = "probability row for (layer 0, head 2) is 2 wide, the plane caches 3 positions"
    )]
    fn attn_values_quant_rejects_short_probs() {
        let _ = three_row_int8_cache().attn_values_quant(0, 2, &[0.5; 2]);
    }

    #[test]
    #[should_panic(
        expected = "probability row for (layer 0, head 2) is 4 wide, the plane caches 3 positions"
    )]
    fn attn_values_quant_rejects_long_probs() {
        // Release builds used to truncate this silently.
        let _ = three_row_int8_cache().attn_values_quant(0, 2, &[0.25; 4]);
    }

    /// Rows whose magnitude jumps at rows 5, 21 and 30 — inside pages, not
    /// on their boundaries — with a NaN and an ∞ thrown in.
    fn growing_rows(shape: &ModelShape, rows: usize, sign: f32) -> Matrix {
        let mut m = Matrix::from_fn(rows, shape.d_model, |r, c| {
            let gain =
                [1.0, 2.5, 9.0, 40.0][(r >= 5) as usize + (r >= 21) as usize + (r >= 30) as usize];
            sign * gain * ((r * 7 + c * 3) % 23) as f32 / 11.0 - gain * 0.4
        });
        m[(3, 1)] = f32::NAN;
        m[(8, 2)] = f32::INFINITY;
        m
    }

    /// Everything a quantized cache stores, page by page: packed rows, the
    /// frozen scale snapshot, `TMax`, bias and locality, then the plane's
    /// own append state.
    fn stored_image(cache: &KvCache) -> Vec<String> {
        cache
            .planes
            .iter()
            .map(|plane| {
                let pages: Vec<String> = plane
                    .pages
                    .iter()
                    .map(|page| match &*page.read() {
                        PagePayload::Quant(q) => format!(
                            "{:?} {:?} {:#x} {:?} {}",
                            q.rows,
                            q.scales.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                            q.tmax.to_bits(),
                            q.bias.iter().map(|b| b.to_bits()).collect::<Vec<_>>(),
                            q.page_local
                        ),
                        PagePayload::F32(_) => unreachable!("quantized cache"),
                    })
                    .collect();
                format!("{} {:?} {pages:?}", plane.len, plane.quant)
            })
            .collect()
    }

    #[test]
    fn stored_bytes_do_not_depend_on_how_rows_are_cut_into_appends() {
        // After the first append (which fixes each plane's bias from its
        // own rows, so it is the same 4-row "prompt" everywhere), one
        // multi-row append (page-run edits), row by row (one edit per row,
        // as a decode step appends) and uneven chunks (as `extend` and
        // chunked prefill append) must leave byte-identical pages,
        // snapshots and requantization counts — including when a later row
        // of the same call raises `TMax` and shifts the page mid-run.
        let (shape, _) = tiny();
        let rows = 37; // two full 16-row pages and a partial one
        let k = growing_rows(&shape, rows, 1.0);
        let v = growing_rows(&shape, rows, -1.0);
        for mode in [KvCacheMode::Int8, KvCacheMode::Int4] {
            let build = |cuts: &[usize]| {
                let mut cache = KvCache::with_mode(&shape, mode);
                let mut r = 0;
                for &n in cuts {
                    for li in 0..shape.layers {
                        cache
                            .append(li, &k.slice_rows(r, r + n), &v.slice_rows(r, r + n))
                            .expect("uncapped arena");
                    }
                    r += n;
                }
                assert_eq!(cache.len(), rows);
                cache
            };
            let whole = build(&[4, 33]);
            assert!(
                whole.requants() > 0,
                "{mode:?}: the fixture must requantize"
            );
            let image = stored_image(&whole);
            let mut row_by_row = vec![1; 34];
            row_by_row[0] = 4;
            let stepped = build(&row_by_row);
            assert_eq!(image, stored_image(&stepped), "{mode:?} row by row");
            assert_eq!(
                image,
                stored_image(&build(&[4, 6, 11, 1, 15])),
                "{mode:?} in chunks"
            );
            assert_eq!(whole.bytes(), stepped.bytes());
        }
    }

    /// The oracle of [`KvCache::attend_row`]: [`KvCache::append`], then per
    /// head the public reads chained as the block chained them before the
    /// cache chose the read — the integer read when it answers; else, when
    /// act×act is the plain f32 product, the in-place f32 read when it
    /// answers and the gathered planes through `row_dot_nt` and the f32
    /// matmul when not; else the gathered planes through the scheme.
    /// Returns the output row's bits and the MACs run on packed codes.
    fn append_then_read(
        cache: &mut KvCache,
        li: usize,
        [k, v, q]: [&[f32]; 3],
        act_act: Option<&dyn Scheme>,
    ) -> (Vec<u32>, u64) {
        let row = |x: &[f32]| Matrix::from_vec(1, x.len(), x.to_vec()).expect("one row");
        cache.append(li, &row(k), &row(v)).expect("uncapped arena");
        let (dh, len) = (cache.head_dim, cache.planes[cache.k_plane(li, 0)].len);
        let (mut out, mut int_macs) = (Vec::new(), 0);
        for (head, qh) in q.chunks_exact(dh).enumerate() {
            let (kh, vh) = (cache.head_k(li, head), cache.head_v(li, head));
            let scores = match (cache.attn_scores_quant(li, head, qh), act_act) {
                (Some(s), _) => {
                    int_macs += (dh * len) as u64;
                    s
                }
                (None, Some(scheme)) => scheme.act_act_matmul(&row(qh), &kh.transpose()),
                (None, None) => cache
                    .attn_scores_f32(li, head, qh)
                    .unwrap_or_else(|| ops::row_dot_nt(&row(qh), &kh)),
            };
            let probs = ops::softmax_rows(&scores);
            let attn = match (cache.attn_values_quant(li, head, probs.row(0)), act_act) {
                (Some(a), _) => {
                    int_macs += (dh * len) as u64;
                    a
                }
                (None, Some(scheme)) => scheme.act_act_matmul(&probs, &vh),
                (None, None) => cache
                    .attn_values_f32(li, head, probs.row(0))
                    .unwrap_or_else(|| probs.matmul(&vh).expect("1×len · len×dh")),
            };
            out.extend(attn.row(0).iter().map(|x| x.to_bits()));
        }
        (out, int_macs)
    }

    #[test]
    fn attend_row_is_append_then_the_public_reads() {
        // Every cache mode under both read paths, with act×act exact and
        // quantized (`Tender-all@8`); magnitudes that grow so quantized
        // planes requantize mid-page, and pages demoted under an f32 plane.
        let (shape, _) = tiny();
        let tender_all = TenderScheme::new(TenderConfig::int8().with_act_act(true));
        let mut rng = DetRng::new(23);
        let rows = 30;
        let [k, v, q] = [0.6f32, 1.3, 0.9].map(|sd| {
            Matrix::from_fn(rows, shape.d_model, |r, _| {
                rng.normal(0.1, sd) * (1 + r / 9) as f32
            })
        });
        let schemes: [Option<&dyn Scheme>; 2] = [None, Some(&tender_all)];
        for mode in KvCacheMode::ALL {
            for path in [KvReadPath::Integer, KvReadPath::Dequant] {
                for act_act in schemes {
                    let what = format!("{mode:?} {path:?} Tender-all {}", act_act.is_some());
                    let build = || {
                        let mut cache =
                            KvCache::with_arena(&shape, mode, &paged_arena(4, None, 1.0));
                        cache.set_read_path(path);
                        for li in 0..shape.layers {
                            cache
                                .append(li, &k.slice_rows(0, 5), &v.slice_rows(0, 5))
                                .expect("uncapped arena");
                        }
                        cache
                    };
                    let (mut cache, mut oracle) = (build(), build());
                    for r in 5..rows {
                        for li in 0..shape.layers {
                            let (kr, vr, qr) = (k.row(r), v.row(r), q.row(r));
                            let mut out = vec![f32::NAN; shape.d_model];
                            let macs = cache
                                .attend_row(li, kr, vr, qr, act_act, &mut out)
                                .expect("uncapped arena");
                            let got: Vec<u32> = out.iter().map(|x| x.to_bits()).collect();
                            let want = append_then_read(&mut oracle, li, [kr, vr, qr], act_act);
                            assert_eq!((got, macs), want, "{what}: row {r} layer {li}");
                        }
                        if r % 6 == 0 {
                            assert_eq!(cache.demote_one(), oracle.demote_one(), "{what}");
                        }
                    }
                    if mode == KvCacheMode::F32 {
                        let int8_pages = cache.tier_stats().pages[PageTier::Int8.index()];
                        assert!(
                            int8_pages > 0,
                            "{what}: no page demoted under the f32 planes"
                        );
                    } else {
                        assert!(cache.requants() > 0, "{what}: no requantization");
                    }
                    for plane in 0..shape.layers * shape.heads {
                        let (li, head) = (plane / shape.heads, plane % shape.heads);
                        assert_eq!(cache.head_k(li, head), oracle.head_k(li, head), "{what}");
                        assert_eq!(cache.head_v(li, head), oracle.head_v(li, head), "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn runtime_requantization_fires_on_growing_magnitudes() {
        let (shape, _) = tiny();
        let mut cache = KvCache::with_mode(&shape, KvCacheMode::Int4);
        // Rows with doubling magnitude force TMax past its first estimate.
        for step in 0..4 {
            let mag = (step as f32 + 1.0) * (1 << step) as f32;
            let k = Matrix::filled(1, shape.d_model, mag);
            let v = Matrix::filled(1, shape.d_model, -mag);
            for li in 0..shape.layers {
                cache.append(li, &k, &v).expect("uncapped arena");
            }
        }
        assert!(
            cache.requants() > 0,
            "growing rows never triggered runtime requantization"
        );
        // The dequantized view still approximates the stored magnitudes.
        let hk = cache.head_k(0, 0);
        assert_eq!(hk.rows(), 4);
        assert!(hk.is_finite());
    }
}
