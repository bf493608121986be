//! [`KvCache`]: per-layer, per-head K/V page lists over a [`KvArena`] —
//! append, copy-on-write fork, own-page demotion, the in-place reads
//! (integer-domain for quantized modes, page-by-page f32 for f32 mode) and
//! the gathered read they are tested against.

use tender_metrics::engine as metrics;
use tender_tensor::qrows::MAX_PACKED_GROUPS;
use tender_tensor::{gemm, DemoteKey, EvictError, KvArena, Matrix, Page, PagePayload, PageTier};

use super::mode::{KvCacheMode, KvReadPath, KV_ACT_BITS};
use super::quant::{
    combine_groups, decode_rows, demote_if_smaller, dequant_page_into, quantize_act,
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

    /// The f32 read of an f32-mode plane, page by page and in place: hands
    /// each page's rows (row-major, `rows · head_dim`) to `f` with the
    /// position of its first row, in position order. An f32 page is read
    /// where it lies; a demoted page is dequantized into `scratch` first
    /// ([`dequant_page_into`]). Either way `f` sees the bits
    /// [`KvCache::gather`] would have copied.
    fn for_each_page_f32(&self, scratch: &mut PageScratch, mut f: impl FnMut(usize, &[f32])) {
        let (mut in_place, mut dequantized) = (0u64, 0u64);
        let mut off = 0usize;
        for page in &self.pages {
            let payload = page.read();
            off += match &*payload {
                PagePayload::F32(m) => {
                    in_place += 1;
                    f(off, m.as_slice());
                    m.rows()
                }
                PagePayload::Quant(q) => {
                    dequantized += 1;
                    dequant_page_into(q, &mut scratch.codes, &mut scratch.rows);
                    f(off, &scratch.rows);
                    q.rows.rows()
                }
            };
        }
        debug_assert_eq!(off, self.len, "pages hold the plane's positions");
        metrics::KV_F32_PAGE_READS.add(in_place);
        metrics::KV_DEQUANT_PAGE_READS.add(dequantized);
    }
}

/// Page-sized buffers of the in-place f32 read: a demoted page's
/// pre-shifted codes and its dequantized rows. Nothing in them outlives one
/// page.
#[derive(Debug, Clone, Default)]
struct PageScratch {
    codes: Vec<i16>,
    rows: Vec<f32>,
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
    /// The in-place f32 read's buffers, reused by every demoted page it
    /// meets.
    page_scratch: PageScratch,
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
            page_scratch: PageScratch::default(),
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
        assert!(li < self.layers, "layer {li} out of cache range");
        assert_eq!(k.shape(), v.shape(), "K/V row mismatch");
        assert_eq!(k.cols(), self.heads * self.head_dim, "d_model mismatch");
        for head in 0..self.heads {
            let c0 = head * self.head_dim;
            self.append_plane(self.k_plane(li, head), k, c0)?;
            self.append_plane(self.v_plane(li, head), v, c0)?;
        }
        Ok(())
    }

    /// Appends columns `c0 .. c0 + head_dim` of every row of `m` to plane
    /// `idx`, one page-run at a time: the rows that fit the tail page go in
    /// under a single exclusive edit of it (one lock, one re-billing), then
    /// the next page opens. Bytes only grow inside a run, so the peak gauge
    /// observed at its end is the maximum a per-row edit would have seen.
    fn append_plane(&mut self, idx: usize, m: &Matrix, c0: usize) -> Result<(), EvictError> {
        let dh = self.head_dim;
        let head_row = |r: usize| &m.row(r)[c0..c0 + dh];
        if m.rows() == 0 {
            return Ok(());
        }
        if let Some(q) = &mut self.planes[idx].quant {
            q.fix_bias((0..m.rows()).map(head_row), dh);
        }
        let page_rows = self.arena.page_rows();
        let mode = self.mode;
        // A sealed page is worth queueing only where a drain can pop it (a
        // capped arena) and a lower rung exists.
        let queues = self.arena.config().capacity_bytes.is_some() && mode.demoted().is_some();
        let mut r0 = 0;
        while r0 < m.rows() {
            let r1 = m.rows().min(r0 + self.writable_tail(idx)?);
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
    /// through [`KvCache::attn_scores_f32`] / [`KvCache::attn_values_f32`]);
    /// under [`KvReadPath::Dequant`] every plane is gathered into a
    /// dequantized matrix first ([`KvCache::head_k`] / [`KvCache::head_v`])
    /// — the oracle both in-place reads are tested against, bit-identical
    /// to the default on an f32-mode cache.
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
    /// [`KvReadPath::Dequant`] read; default-path decode attention uses
    /// [`KvCache::attn_scores_quant`] or [`KvCache::attn_scores_f32`].
    pub fn head_k(&self, li: usize, head: usize) -> Matrix {
        self.gather(&self.planes[self.k_plane(li, head)])
    }

    /// Cached values for `(li, head)`: a `len × head_dim` matrix gathered
    /// from the plane's page list. Same contract as [`KvCache::head_k`].
    pub fn head_v(&self, li: usize, head: usize) -> Matrix {
        self.gather(&self.planes[self.v_plane(li, head)])
    }

    /// Whether this cache takes the in-place f32 read.
    fn reads_f32_in_place(&self) -> bool {
        self.read_path == KvReadPath::Integer && self.mode == KvCacheMode::F32
    }

    /// Attention scores of the (already scaled) query row `qh` against the
    /// cached K plane of `(li, head)` of an **f32-mode** cache: a `1 × len`
    /// row computed page by page where the pages lie — no `len × head_dim`
    /// plane is built. The rows of a page advance together, `k` outermost,
    /// so the page's dots are independent accumulation chains in flight at
    /// once; per output element the chain is [`ops::row_dot_nt`]'s (`k`
    /// ascending, zeros of `qh` skipped, one f32 accumulator), so the row is
    /// bit-identical to `row_dot_nt(qh, head_k(li, head))`.
    ///
    /// Returns `None` when the cache mode is quantized or the read path is
    /// [`KvReadPath::Dequant`].
    ///
    /// # Panics
    ///
    /// Panics on an in-place f32 cache if `qh` is not `head_dim` wide.
    ///
    /// [`ops::row_dot_nt`]: tender_tensor::ops::row_dot_nt
    pub fn attn_scores_f32(&mut self, li: usize, head: usize, qh: &[f32]) -> Option<Matrix> {
        if !self.reads_f32_in_place() {
            return None;
        }
        let dh = self.head_dim;
        assert_eq!(
            qh.len(),
            dh,
            "query row for (layer {li}, head {head}) is {} wide, head_dim is {dh}",
            qh.len()
        );
        let plane = &self.planes[self.k_plane(li, head)];
        let mut out = vec![0.0f32; plane.len];
        plane.for_each_page_f32(&mut self.page_scratch, |off, rows| {
            let accs = &mut out[off..off + rows.len() / dh];
            for (k, &x) in qh.iter().enumerate() {
                if x == 0.0 {
                    continue;
                }
                for (acc, row) in accs.iter_mut().zip(rows.chunks_exact(dh)) {
                    *acc += x * row[k];
                }
            }
        });
        let len = out.len();
        Some(Matrix::from_vec(1, len, out).expect("score row shape"))
    }

    /// Attention-value product of the probability row `probs` (length
    /// `len`) against the cached V plane of `(li, head)` of an **f32-mode**
    /// cache: a `1 × head_dim` row accumulated over the pages in position
    /// order, where they lie. Per output column the chain is the f32
    /// matmul's (positions ascending, zero probabilities skipped, one f32
    /// accumulator), so the row is bit-identical to
    /// `probs.matmul(head_v(li, head))`. Same `None` contract as
    /// [`KvCache::attn_scores_f32`].
    ///
    /// # Panics
    ///
    /// Panics on an in-place f32 cache if `probs` does not hold one
    /// probability per cached position.
    pub fn attn_values_f32(&mut self, li: usize, head: usize, probs: &[f32]) -> Option<Matrix> {
        if !self.reads_f32_in_place() {
            return None;
        }
        let dh = self.head_dim;
        let plane = &self.planes[self.v_plane(li, head)];
        assert_eq!(
            probs.len(),
            plane.len,
            "probability row for (layer {li}, head {head}) is {} wide, the plane caches {} positions",
            probs.len(),
            plane.len
        );
        let mut out = vec![0.0f32; dh];
        plane.for_each_page_f32(&mut self.page_scratch, |off, rows| {
            for (&p, row) in probs[off..].iter().zip(rows.chunks_exact(dh)) {
                if p == 0.0 {
                    continue;
                }
                for (o, &v) in out.iter_mut().zip(row) {
                    *o += p * v;
                }
            }
        });
        Some(Matrix::from_vec(1, dh, out).expect("attn row shape"))
    }

    /// Integer-domain attention scores of the (already scaled) query row
    /// `qh` against the cached K plane of `(li, head)`: a `1 × len` row,
    /// computed directly on the packed codes page by page. Each page is
    /// decoded once into codes pre-multiplied by their group's α = 2
    /// combine weight, so a row's dot is one `i32` accumulator that already
    /// holds the shift-combined sum ([`gemm::kv_score_block`]); the page's
    /// own frozen scale applies once per dot, and the page's bias dot
    /// (`Σ_c qh[c]·bias[c]`, full f32 precision) is added per row. Integer
    /// sums under the [`gemm::kv_dot_cannot_overflow`] license are exact
    /// and order-free, so the result is bit-identical across thread counts
    /// and equal to the checked per-group walk, which is what runs when the
    /// license fails.
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
        if self.read_path != KvReadPath::Integer || self.mode == KvCacheMode::F32 {
            return None;
        }
        let plane = &self.planes[self.k_plane(li, head)];
        let dh = self.head_dim;
        assert_eq!(
            qh.len(),
            dh,
            "query row for (layer {li}, head {head}) is {} wide, head_dim is {dh}",
            qh.len()
        );
        let (xq, x_scale) = quantize_act(qh);
        let page_rows = self.arena.page_rows();
        let mut codes = vec![0i16; page_rows * dh];
        let mut sums = vec![0i32; page_rows];
        let mut group_sums = Vec::new(); // checked walk only
        let mut out = Vec::with_capacity(plane.len);
        for page in &plane.pages {
            let payload = page.read();
            let PagePayload::Quant(qp) = &*payload else {
                unreachable!("quantized plane holds an f32 page");
            };
            let plen = qp.rows.rows();
            if plen == 0 {
                continue;
            }
            let groups = qp.scales.len();
            let mut bias_dot = 0.0f32;
            for (x, b) in qh.iter().zip(qp.bias.iter()) {
                bias_dot += x * b;
            }
            let s_last = *qp.scales.last().expect("page scale snapshot");
            let factor = x_scale * s_last;
            if gemm::kv_dot_cannot_overflow(dh, KV_ACT_BITS, qp.rows.bits(), groups) {
                let sums = &mut sums[..plen];
                gemm::kv_score_block(&qp.rows, &xq, groups, &mut codes[..plen * dh], sums);
                out.extend(sums.iter().map(|&s| s as f32 * factor + bias_dot));
                record_dot_metrics(plen, false, 0);
            } else {
                group_sums.clear();
                group_sums.resize(plen * groups, 0i64);
                let mut events = gemm::kv_score_checked(&qp.rows, &xq, groups, &mut group_sums);
                for row_sums in group_sums.chunks_exact(groups) {
                    let combined = combine_groups(row_sums, &mut events);
                    out.push(combined as f32 * factor + bias_dot);
                }
                record_dot_metrics(plen, true, events);
            }
        }
        metrics::KV_INT_DOTS.add(out.len() as u64);
        metrics::KV_INT_DOT_MACS.add((out.len() * dh) as u64);
        let len = out.len();
        Some(Matrix::from_vec(1, len, out).expect("score row shape"))
    }

    /// Integer-domain attention-value product of the probability row
    /// `probs` (length `len`) against the cached V plane of `(li, head)`:
    /// a `1 × head_dim` row computed directly on the packed codes page by
    /// page (each page contributes its slice of the probability row under
    /// its own frozen scales, through one `i32` column bank of pre-shifted
    /// codes — [`gemm::kv_attn_block`]; contributions sum in page order).
    /// Same `None` contract and determinism argument as
    /// [`KvCache::attn_scores_quant`].
    ///
    /// # Panics
    ///
    /// Panics on a quantized integer-path cache if `probs` does not hold
    /// one probability per cached position.
    pub fn attn_values_quant(&self, li: usize, head: usize, probs: &[f32]) -> Option<Matrix> {
        if self.read_path != KvReadPath::Integer || self.mode == KvCacheMode::F32 {
            return None;
        }
        let plane = &self.planes[self.v_plane(li, head)];
        let dh = self.head_dim;
        assert_eq!(
            probs.len(),
            plane.len,
            "probability row for (layer {li}, head {head}) is {} wide, the plane caches {} positions",
            probs.len(),
            plane.len
        );
        let mut out = vec![0.0f32; dh];
        if plane.len > 0 {
            let (pq, p_scale) = quantize_act(probs);
            let mut codes = vec![0i16; self.arena.page_rows() * dh];
            let mut sums = vec![0i32; dh];
            let mut group_sums = Vec::new(); // checked walk only
            let mut off = 0usize;
            for page in &plane.pages {
                let payload = page.read();
                let PagePayload::Quant(qp) = &*payload else {
                    unreachable!("quantized plane holds an f32 page");
                };
                let plen = qp.rows.rows();
                if plen == 0 {
                    continue;
                }
                let groups = qp.scales.len();
                let mut psum = 0.0f32;
                for &p in &probs[off..off + plen] {
                    psum += p;
                }
                let s_last = *qp.scales.last().expect("page scale snapshot");
                let factor = p_scale * s_last;
                let pq = &pq[off..off + plen];
                if gemm::kv_dot_cannot_overflow(plen, KV_ACT_BITS, qp.rows.bits(), groups) {
                    gemm::kv_attn_block(&qp.rows, pq, groups, &mut codes[..plen * dh], &mut sums);
                    for ((o, &s), b) in out.iter_mut().zip(&sums).zip(qp.bias.iter()) {
                        *o += s as f32 * factor + b * psum;
                    }
                    record_dot_metrics(dh, false, 0);
                } else {
                    group_sums.clear();
                    group_sums.resize(groups * dh, 0i64);
                    let mut events = gemm::kv_attn_checked(&qp.rows, pq, groups, &mut group_sums);
                    let mut col_sums = [0i64; MAX_PACKED_GROUPS];
                    for (c, o) in out.iter_mut().enumerate() {
                        for (g, cs) in col_sums[..groups].iter_mut().enumerate() {
                            *cs = group_sums[g * dh + c];
                        }
                        let combined = combine_groups(&col_sums[..groups], &mut events);
                        *o += combined as f32 * factor + qp.bias[c] * psum;
                    }
                    record_dot_metrics(dh, true, events);
                }
                off += plen;
            }
        }
        metrics::KV_INT_DOTS.add(dh as u64);
        metrics::KV_INT_DOT_MACS.add((probs.len() * dh) as u64);
        Some(Matrix::from_vec(1, dh, out).expect("attn row shape"))
    }
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
            page_scratch: PageScratch::default(),
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
