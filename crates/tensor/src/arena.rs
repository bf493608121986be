//! Paged KV-cache storage: fixed-size row pages held through owning
//! handles, with copy-on-write sharing, one global byte budget, and tiered
//! f32 → int8 → int4 demotion accounting.
//!
//! [`KvArena::alloc`] hands out a [`Page`]: an owning, reference-counted
//! handle to `page_rows` cached positions whose payload is either an exact
//! f32 row block or a packed quantized block ([`QuantRows`] plus the
//! page-local scale snapshot). **Ownership is the handle's lifetime** —
//! `Clone` retains the page (a forked session shares its prefix), `Drop`
//! releases it, and the last drop un-accounts the page and returns its
//! bytes to the budget. There is no page table: nothing can name a page
//! that no longer exists, and nothing has to be released by hand.
//!
//! Pages are *storage only* — the quantize/dequantize recipes, the
//! per-plane bias/TMax state, and the demotion policy live with the caller
//! (the decode engine's `KvCache`). Mutation is only legal through the one
//! owner of an exclusively held page ([`Page::with_mut`] panics on a shared
//! one); callers copy-on-write first ([`KvArena::cow_clone`]). Each page
//! carries its own reader/writer lock: attention reads the payload in
//! place under a shared guard, an append or demotion edits it in place
//! under the exclusive one, so sessions working on different pages never
//! meet on a lock.
//!
//! What the arena itself owns is what must be global to be meaningful:
//!
//! * **Exact accounting.** Per-tier resident/allocated byte and page
//!   totals, the demotion/CoW/eviction counters and the budget are
//!   arena-level atomics, updated from each page's O(1)
//!   `tier()/resident_bytes()/allocated_bytes()` before and after an edit,
//!   so the aggregate gauges (`metrics::engine::KV_CACHE_BYTES` and the
//!   `metrics::kv_arena` bank) count every shared page exactly once.
//!   [`KvArena::stats`] is exact at quiescent points (iteration
//!   boundaries, end of run), which is where every caller reads it.
//! * **Capacity.** One hard byte cap, reserved with a compare-and-swap
//!   before a page is created: an allocation that would exceed it fails
//!   with a typed [`EvictError`] (the caller demotes cold pages and retries
//!   before giving up), and a configurable high-watermark fraction below
//!   the cap at which callers start demoting proactively.
//! * **The demotion queue.** On a capped arena, callers enqueue each page
//!   that seals as a cold-page candidate keyed by a logical ([`DemoteKey`])
//!   clock; nothing is requantized on the appending thread short of the
//!   hard cap. A drain at a deterministic iteration boundary pops
//!   candidates in key order — which is independent of *enqueue*
//!   interleaving — and requantizes off the decode critical path. Queue
//!   entries are non-owning ([`QueuedPage`]): being queued must not keep a
//!   page alive nor make it look shared, and a page whose last owner
//!   dropped while it was queued simply fails to upgrade at drain time.
//!   An uncapped arena is never over its watermark nor short of headroom,
//!   so no drain would ever pop its queue — and nothing is queued on it.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LockResult, Mutex, MutexGuard, RwLock, RwLockWriteGuard, TryLockError, Weak};

use tender_metrics::engine as engine_metrics;
use tender_metrics::kv_arena as metrics;

use crate::{Matrix, QuantRows};

/// Default page height: cached positions per page.
pub const DEFAULT_PAGE_ROWS: usize = 16;

/// Bytes of one frozen group scale (`f32`) in a page's snapshot.
const SCALE_BYTES: u64 = 4;

/// Storage precision of cached K/V rows: the tier a page is stored at, the
/// mode a cache appends in (`KvCacheMode` is this type), and the demotion
/// ladder, in order.
///
/// Byte accounting (per cached position, per head, per K or V plane):
///
/// | tier | payload                                  | per-plane constants |
/// |------|------------------------------------------|---------------------|
/// | f32  | `4 × head_dim`                           | none                |
/// | int8 | `head_dim`                               | `TMax` (4) + f16 bias (`2 × head_dim`) |
/// | int4 | `⌈head_dim/2⌉ + `⌈head_dim/4⌉` (2-bit group indices) | same |
///
/// Each quantized page additionally carries its frozen group-scale
/// snapshot (4 bytes per group); demoted pages also carry a page-local
/// bias/`TMax` (they re-derive both from their own rows), billed at the
/// per-plane rate. The bias is kept at f16 precision (values are rounded
/// through `f16_round`) and counted at two bytes per channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PageTier {
    /// Exact f32 rows (the bit-parity tier).
    F32,
    /// INT8 per-head symmetric codes, one group.
    Int8,
    /// INT4 codes in four power-of-two groups (Tender Eq. 3) with packed
    /// 2-bit group indices — the demotion floor.
    Int4,
}

impl PageTier {
    /// All tiers in ladder order.
    pub const ALL: [PageTier; 3] = [PageTier::F32, PageTier::Int8, PageTier::Int4];

    /// Index into per-tier accounting arrays.
    pub fn index(self) -> usize {
        match self {
            Self::F32 => 0,
            Self::Int8 => 1,
            Self::Int4 => 2,
        }
    }

    /// Canonical lower-case name.
    pub fn label(self) -> &'static str {
        match self {
            Self::F32 => "f32",
            Self::Int8 => "int8",
            Self::Int4 => "int4",
        }
    }

    /// Parses a CLI spelling (`f32` / `int8` / `int4`, case-insensitive).
    pub fn parse(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "f32" | "fp32" => Some(Self::F32),
            "int8" => Some(Self::Int8),
            "int4" => Some(Self::Int4),
            _ => None,
        }
    }

    /// The next-lower tier, or `None` at the int4 floor.
    pub fn demoted(self) -> Option<PageTier> {
        match self {
            Self::F32 => Some(Self::Int8),
            Self::Int8 => Some(Self::Int4),
            Self::Int4 => None,
        }
    }

    /// Element width in bits.
    pub fn bits(self) -> u32 {
        match self {
            Self::F32 => 32,
            Self::Int8 => 8,
            Self::Int4 => 4,
        }
    }

    /// Power-of-two decomposition groups (1 = plain symmetric).
    pub fn num_groups(self) -> usize {
        match self {
            Self::F32 | Self::Int8 => 1,
            Self::Int4 => 4,
        }
    }

    /// Stored bytes per cached position, per head, per K or V plane.
    pub fn position_bytes(self, head_dim: usize) -> u64 {
        match self {
            Self::F32 => 4 * head_dim as u64,
            Self::Int8 | Self::Int4 => {
                QuantRows::packed_row_bytes(head_dim, self.bits(), self.num_groups() > 1) as u64
            }
        }
    }

    /// Calibration constants of one quantized K or V plane (`TMax` plus the
    /// f16 bias) — which a demoted page carries for itself.
    pub fn head_overhead_bytes(self, head_dim: usize) -> u64 {
        match self {
            Self::F32 => 0,
            Self::Int8 | Self::Int4 => 4 + 2 * head_dim as u64,
        }
    }

    /// Allocated bytes of one empty page appended at this tier: the full
    /// page of rows plus (quantized tiers) the group-scale snapshot.
    pub fn page_alloc_bytes(self, head_dim: usize, page_rows: usize) -> u64 {
        let snapshot = match self {
            Self::F32 => 0,
            Self::Int8 | Self::Int4 => SCALE_BYTES * self.num_groups() as u64,
        };
        page_rows as u64 * self.position_bytes(head_dim) + snapshot
    }
}

/// A quantized page payload: packed codes plus the page's frozen scale
/// snapshot. Sealed pages keep the scales they were written under forever
/// (later plane-level requantizations touch only the live tail page), so a
/// page is always self-consistent: `value = code × scales[group] + bias`.
#[derive(Debug, Clone)]
pub struct QuantPage {
    /// Packed codes, one row per cached position.
    pub rows: QuantRows,
    /// Power-of-two group scales frozen at the page's last write.
    pub scales: Vec<f32>,
    /// Per-channel bias. Plane-owned (shared `Arc`) for pages quantized at
    /// append time; page-local for demoted pages, which re-derive it from
    /// their own rows.
    pub bias: Arc<Vec<f32>>,
    /// The `TMax` the scales were derived from.
    pub tmax: f32,
    /// Whether `bias`/`tmax` are page-local (a demoted page) and therefore
    /// counted against this page rather than the plane.
    pub page_local: bool,
}

/// One page's stored rows: exact f32 or packed quantized codes.
#[derive(Debug, Clone)]
pub enum PagePayload {
    /// Exact f32 rows.
    F32(Matrix),
    /// Packed quantized rows with the page-local scale snapshot.
    Quant(QuantPage),
}

impl PagePayload {
    /// The payload's storage tier.
    pub fn tier(&self) -> PageTier {
        match self {
            Self::F32(_) => PageTier::F32,
            Self::Quant(q) => {
                if q.rows.bits() == 8 {
                    PageTier::Int8
                } else {
                    PageTier::Int4
                }
            }
        }
    }

    /// Cached positions stored in the page.
    pub fn rows(&self) -> usize {
        match self {
            Self::F32(m) => m.rows(),
            Self::Quant(q) => q.rows.rows(),
        }
    }

    /// Row width in elements.
    pub fn cols(&self) -> usize {
        match self {
            Self::F32(m) => m.cols(),
            Self::Quant(q) => q.rows.cols(),
        }
    }

    /// Bytes the stored rows occupy, including the page's own quantization
    /// metadata (scale snapshot; bias + `TMax` too when page-local).
    pub fn resident_bytes(&self) -> u64 {
        self.rows() as u64 * self.row_bytes() + self.meta_bytes()
    }

    /// Bytes a full page of `page_rows` positions occupies at this tier
    /// (the arena's allocation-granularity unit).
    pub fn allocated_bytes(&self, page_rows: usize) -> u64 {
        page_rows as u64 * self.row_bytes() + self.meta_bytes()
    }

    /// Bytes of one stored row.
    fn row_bytes(&self) -> u64 {
        match self {
            Self::F32(m) => PageTier::F32.position_bytes(m.cols()),
            Self::Quant(q) => q.rows.bytes_per_row() as u64,
        }
    }

    /// The page's own quantization metadata: its scale snapshot plus, for
    /// a demoted page, the plane constants it carries for itself.
    fn meta_bytes(&self) -> u64 {
        let Self::Quant(q) = self else { return 0 };
        let own_constants = if q.page_local {
            self.tier().head_overhead_bytes(q.rows.cols())
        } else {
            0
        };
        SCALE_BYTES * q.scales.len() as u64 + own_constants
    }
}

/// Arena sizing and demotion thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArenaConfig {
    /// Cached positions per page.
    pub page_rows: usize,
    /// Hard cap on total allocated bytes (`None` = unbounded).
    pub capacity_bytes: Option<u64>,
    /// High-watermark fraction of the capacity above which the boundary
    /// drain demotes cold pages (1.0 = only demote when allocation fails).
    /// Appends never act on it: whoever steps sessions on a capped arena
    /// by hand, outside `BatchEngine` and the scheduler, must settle it at
    /// its own boundaries (the model crate's `settle_iteration`).
    pub watermark: f64,
    /// Ignored. Watermark pressure is always queued for the boundary
    /// drain; the field survives only for the struct literals of the
    /// frozen `benchmark/` package (ROADMAP item 5).
    pub deferred_demotion: bool,
}

impl Default for ArenaConfig {
    fn default() -> Self {
        Self {
            page_rows: DEFAULT_PAGE_ROWS,
            capacity_bytes: None,
            watermark: 1.0,
            deferred_demotion: false,
        }
    }
}

/// Allocation refused: the arena is at its byte cap and the caller's
/// demotion ladder has reached its floor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictError {
    /// Bytes the refused allocation needed.
    pub needed: u64,
    /// Bytes currently allocated across all tiers.
    pub allocated: u64,
    /// The configured hard cap.
    pub capacity: u64,
}

impl fmt::Display for EvictError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "kv arena exhausted (need {}, allocated {}, capacity {})",
            self.needed, self.allocated, self.capacity
        )
    }
}

impl Error for EvictError {}

/// Point-in-time arena accounting, per tier plus event counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArenaStats {
    /// Live pages per tier (`PageTier::index` order).
    pub pages: [u64; 3],
    /// Resident bytes per tier.
    pub resident: [u64; 3],
    /// Allocated bytes per tier.
    pub allocated: [u64; 3],
    /// Pages demoted into int8 (downward ladder moves only).
    pub demoted_int8: u64,
    /// Pages demoted into int4 (downward ladder moves only).
    pub demoted_int4: u64,
    /// Copy-on-write page copies (divergent appends onto shared pages).
    pub cow_copies: u64,
    /// *Terminal* allocation refusals: the caller's demotion ladder hit
    /// its floor and the append surfaced the error.
    pub evict_failures: u64,
    /// Interim allocation refusals that the caller answered by demoting
    /// cold pages and retrying. Not failures — requantization work.
    pub alloc_retries: u64,
}

impl ArenaStats {
    /// Total resident bytes across tiers.
    pub fn resident_total(&self) -> u64 {
        self.resident.iter().sum()
    }

    /// Total allocated bytes across tiers.
    pub fn allocated_total(&self) -> u64 {
        self.allocated.iter().sum()
    }

    /// Total live pages across tiers.
    pub fn pages_total(&self) -> u64 {
        self.pages.iter().sum()
    }
}

/// Logical demotion clock key: candidates drain in `(clock, owner, plane,
/// page_idx)` order, every component of which is derived from session
/// structure rather than thread timing — so the drain order is identical
/// at any thread count even though *enqueue* order is not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DemoteKey {
    /// Arena iteration (advanced by the engine at each boundary).
    pub clock: u64,
    /// Owner id of the enqueuing cache ([`KvArena::register_owner`]).
    pub owner: u64,
    /// Plane key (layer/head/K-or-V) within the owner.
    pub plane: u32,
    /// Page index within the plane.
    pub page_idx: u32,
}

/// What one page is billed for: its tier and byte footprint, taken from the
/// payload's O(1) accessors.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Bill {
    tier: PageTier,
    resident: u64,
    allocated: u64,
}

struct ArenaShared {
    cfg: ArenaConfig,
    /// Budget source of truth: total allocated bytes. Reserved with a CAS
    /// *before* a page is created so concurrent allocs cannot jointly
    /// overshoot the cap.
    allocated: AtomicU64,
    /// Live (pages, resident bytes, allocated bytes) per tier.
    totals: [[AtomicU64; 3]; 3],
    /// Logical iteration clock for demotion keys.
    clock: AtomicU64,
    /// Owner-id dispenser for [`KvArena::register_owner`].
    owners: AtomicU64,
    queue: Mutex<BTreeMap<DemoteKey, (QueuedPage, PageTier)>>,
    demoted_int8: AtomicU64,
    demoted_int4: AtomicU64,
    cow_copies: AtomicU64,
    evict_failures: AtomicU64,
    alloc_retries: AtomicU64,
}

impl ArenaShared {
    fn bill(&self, payload: &PagePayload) -> Bill {
        Bill {
            tier: payload.tier(),
            resident: payload.resident_bytes(),
            allocated: payload.allocated_bytes(self.cfg.page_rows),
        }
    }

    /// Adds or removes one page's footprint from the per-tier totals and
    /// the global gauges. Deliberately does *not* touch the budget atomic:
    /// additions spend a reservation made by `try_reserve` beforehand (so
    /// concurrent allocations cannot jointly overshoot the cap), and
    /// removals hand bytes back explicitly at the call site.
    fn account(&self, bill: Bill, add: bool) {
        let t = bill.tier.index();
        let amounts = [1, bill.resident, bill.allocated];
        let gauges = [
            &metrics::PAGES,
            &metrics::RESIDENT_BYTES,
            &metrics::ALLOCATED_BYTES,
        ];
        for ((total, gauge), n) in self.totals[t].iter().zip(gauges).zip(amounts) {
            if add {
                total.fetch_add(n, Ordering::Relaxed);
                gauge[t].add(n);
            } else {
                total.fetch_sub(n, Ordering::Relaxed);
                gauge[t].sub(n);
            }
        }
        if add {
            engine_metrics::KV_CACHE_BYTES.add(bill.resident);
            engine_metrics::KV_CACHE_ALLOCATED_BYTES.add(bill.allocated);
            engine_metrics::KV_CACHE_PEAK_BYTES.observe(engine_metrics::KV_CACHE_BYTES.get());
        } else {
            engine_metrics::KV_CACHE_BYTES.sub(bill.resident);
            engine_metrics::KV_CACHE_ALLOCATED_BYTES.sub(bill.allocated);
        }
    }

    fn queue(&self) -> MutexGuard<'_, BTreeMap<DemoteKey, (QueuedPage, PageTier)>> {
        self.queue.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl Drop for ArenaShared {
    fn drop(&mut self) {
        // Pages hold the arena alive, so none is outstanding here.
        metrics::DEMOTION_QUEUE_DEPTH.sub(self.queue().len() as u64);
        metrics::ARENAS.sub(1);
    }
}

/// The high-watermark byte mark for a capacity and fraction, computed in
/// u128 integer arithmetic. The fraction is fixed to a binary 32-bit
/// fractional representation once, so caps beyond 2^53 do not lose low
/// bits to f64 rounding (and never round toward "over").
fn watermark_mark(cap: u64, watermark: f64) -> u64 {
    debug_assert!(watermark > 0.0 && watermark <= 1.0);
    // 1.0 maps to exactly 2^32/2^32; fractions keep 32 bits of precision.
    let fp = (watermark * (1u64 << 32) as f64).round() as u128;
    ((cap as u128 * fp) >> 32) as u64
}

/// Takes a page lock, counting contended acquisitions (a `try_*` that
/// would block) in `metrics::kv_arena::SHARD_CONTENTION`.
fn lock_counting<G>(
    attempt: Result<G, TryLockError<G>>,
    block: impl FnOnce() -> LockResult<G>,
) -> G {
    match attempt {
        Ok(guard) => guard,
        Err(TryLockError::Poisoned(e)) => e.into_inner(),
        Err(TryLockError::WouldBlock) => {
            metrics::SHARD_CONTENTION.incr();
            block().unwrap_or_else(|e| e.into_inner())
        }
    }
}

struct PageCell {
    arena: Arc<ArenaShared>,
    payload: RwLock<PagePayload>,
}

impl PageCell {
    fn edit(&self) -> Edit<'_> {
        let payload = lock_counting(self.payload.try_write(), || self.payload.write());
        Edit {
            arena: &self.arena,
            before: self.arena.bill(&payload),
            payload,
        }
    }
}

impl Drop for PageCell {
    /// The last owner is gone: un-account the page and return its bytes to
    /// the budget.
    fn drop(&mut self) {
        let payload = self.payload.get_mut().unwrap_or_else(|e| e.into_inner());
        let bill = self.arena.bill(payload);
        self.arena.account(bill, false);
        self.arena
            .allocated
            .fetch_sub(bill.allocated, Ordering::Relaxed);
        metrics::PAGE_FREES.incr();
    }
}

/// An exclusive, in-place edit of one page. Dropping it re-bills the page
/// from its footprint before and after — on unwind too, so a panicking
/// edit cannot leave the totals and the budget describing a payload that
/// no longer exists.
struct Edit<'a> {
    arena: &'a ArenaShared,
    before: Bill,
    payload: RwLockWriteGuard<'a, PagePayload>,
}

impl Drop for Edit<'_> {
    fn drop(&mut self) {
        let (arena, before) = (self.arena, self.before);
        let after = arena.bill(&self.payload);
        if after == before {
            return;
        }
        arena.account(before, false);
        arena.account(after, true);
        // In-place edits bypass the reservation path; their growth is
        // bounded (pages shrink on demotion, appends fill pre-reserved
        // space), so the budget moves by the signed delta — one wrapping
        // add, never a transient over- or under-count — without a cap
        // check.
        arena.allocated.fetch_add(
            after.allocated.wrapping_sub(before.allocated),
            Ordering::Relaxed,
        );
        // Only *downward* ladder moves are demotions; promotions
        // (int4 → int8, quant → f32) re-account bytes and nothing else.
        if after.tier > before.tier {
            let (local, global) = match after.tier {
                PageTier::Int4 => (&arena.demoted_int4, &metrics::DEMOTED_INT4),
                _ => (&arena.demoted_int8, &metrics::DEMOTED_INT8),
            };
            local.fetch_add(1, Ordering::Relaxed);
            global.incr();
        }
    }
}

/// An owning handle to one page of a [`KvArena`]: `Clone` adds an owner
/// (prefix sharing), `Drop` removes one, and the last drop frees the page.
/// See the module docs for the ownership and accounting contract.
#[derive(Clone)]
pub struct Page(Arc<PageCell>);

impl fmt::Debug for Page {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // `try_read`: formatting must not block on a page that is being
        // edited (possibly by the thread that is formatting).
        let tier = self.0.payload.try_read().map(|p| p.tier()).ok();
        f.debug_struct("Page")
            .field("tier", &tier)
            .field("owners", &Arc::strong_count(&self.0))
            .finish()
    }
}

impl Page {
    /// Whether this handle is the page's only owner — the precondition for
    /// mutating it.
    pub fn is_exclusive(&self) -> bool {
        Arc::strong_count(&self.0) == 1
    }

    /// Shared read access to the payload, in place. Numeric work may run
    /// under the guard: only the page's single owner (or the boundary
    /// drain, for a sole-owned page) ever takes the exclusive side.
    pub fn read(&self) -> impl Deref<Target = PagePayload> + '_ {
        lock_counting(self.0.payload.try_read(), || self.0.payload.read())
    }

    /// The page's current storage tier.
    pub fn tier(&self) -> PageTier {
        self.read().tier()
    }

    /// Mutates the payload in place, keeping the per-tier accounting exact
    /// across the edit (including tier changes — a demotion is an in-place
    /// mutation to a lower tier). No payload copy is made.
    ///
    /// # Panics
    ///
    /// Panics if the page is shared; copy-on-write first via
    /// [`KvArena::cow_clone`].
    pub fn with_mut<R>(&self, f: impl FnOnce(&mut PagePayload) -> R) -> R {
        assert!(
            self.is_exclusive(),
            "mutating a shared page (copy-on-write first)"
        );
        let mut edit = self.0.edit();
        f(&mut edit.payload)
    }

    /// A non-owning reference for the demotion queue.
    pub fn downgrade(&self) -> QueuedPage {
        QueuedPage(Arc::downgrade(&self.0))
    }
}

/// A non-owning reference to a page, as the demotion queue holds it: it
/// neither keeps the page alive nor counts as an owner.
#[derive(Debug, Clone)]
pub struct QueuedPage(Weak<PageCell>);

impl QueuedPage {
    /// The commit step of a queued demotion: replaces the payload with
    /// `requant(&payload)` if the page is still alive, held by exactly one
    /// owner, sealed (`page_rows` rows) and at `expect_tier`. Returns the
    /// allocated bytes freed, or `None` if any check fails or `requant`
    /// declines — nothing is changed or counted then.
    ///
    /// Owners are counted *before* upgrading, so the drain's own transient
    /// references never make a page look shared, and the tier is re-read
    /// under the page's write lock: a page queued under two keys is
    /// demoted by whichever candidate gets there first and skipped by the
    /// other. Like every exclusivity test on a shared-ownership handle,
    /// the owner count is only stable while no owner is forking — drains
    /// run at iteration boundaries, where none is.
    pub fn demote_if_exclusive(
        &self,
        expect_tier: PageTier,
        requant: impl FnOnce(&PagePayload) -> Option<PagePayload>,
    ) -> Option<u64> {
        if self.0.strong_count() != 1 {
            return None;
        }
        let cell = self.0.upgrade()?;
        let page_rows = cell.arena.cfg.page_rows;
        let mut edit = cell.edit();
        if edit.before.tier != expect_tier || edit.payload.rows() != page_rows {
            return None;
        }
        let demoted = requant(&edit.payload)?;
        let freed = edit.before.allocated;
        *edit.payload = demoted;
        Some(freed.saturating_sub(edit.payload.allocated_bytes(page_rows)))
    }
}

/// One queued demotion candidate.
#[derive(Debug, Clone)]
pub struct DemoteCandidate {
    /// Drain-order key.
    pub key: DemoteKey,
    /// The page to demote. May be stale by drain time (freed, CoW'd away,
    /// shared, or already demoted); [`QueuedPage::demote_if_exclusive`]
    /// revalidates.
    pub page: QueuedPage,
    /// Tier the page held when enqueued.
    pub tier: PageTier,
}

/// A cloneable handle to one shared page arena. See the module docs for
/// the ownership and accounting contract.
#[derive(Clone)]
pub struct KvArena {
    shared: Arc<ArenaShared>,
}

impl fmt::Debug for KvArena {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stats = self.stats();
        f.debug_struct("KvArena")
            .field("config", &self.config())
            .field("stats", &stats)
            .finish()
    }
}

impl Default for KvArena {
    fn default() -> Self {
        Self::new(ArenaConfig::default())
    }
}

impl KvArena {
    /// An empty arena with the given page size and capacity policy.
    ///
    /// # Panics
    ///
    /// Panics if `page_rows == 0` or the watermark is outside `(0, 1]`.
    pub fn new(cfg: ArenaConfig) -> Self {
        assert!(cfg.page_rows > 0, "pages must hold at least one row");
        assert!(
            cfg.watermark > 0.0 && cfg.watermark <= 1.0,
            "watermark {} outside (0, 1]",
            cfg.watermark
        );
        metrics::ARENAS.add(1);
        Self {
            shared: Arc::new(ArenaShared {
                cfg,
                allocated: AtomicU64::new(0),
                totals: Default::default(),
                clock: AtomicU64::new(0),
                owners: AtomicU64::new(0),
                queue: Mutex::new(BTreeMap::new()),
                demoted_int8: AtomicU64::new(0),
                demoted_int4: AtomicU64::new(0),
                cow_copies: AtomicU64::new(0),
                evict_failures: AtomicU64::new(0),
                alloc_retries: AtomicU64::new(0),
            }),
        }
    }

    /// The arena's configuration.
    pub fn config(&self) -> ArenaConfig {
        self.shared.cfg
    }

    /// Cached positions per page.
    pub fn page_rows(&self) -> usize {
        self.shared.cfg.page_rows
    }

    /// Whether two handles refer to the same arena.
    pub fn same_arena(&self, other: &KvArena) -> bool {
        Arc::ptr_eq(&self.shared, &other.shared)
    }

    /// Reserves `add` bytes against the global budget, or reports the
    /// refusal. Interim refusals are the caller's cue to demote and retry;
    /// they count as `alloc_retries`, not failures (see
    /// [`KvArena::note_evict_failure`]).
    fn try_reserve(&self, add: u64) -> Result<(), EvictError> {
        let shared = &*self.shared;
        let Some(cap) = shared.cfg.capacity_bytes else {
            shared.allocated.fetch_add(add, Ordering::Relaxed);
            return Ok(());
        };
        let mut cur = shared.allocated.load(Ordering::Relaxed);
        loop {
            if cur.saturating_add(add) > cap {
                shared.alloc_retries.fetch_add(1, Ordering::Relaxed);
                metrics::ALLOC_RETRIES.incr();
                return Err(EvictError {
                    needed: add,
                    allocated: cur,
                    capacity: cap,
                });
            }
            match shared.allocated.compare_exchange_weak(
                cur,
                cur + add,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Ok(()),
                Err(seen) => cur = seen,
            }
        }
    }

    /// Allocates a page holding `payload`, owned by the returned handle.
    ///
    /// # Errors
    ///
    /// [`EvictError`] when the arena has a hard byte cap and the page's
    /// allocated footprint would exceed it. The caller is expected to
    /// demote cold pages and retry before surfacing the error.
    pub fn alloc(&self, payload: PagePayload) -> Result<Page, EvictError> {
        let bill = self.shared.bill(&payload);
        self.try_reserve(bill.allocated)?;
        // The reservation made by try_reserve IS this page's budget entry.
        self.shared.account(bill, true);
        metrics::PAGE_ALLOCS.incr();
        Ok(Page(Arc::new(PageCell {
            arena: self.shared.clone(),
            payload: RwLock::new(payload),
        })))
    }

    /// Copy-on-write: allocates a private copy of a shared page. The
    /// caller swaps the copy in for its handle to the original; dropping
    /// that handle is the release.
    ///
    /// # Errors
    ///
    /// [`EvictError`] when the copy cannot be allocated.
    pub fn cow_clone(&self, page: &Page) -> Result<Page, EvictError> {
        let payload = page.read().clone();
        let copy = self.alloc(payload)?;
        self.shared.cow_copies.fetch_add(1, Ordering::Relaxed);
        metrics::COW_COPIES.incr();
        Ok(copy)
    }

    /// Records one *terminal* allocation refusal: the caller demoted to
    /// the floor and still could not place the page. Interim refusals in a
    /// demote-and-retry loop are `alloc_retries`, not failures.
    pub fn note_evict_failure(&self) {
        self.shared.evict_failures.fetch_add(1, Ordering::Relaxed);
        metrics::EVICT_FAILURES.incr();
    }

    /// Point-in-time accounting snapshot.
    pub fn stats(&self) -> ArenaStats {
        let shared = &*self.shared;
        let mut stats = ArenaStats {
            demoted_int8: shared.demoted_int8.load(Ordering::Relaxed),
            demoted_int4: shared.demoted_int4.load(Ordering::Relaxed),
            cow_copies: shared.cow_copies.load(Ordering::Relaxed),
            evict_failures: shared.evict_failures.load(Ordering::Relaxed),
            alloc_retries: shared.alloc_retries.load(Ordering::Relaxed),
            ..ArenaStats::default()
        };
        for (t, [pages, resident, allocated]) in shared.totals.iter().enumerate() {
            stats.pages[t] = pages.load(Ordering::Relaxed);
            stats.resident[t] = resident.load(Ordering::Relaxed);
            stats.allocated[t] = allocated.load(Ordering::Relaxed);
        }
        stats
    }

    /// Total allocated bytes across tiers — the budget counter.
    pub fn allocated_bytes(&self) -> u64 {
        self.shared.allocated.load(Ordering::Relaxed)
    }

    /// Total resident bytes across tiers.
    pub fn resident_bytes(&self) -> u64 {
        self.stats().resident_total()
    }

    /// Whether allocated bytes sit above the high-watermark fraction of
    /// the capacity. Always `false` for an uncapped arena.
    pub fn over_watermark(&self) -> bool {
        match self.shared.cfg.capacity_bytes {
            None => false,
            Some(cap) => self.allocated_bytes() > watermark_mark(cap, self.shared.cfg.watermark),
        }
    }

    /// Bytes of headroom left under the hard cap (`u64::MAX` if uncapped).
    pub fn headroom_bytes(&self) -> u64 {
        match self.shared.cfg.capacity_bytes {
            None => u64::MAX,
            Some(cap) => cap.saturating_sub(self.allocated_bytes()),
        }
    }

    // --- logical clock, owners, and the demotion queue ------------------

    /// Hands out the next owner id. Callers register once per cache, from
    /// deterministic (single-threaded) construction code, so owner ids are
    /// reproducible at any thread count.
    pub fn register_owner(&self) -> u64 {
        self.shared.owners.fetch_add(1, Ordering::Relaxed)
    }

    /// The current logical iteration.
    pub fn clock(&self) -> u64 {
        self.shared.clock.load(Ordering::Relaxed)
    }

    /// Advances the logical iteration clock (engine/scheduler boundary)
    /// and returns the new value.
    pub fn advance_clock(&self) -> u64 {
        self.shared.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Enqueues a demotion candidate under the given structural key. The
    /// queue is keyed, not ordered by arrival, so concurrent enqueues from
    /// `par_map` workers land in the same drain order regardless of
    /// interleaving. Re-enqueueing an existing key replaces the entry.
    /// Callers enqueue on capped arenas only: no drain pops an uncapped
    /// arena's queue.
    pub fn enqueue_demotion(&self, key: DemoteKey, page: QueuedPage, tier: PageTier) {
        debug_assert!(
            self.shared.cfg.capacity_bytes.is_some(),
            "queued a demotion on an uncapped arena, where no drain can reach it"
        );
        let mut queue = self.shared.queue();
        if queue.insert(key, (page, tier)).is_none() {
            metrics::DEMOTION_QUEUE_DEPTH.add(1);
            metrics::DEMOTION_QUEUE_PEAK.observe(queue.len() as u64);
        }
    }

    /// Pops up to `max` candidates in key (clock) order.
    pub fn pop_demotions(&self, max: usize) -> Vec<DemoteCandidate> {
        let mut queue = self.shared.queue();
        let mut out = Vec::new();
        while out.len() < max {
            let Some((key, (page, tier))) = queue.pop_first() else {
                break;
            };
            out.push(DemoteCandidate { key, page, tier });
        }
        metrics::DEMOTION_QUEUE_DEPTH.sub(out.len() as u64);
        out
    }

    /// Queued demotion candidates.
    pub fn demotion_queue_len(&self) -> usize {
        self.shared.queue().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f32_page(rows: usize, cols: usize, fill: f32) -> PagePayload {
        let mut m = Matrix::with_row_capacity(cols, rows);
        for _ in 0..rows {
            m.push_row(&vec![fill; cols]);
        }
        PagePayload::F32(m)
    }

    fn quant_page(rows: usize, cols: usize, page_local: bool) -> PagePayload {
        quant_page_bits(rows, cols, page_local, 8)
    }

    fn quant_page_bits(rows: usize, cols: usize, page_local: bool, bits: u32) -> PagePayload {
        let grouped = bits == 4;
        let mut q = QuantRows::with_row_capacity(cols, bits, grouped, rows);
        let groups = if grouped { vec![0u8; cols] } else { vec![] };
        for _ in 0..rows {
            q.push_row(&vec![1i32; cols], &groups);
        }
        PagePayload::Quant(QuantPage {
            rows: q,
            scales: vec![0.5],
            bias: Arc::new(vec![0.0; cols]),
            tmax: 1.0,
            page_local,
        })
    }

    fn owners(page: &Page) -> usize {
        Arc::strong_count(&page.0)
    }

    fn key(clock: u64, owner: u64, plane: u32, page_idx: u32) -> DemoteKey {
        DemoteKey {
            clock,
            owner,
            plane,
            page_idx,
        }
    }

    #[test]
    fn clone_and_drop_track_owners_and_bytes() {
        let arena = KvArena::new(ArenaConfig {
            page_rows: 4,
            ..ArenaConfig::default()
        });
        let page = arena.alloc(f32_page(2, 8, 1.0)).expect("uncapped");
        assert_eq!(owners(&page), 1);
        assert!(page.is_exclusive());
        assert_eq!(arena.resident_bytes(), 2 * 8 * 4);
        assert_eq!(arena.allocated_bytes(), 4 * 8 * 4);
        let fork = page.clone();
        assert_eq!(owners(&page), 2);
        assert!(!page.is_exclusive());
        // Shared pages are counted once regardless of owners.
        assert_eq!(arena.resident_bytes(), 2 * 8 * 4);
        assert_eq!(arena.stats().pages_total(), 1);
        drop(fork);
        assert_eq!(owners(&page), 1);
        drop(page);
        assert_eq!(arena.resident_bytes(), 0);
        assert_eq!(arena.allocated_bytes(), 0);
        assert_eq!(arena.stats().pages_total(), 0);
    }

    #[test]
    fn handle_dropped_from_four_threads_unaccounts_exactly_once() {
        let arena = KvArena::new(ArenaConfig {
            page_rows: 4,
            ..ArenaConfig::default()
        });
        let page = arena.alloc(f32_page(4, 8, 1.0)).expect("uncapped");
        let bystander = arena.alloc(f32_page(4, 8, 2.0)).expect("uncapped");
        let page_bytes = 4 * 8 * 4;
        let mut clones: Vec<Page> = (0..64).map(|_| page.clone()).collect();
        clones.push(page);
        // All four threads start dropping together.
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let mine: Vec<Page> = clones.drain(..clones.len().min(17)).collect();
                scope.spawn(|| {
                    start.wait();
                    drop(mine);
                });
            }
        });
        assert!(clones.is_empty());
        // Had any of the 65 drops but the last un-accounted the page, the
        // bystander's bytes would be gone too (or the counters wrapped).
        let stats = arena.stats();
        assert_eq!(stats.pages, [1, 0, 0]);
        assert_eq!(stats.resident_total(), page_bytes);
        assert_eq!(stats.allocated_total(), page_bytes);
        assert_eq!(arena.allocated_bytes(), page_bytes);
        drop(bystander);
        assert_eq!(arena.stats(), ArenaStats::default());
        assert_eq!(arena.allocated_bytes(), 0);
    }

    #[test]
    fn capacity_cap_yields_typed_evict_error() {
        let cols = 8;
        let page_bytes = (2 * cols * 4) as u64; // page_rows = 2
        let arena = KvArena::new(ArenaConfig {
            page_rows: 2,
            capacity_bytes: Some(page_bytes),
            watermark: 1.0,
            ..ArenaConfig::default()
        });
        let page = arena.alloc(f32_page(1, cols, 1.0)).expect("first fits");
        let err = arena.alloc(f32_page(1, cols, 2.0)).expect_err("cap hit");
        assert_eq!(err.needed, page_bytes);
        assert_eq!(err.allocated, page_bytes);
        assert_eq!(err.capacity, page_bytes);
        assert!(err.to_string().contains("kv arena exhausted"));
        // A refusal alone is a retry cue, not a terminal failure; the
        // caller decides when the ladder is exhausted.
        assert_eq!(arena.stats().alloc_retries, 1);
        assert_eq!(arena.stats().evict_failures, 0);
        arena.note_evict_failure();
        assert_eq!(arena.stats().evict_failures, 1);
        drop(page);
        arena
            .alloc(f32_page(1, cols, 3.0))
            .expect("fits after free");

        // Pages of different tiers (hence different planes) bill one cap:
        // the page that would cross it is refused, whatever its size.
        let int8_bytes = quant_page(2, cols, false).allocated_bytes(2);
        let arena = KvArena::new(ArenaConfig {
            page_rows: 2,
            capacity_bytes: Some(2 * page_bytes + int8_bytes),
            ..ArenaConfig::default()
        });
        let held = [
            arena.alloc(f32_page(2, cols, 1.0)).unwrap(),
            arena.alloc(quant_page(2, cols, false)).unwrap(),
            arena.alloc(f32_page(2, cols, 1.0)).unwrap(),
        ];
        let err = arena
            .alloc(quant_page(2, cols, false))
            .expect_err("global cap");
        assert_eq!(err.needed, int8_bytes);
        assert_eq!(err.allocated, 2 * page_bytes + int8_bytes);
        assert_eq!(arena.stats().alloc_retries, 1);
        assert_eq!(arena.stats().evict_failures, 0);
        assert_eq!(arena.allocated_bytes(), 2 * page_bytes + int8_bytes);
        assert_eq!(arena.stats().allocated_total(), arena.allocated_bytes());
        drop(held);
        assert_eq!(arena.allocated_bytes(), 0);
    }

    #[test]
    fn with_mut_reaccounts_and_counts_demotions() {
        let arena = KvArena::new(ArenaConfig {
            page_rows: 4,
            ..ArenaConfig::default()
        });
        let page = arena.alloc(f32_page(4, 8, 1.0)).unwrap();
        let f32_alloc = arena.allocated_bytes();
        // In-place demotion: swap the payload for a quantized block.
        page.with_mut(|p| *p = quant_page(4, 8, true));
        let stats = arena.stats();
        assert_eq!(stats.pages, [0, 1, 0]);
        assert_eq!(stats.demoted_int8, 1);
        assert!(arena.allocated_bytes() < f32_alloc, "demotion shrinks");
        // Per-tier accounting matches the payload's own arithmetic.
        let p = page.read();
        assert_eq!(stats.resident[1], p.resident_bytes());
        assert_eq!(stats.allocated[1], p.allocated_bytes(4));
        assert_eq!(arena.allocated_bytes(), p.allocated_bytes(4));
    }

    #[test]
    fn in_capacity_appends_edit_the_page_in_place() {
        let arena = KvArena::new(ArenaConfig {
            page_rows: 4,
            ..ArenaConfig::default()
        });
        let empty = PagePayload::F32(Matrix::with_row_capacity(8, 4));
        let page = arena.alloc(empty).unwrap();
        let row_buffer = |page: &Page| match &*page.read() {
            PagePayload::F32(m) => m.row(0).as_ptr(),
            PagePayload::Quant(_) => unreachable!("f32 page"),
        };
        let push = |fill: f32| {
            page.with_mut(|p| match p {
                PagePayload::F32(m) => m.push_row(&[fill; 8]),
                PagePayload::Quant(_) => unreachable!("f32 page"),
            })
        };
        push(1.0);
        let at = row_buffer(&page);
        push(2.0);
        push(3.0);
        assert_eq!(row_buffer(&page), at, "an exclusive append copied the page");
        // ... and each row was billed as it landed.
        assert_eq!(arena.resident_bytes(), 3 * 8 * 4);
        assert_eq!(arena.allocated_bytes(), 4 * 8 * 4);
    }

    #[test]
    fn promotions_reaccount_but_do_not_count_as_demotions() {
        let arena = KvArena::new(ArenaConfig {
            page_rows: 4,
            ..ArenaConfig::default()
        });
        // int4 → int8 is an upward ladder move: re-accounted, not counted.
        let page = arena.alloc(quant_page_bits(4, 8, true, 4)).unwrap();
        page.with_mut(|p| *p = quant_page_bits(4, 8, true, 8));
        let stats = arena.stats();
        assert_eq!(stats.pages, [0, 1, 0], "re-accounted under int8");
        assert_eq!(stats.demoted_int8, 0, "a promotion is not a demotion");
        // quant → f32 likewise.
        page.with_mut(|p| *p = f32_page(4, 8, 1.0));
        let stats = arena.stats();
        assert_eq!(stats.pages, [1, 0, 0]);
        assert_eq!(stats.demoted_int8, 0);
        assert_eq!(stats.demoted_int4, 0);
        // And the round trip back down counts exactly once per rung.
        page.with_mut(|p| *p = quant_page_bits(4, 8, true, 8));
        page.with_mut(|p| *p = quant_page_bits(4, 8, true, 4));
        let stats = arena.stats();
        assert_eq!(stats.demoted_int8, 1);
        assert_eq!(stats.demoted_int4, 1);
    }

    #[test]
    #[should_panic(expected = "copy-on-write first")]
    fn mutating_a_shared_page_panics() {
        let arena = KvArena::default();
        let page = arena.alloc(f32_page(1, 4, 1.0)).unwrap();
        let _fork = page.clone();
        page.with_mut(|_| ());
    }

    #[test]
    fn cow_clone_detaches_a_shared_page() {
        let arena = KvArena::new(ArenaConfig {
            page_rows: 2,
            ..ArenaConfig::default()
        });
        let shared = arena.alloc(f32_page(2, 4, 7.0)).unwrap();
        let mut mine = shared.clone(); // two owners
        mine = arena.cow_clone(&mine).expect("uncapped");
        assert!(!Arc::ptr_eq(&shared.0, &mine.0));
        assert_eq!(owners(&shared), 1);
        assert_eq!(owners(&mine), 1);
        assert_eq!(arena.stats().cow_copies, 1);
        assert_eq!(arena.stats().pages_total(), 2);
        // The copy diverges without touching the original.
        mine.with_mut(|p| {
            if let PagePayload::F32(m) = p {
                m.push_row(&[9.0; 4]);
            }
        });
        assert_eq!(shared.read().rows(), 2);
        assert_eq!(mine.read().rows(), 3);
    }

    #[test]
    fn watermark_trips_on_allocated_fraction() {
        let cols = 4;
        let page_bytes = (2 * cols * 4) as u64;
        let arena = KvArena::new(ArenaConfig {
            page_rows: 2,
            capacity_bytes: Some(4 * page_bytes),
            watermark: 0.5,
            ..ArenaConfig::default()
        });
        assert!(!arena.over_watermark());
        let _a = arena.alloc(f32_page(2, cols, 1.0)).unwrap();
        let _b = arena.alloc(f32_page(2, cols, 1.0)).unwrap();
        assert!(!arena.over_watermark(), "exactly at the mark is not over");
        let _c = arena.alloc(f32_page(2, cols, 1.0)).unwrap();
        assert!(arena.over_watermark());
    }

    #[test]
    fn watermark_mark_is_exact_beyond_f64_precision() {
        // Full-cap watermark is the cap itself, bit for bit — including
        // caps whose low bits f64 cannot represent.
        assert_eq!(watermark_mark(u64::MAX, 1.0), u64::MAX);
        assert_eq!(watermark_mark((1 << 53) + 1, 1.0), (1 << 53) + 1);
        assert_eq!(watermark_mark((1 << 62) + 4095, 1.0), (1 << 62) + 4095);
        // Binary fractions stay exact at any magnitude.
        assert_eq!(watermark_mark(1 << 60, 0.5), 1 << 59);
        assert_eq!(watermark_mark((1 << 60) + 8, 0.25), (1 << 58) + 2);
        // Small caps keep the seed behavior (floor of the product).
        assert_eq!(watermark_mark(64, 0.5), 32);
        assert_eq!(watermark_mark(3, 1.0), 3);
        // Never rounds toward "over": the mark of a sub-1.0 fraction is
        // strictly below the cap even when f64 would have snapped it up.
        let cap = (1u64 << 62) + 1;
        assert!(watermark_mark(cap, 0.999_999_999) < cap);
    }

    #[test]
    fn demotion_queue_drains_in_clock_order_not_arrival_order() {
        let arena = KvArena::new(ArenaConfig {
            page_rows: 2,
            capacity_bytes: Some(1 << 20),
            ..ArenaConfig::default()
        });
        let a = arena.alloc(f32_page(2, 4, 1.0)).unwrap();
        let b = arena.alloc(f32_page(2, 4, 2.0)).unwrap();
        let c = arena.alloc(f32_page(2, 4, 3.0)).unwrap();
        let is = |cand: &DemoteCandidate, page: &Page| cand.page.0.as_ptr() == Arc::as_ptr(&page.0);
        // Arrival order scrambled relative to key order.
        arena.enqueue_demotion(key(2, 0, 1, 0), c.downgrade(), PageTier::F32);
        arena.enqueue_demotion(key(1, 1, 0, 0), b.downgrade(), PageTier::F32);
        arena.enqueue_demotion(key(1, 0, 0, 0), a.downgrade(), PageTier::F32);
        assert_eq!(arena.demotion_queue_len(), 3);
        // Being queued neither shares a page nor keeps it alive.
        assert!(a.is_exclusive() && b.is_exclusive() && c.is_exclusive());
        let first = arena.pop_demotions(2);
        assert!(is(&first[0], &a), "lowest (clock, owner) drains first");
        assert!(is(&first[1], &b));
        let rest = arena.pop_demotions(8);
        assert_eq!(rest.len(), 1);
        assert!(is(&rest[0], &c));
        assert_eq!(arena.demotion_queue_len(), 0);
    }

    #[test]
    fn demote_if_exclusive_commits_only_when_page_is_unchanged() {
        let arena = KvArena::new(ArenaConfig {
            page_rows: 4,
            ..ArenaConfig::default()
        });
        let page = arena.alloc(f32_page(4, 8, 1.0)).unwrap();
        let queued = page.downgrade();
        let to_int8 = |_: &PagePayload| Some(quant_page(4, 8, true));
        // Shared page: the commit is refused.
        let fork = page.clone();
        assert_eq!(queued.demote_if_exclusive(PageTier::F32, to_int8), None);
        drop(fork);
        // Wrong expected tier (stale candidate): refused.
        assert_eq!(queued.demote_if_exclusive(PageTier::Int8, to_int8), None);
        // The requantizer declines (would not shrink): refused.
        assert_eq!(queued.demote_if_exclusive(PageTier::F32, |_| None), None);
        assert_eq!(arena.stats().pages, [1, 0, 0], "refusals change nothing");
        // Exclusive and at the enqueued tier: commits, returns bytes freed.
        let before = arena.allocated_bytes();
        let freed = queued
            .demote_if_exclusive(PageTier::F32, to_int8)
            .expect("commit");
        assert_eq!(before - arena.allocated_bytes(), freed);
        assert_eq!(arena.stats().demoted_int8, 1);
        assert_eq!(page.tier(), PageTier::Int8);
        assert!(page.is_exclusive(), "the commit left no owner behind");
        // An unsealed page is still being written: refused.
        let tail = arena.alloc(f32_page(3, 8, 1.0)).unwrap();
        let open = tail.downgrade();
        assert_eq!(open.demote_if_exclusive(PageTier::F32, to_int8), None);
        // Dead page: refused.
        drop(page);
        assert_eq!(queued.demote_if_exclusive(PageTier::Int8, to_int8), None);
    }

    #[test]
    fn payload_accounting_matches_quant_formulas() {
        let page_local = quant_page(3, 10, true);
        let shared_meta = quant_page(3, 10, false);
        // int8 ungrouped: 10 bytes/row; +4 scale bytes; page-local adds
        // tmax (4) + f16 bias (2 × 10).
        assert_eq!(shared_meta.resident_bytes(), 30 + 4);
        assert_eq!(page_local.resident_bytes(), 30 + 4 + 4 + 20);
        assert_eq!(shared_meta.allocated_bytes(8), 80 + 4);
        assert_eq!(page_local.allocated_bytes(8), 80 + 4 + 4 + 20);
    }
}
