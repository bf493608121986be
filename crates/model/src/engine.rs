//! Prefill + incremental-decode inference engine over a paged KV cache.
//!
//! [`DecodeSession`] wraps a model (reference or quantized) and exposes the
//! two-phase inference shape real serving systems use: [`prefill`] ingests
//! the prompt in one full-sequence pass while filling a per-layer, per-head
//! [`KvCache`]; [`step`] then feeds one token at a time, attending against
//! the cache instead of re-running the whole prefix. [`step_stacked`] is
//! that step for several sessions at once: their decode rows share one
//! product per weight site — bit-identical to stepping each alone, with the
//! weights streamed once. [`BatchEngine`] runs many sessions through the
//! shared worker pool deterministically: every decode entry point is built
//! on one batch iteration that settles each arena's byte budget at a
//! sequential boundary ([`settle_iteration`] — the one place an arena's
//! clock advances, its demotion queue drains and appends are reserved)
//! before the parallel step, which stacks each worker's share of the batch.
//!
//! This module is a façade. The code lives in the crate-private modules
//! `kv` (storage modes, the row codec, [`KvCache`], the iteration boundary),
//! `session` ([`DecodeSession`]) and `batch` ([`BatchEngine`]).
//!
//! **Paged storage.** Cache rows live in fixed-size pages allocated from a
//! [`KvArena`] (default 16 positions per page). A session created through
//! [`DecodeSession::new`] / [`with_cache_mode`] gets a private, unbounded
//! arena; sessions created with [`DecodeSession::with_arena`] share one
//! arena, and [`DecodeSession::fork`] clones a prefilled session by
//! *retaining* its pages instead of copying them — the shared prompt prefix
//! is stored once, and a fork copies only the page it diverges on
//! (copy-on-write). Under a configured arena byte cap, cold (sealed,
//! exclusively-owned) pages are demoted f32 → int8 → int4 in place via the
//! paper's requantization recipe — by the boundary drain above the arena's
//! watermark, by the appending session itself before any allocation is
//! refused; at the floor the typed [`EvictError`] surfaces as
//! [`StepError::KvExhausted`].
//!
//! **Cache modes.** The cache stores K/V rows in one of three
//! [`KvCacheMode`]s: `f32` (exact, the default), `int8`, or `int4` with the
//! paper's per-head power-of-two group decomposition. Quantized modes
//! quantize each row at append time against the plane's running `TMax`
//! (per-channel bias subtracted, as in the calibration path). When a new
//! row's residual magnitude exceeds `TMax`, the plane requantizes by the
//! paper's runtime rule: double `TMax`, advance every element's group
//! index, and 1-bit-shift only the values the index cannot absorb (see
//! `tender_tensor::QuantRows`) — applied to the live tail page only;
//! sealed pages keep the scale snapshot they were written under, which is
//! self-consistent and strictly more accurate than reshifting them.
//!
//! **Read paths.** Cached attention is one call into the cache per
//! position: it appends the position's K/V and then, per head, reads the
//! scores, takes the softmax and reads the value row — the cache, not the
//! caller, picks the read, and appending before reading is what keeps a
//! multi-token `extend` bit-identical to token-by-token `step`. The cache is
//! read in place, one page walk per product, never materializing a
//! `len × head_dim` plane. Quantized planes are read in the integer domain
//! (whatever the scheme): the query (and attention-probability) row is
//! quantized to 8-bit codes and dotted against the packed K/V codes; a page
//! is decoded once into codes pre-shifted by their group's α = 2 combine
//! weight, so each dot is one `i32` accumulator and one application of the
//! page's scale. f32-mode planes are dotted where their pages lie; a page
//! the arena demoted under them is dequantized into the cache's read
//! scratch by the same shift and one multiply by its smallest scale. A
//! scheme that quantizes act×act products reads an f32-mode cache through
//! the gathered (dequantized) planes, which its kernel consumes whole; the
//! gathered read is also the hidden test oracle of both in-place reads
//! (`set_kv_read_path`): bit-identical to the default on an f32-mode
//! cache, numerically close but not bit-equal on a quantized one (the
//! integer read rounds the query/probability rows). Either way decode stays
//! bit-deterministic at any thread count.
//!
//! **Parity guarantee.** In `f32` mode with an unbounded arena,
//! `prefill(&t[..n]); step(t[n]); …; step(t[m-1])` produces logits
//! bit-identical to the last row of a full-sequence `forward(&t[..m])` for
//! every row-independent scheme (reference, FP32, FP16, integer
//! granularities, Tender — whose explicit Eq. 1 kernel is a kernel-level
//! oracle, not a scheme option), at any thread count: f32 pages
//! store the exact appended rows and the read walks them in position order
//! on the f32 matmul's own accumulation chains, so paging is invisible to
//! the numerics. Forked sessions inherit
//! the guarantee — a CoW copy is byte-identical to the page it replaces.
//! Quantized cache modes (and capacity-forced demotion) trade bit-parity
//! for footprint by design; they remain bit-deterministic for a fixed mode
//! at any thread count.
//!
//! [`prefill`]: DecodeSession::prefill
//! [`step`]: DecodeSession::step
//! [`with_cache_mode`]: DecodeSession::with_cache_mode
//! [`KvArena`]: tender_tensor::KvArena
//! [`EvictError`]: tender_tensor::EvictError

pub use crate::batch::{BatchEngine, BatchError};
pub use crate::kv::{
    demote_payload, drain_demotions, settle_iteration, DrainStats, KvCache, KvCacheMode,
    KvReadPath, KvTierStats,
};
pub use crate::pipeline::ModelRef;
pub use crate::session::{greedy_token, step_stacked, DecodeSession, StepError};
