//! [`DecodeSession`]: one in-flight generation — a model reference plus
//! its paged KV cache. `prefill` fills an empty cache in one full-sequence
//! pass; after that there is one cached forward (`forward_lanes`, over
//! `pipeline::forward_cached`), reached three ways: `extend` is one session
//! and any number of tokens, `step` is `extend` of one, and
//! [`step_stacked`] is one token each for several sessions — their decode
//! rows share one product per weight site.

use std::error::Error;
use std::fmt;

use tender_metrics::engine as metrics;
use tender_tensor::{EvictError, KvArena, Matrix};

use crate::kv::{KvCache, KvCacheMode, KvReadPath};
use crate::pipeline::{self, Lane, ModelRef};

/// Why a [`DecodeSession::try_prefill`], [`DecodeSession::extend`] (or
/// `step`) could not run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepError {
    /// The session holds no cached positions yet — prefill first.
    NotPrefilled,
    /// A prefill was handed no tokens.
    EmptyRun,
    /// The run's last position would exceed the model's
    /// positional-embedding table (`max_seq` rows). The cache *storage*
    /// could grow further; the model cannot embed the position, so the
    /// session refuses the run.
    SequenceFull {
        /// The model's context window.
        max_seq: usize,
    },
    /// The fed token id is outside the vocabulary.
    TokenOutOfVocab {
        /// The offending token id.
        token: usize,
        /// The model's vocabulary size.
        vocab: usize,
    },
    /// The KV arena is at its byte cap and the session's demotion ladder
    /// has reached the int4 floor — no page could be allocated for the
    /// appended position.
    KvExhausted(EvictError),
}

impl fmt::Display for StepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NotPrefilled => write!(f, "step requires a prefilled session"),
            Self::EmptyRun => write!(f, "empty token sequence"),
            Self::SequenceFull { max_seq } => {
                write!(f, "sequence is full: the context window is {max_seq}")
            }
            Self::TokenOutOfVocab { token, vocab } => {
                write!(f, "token id {token} out of vocabulary (size {vocab})")
            }
            Self::KvExhausted(e) => write!(f, "kv cache append failed: {e}"),
        }
    }
}

impl Error for StepError {}

/// One in-flight generation: a model reference plus its paged KV cache.
///
/// The aggregate footprint gauges (`metrics::engine::KV_CACHE_BYTES` /
/// `KV_CACHE_ALLOCATED_BYTES`) are maintained by the arena (page bytes,
/// shared pages counted once) and the cache (per-plane constants), so they
/// track live physical bytes across sessions — forking a session adds only
/// what it physically adds.
///
/// `clone()` (and its named alias [`DecodeSession::fork`]) is a
/// copy-on-write fork: the clone shares the cache's pages and copies a
/// page only on divergent append.
#[derive(Clone)]
pub struct DecodeSession<'m> {
    model: ModelRef<'m>,
    cache: KvCache,
    last_step_macs: u64,
    last_step_kv_int_macs: u64,
}

impl<'m> DecodeSession<'m> {
    /// A fresh session over `model` with an empty `f32` cache on a
    /// private, unbounded arena (the bit-parity path).
    pub fn new(model: impl Into<ModelRef<'m>>) -> Self {
        Self::with_cache_mode(model, KvCacheMode::F32)
    }

    /// A fresh session whose cache stores K/V in `mode`, on a private,
    /// unbounded arena.
    pub fn with_cache_mode(model: impl Into<ModelRef<'m>>, mode: KvCacheMode) -> Self {
        Self::with_arena(model, mode, &KvArena::default())
    }

    /// A fresh session drawing cache pages from a shared `arena` —
    /// the serving configuration: many sessions, one page pool, prefix
    /// sharing via [`DecodeSession::fork`]. Steps only *queue* the pages
    /// they seal: `BatchEngine` and the scheduler drain the queue at their
    /// iteration boundaries, and a caller stepping a capped session by
    /// hand must do the same — [`settle_iteration`] with the caches about
    /// to append, or `&[]` — or the arena's watermark is never acted on.
    ///
    /// [`settle_iteration`]: crate::engine::settle_iteration
    pub fn with_arena(model: impl Into<ModelRef<'m>>, mode: KvCacheMode, arena: &KvArena) -> Self {
        let model = model.into();
        let cache = KvCache::with_arena(model.shape(), mode, arena);
        Self {
            model,
            cache,
            last_step_macs: 0,
            last_step_kv_int_macs: 0,
        }
    }

    /// Copy-on-write fork (a named alias for `clone()`): the fork shares
    /// every cache page with this session and copies a page only when one
    /// owner appends to it — the prefill-once, fork-many serving shape.
    pub fn fork(&self) -> Self {
        self.clone()
    }

    /// The arena this session's cache draws pages from.
    pub fn arena(&self) -> &KvArena {
        self.cache.arena()
    }

    /// Selects the cache read path (in place by default, gathered under
    /// [`KvReadPath::Dequant`]); see [`KvCache::set_read_path`].
    pub fn set_kv_read_path(&mut self, path: KvReadPath) {
        self.cache.set_read_path(path);
    }

    /// Ingests the prompt in one full-sequence pass, filling the KV cache,
    /// and returns next-token logits for every prompt position
    /// (`n × vocab` — the last row seeds generation).
    ///
    /// Prefill logits are exact in every cache mode (the full-sequence
    /// pass attends to its own fresh K/V); quantized modes only affect
    /// what later [`step`]s read back from the cache.
    ///
    /// # Panics
    ///
    /// Panics if the session already holds cached positions, and on every
    /// refusal [`DecodeSession::try_prefill`] returns as a value: an empty,
    /// over-long or out-of-vocabulary prompt, or an arena that reaches its
    /// eviction floor mid-prompt.
    ///
    /// [`step`]: DecodeSession::step
    pub fn prefill(&mut self, tokens: &[usize]) -> Matrix {
        self.try_prefill(tokens).unwrap_or_else(|e| match e {
            StepError::KvExhausted(e) => panic!("kv arena exhausted during prefill: {e}"),
            e => panic!("prefill refused: {e}"),
        })
    }

    /// [`DecodeSession::prefill`], but what a caller's input or a full
    /// arena can cause comes back typed instead of as a panic (the
    /// admission-control path).
    ///
    /// # Errors
    ///
    /// Checked before the cache is touched: [`StepError::EmptyRun`],
    /// [`StepError::SequenceFull`] for a prompt longer than the model's
    /// `max_seq`, [`StepError::TokenOutOfVocab`] for the first out-of-range
    /// token id. [`StepError::KvExhausted`] when a page allocation fails at
    /// the arena's byte cap with nothing left to demote; the session's
    /// cache may then hold a partial prompt and callers should drop it.
    ///
    /// # Panics
    ///
    /// Panics if the session already holds cached positions — a caller
    /// bug, not an input.
    pub fn try_prefill(&mut self, tokens: &[usize]) -> Result<Matrix, StepError> {
        assert!(
            self.cache.is_empty(),
            "prefill requires an empty session; this one holds {} positions",
            self.cache.len()
        );
        if tokens.is_empty() {
            return Err(StepError::EmptyRun);
        }
        self.check_run(tokens)?;
        let _span = metrics::PREFILL_TIME.span();
        let hidden = pipeline::forward_internal(self.model, tokens, None, Some(&mut self.cache))
            .map_err(StepError::KvExhausted)?;
        metrics::PREFILLS.incr();
        metrics::PREFILL_TOKENS.add(tokens.len() as u64);
        Ok(pipeline::lm_head(self.model, &hidden))
    }

    /// Whether `tokens` can be embedded at the positions following the
    /// cache: the refusals every ingesting call makes before it touches
    /// anything.
    fn check_run(&self, tokens: &[usize]) -> Result<(), StepError> {
        let shape = self.model.shape();
        if self.cache.len() + tokens.len() > shape.max_seq {
            return Err(StepError::SequenceFull {
                max_seq: shape.max_seq,
            });
        }
        match tokens.iter().find(|&&t| t >= shape.vocab) {
            Some(&token) => Err(StepError::TokenOutOfVocab {
                token,
                vocab: shape.vocab,
            }),
            None => Ok(()),
        }
    }

    /// [`DecodeSession::check_run`] for a cached forward, which also needs
    /// a prefilled cache to attend against.
    pub(crate) fn check_extend(&self, tokens: &[usize]) -> Result<(), StepError> {
        if self.cache.is_empty() {
            return Err(StepError::NotPrefilled);
        }
        self.check_run(tokens)
    }

    /// Feeds one token at the next sequence position and returns its
    /// next-token logits (`1 × vocab`): [`DecodeSession::extend`] of one
    /// token.
    ///
    /// # Errors
    ///
    /// As [`DecodeSession::extend`].
    pub fn step(&mut self, token: usize) -> Result<Matrix, StepError> {
        self.extend(&[token])
    }

    /// Ingests `tokens` at the next sequence positions, attending against
    /// the cache, and returns the **last** token's next-token logits
    /// (`1 × vocab`; the LM head runs on that one row). Weight matmuls see
    /// one `M = tokens.len()` product per site; per layer, each row's K/V
    /// is appended and then that row attends to the cache, which is the
    /// order `step` uses — so `extend(a ++ b)`, `extend(a); extend(b)` and
    /// token-by-token `step` leave the same cache and return the same
    /// logits bit for bit, in every cache mode.
    ///
    /// # Errors
    ///
    /// Checked before the cache is touched, so a refused call leaves the
    /// session as it was: [`StepError::NotPrefilled`] on an empty session,
    /// [`StepError::SequenceFull`] when the last position would exceed the
    /// model's `max_seq` positional-embedding table (the cache storage
    /// could grow further, the model cannot embed the position), and
    /// [`StepError::TokenOutOfVocab`] for the first out-of-range token id.
    /// [`StepError::KvExhausted`] when the arena is at its byte cap with
    /// nothing left to demote; the cache may then hold part of the run and
    /// callers should drop the session.
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is empty.
    pub fn extend(&mut self, tokens: &[usize]) -> Result<Matrix, StepError> {
        assert!(!tokens.is_empty(), "empty token sequence");
        self.check_extend(tokens)?;
        let _span = metrics::DECODE_STEP_TIME.span();
        forward_lanes(&mut [self], &[tokens])
            .pop()
            .expect("one result per lane")
    }

    /// Cached positions so far (prompt + generated).
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// Whether the session has not been prefilled yet.
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }

    /// The session's KV cache.
    pub fn cache(&self) -> &KvCache {
        &self.cache
    }

    /// The greedy next token after the step (or prefill) that returned
    /// `logits`: [`greedy_token`] over their last row, at this session's
    /// position.
    pub fn greedy_next(&self, logits: &Matrix) -> usize {
        let vocab = self.model.shape().vocab;
        greedy_token(logits, logits.rows() - 1, self.len(), vocab)
    }

    /// Multiply-accumulates executed by the most recent [`step`] or
    /// [`extend`] call (summed over its tokens), measured from the operand
    /// shapes of the matmuls actually run (per-layer GEMMs and attention
    /// against the cache; embedding and LM head excluded, matching the
    /// simulator's `decode_step_gemms` model).
    ///
    /// [`step`]: DecodeSession::step
    /// [`extend`]: DecodeSession::extend
    pub fn last_step_macs(&self) -> u64 {
        self.last_step_macs
    }

    /// Multiply-accumulates the most recent [`step`] or `extend` call
    /// executed in the integer domain on packed KV codes (a subset of
    /// [`last_step_macs`]; zero in `f32` mode or on the dequantize
    /// read path). Cross-checked against the simulator's
    /// `kv_int_dot_macs` model.
    ///
    /// [`step`]: DecodeSession::step
    /// [`last_step_macs`]: DecodeSession::last_step_macs
    pub fn last_step_kv_int_macs(&self) -> u64 {
        self.last_step_kv_int_macs
    }
}

/// The one cached forward, over sessions of **one model** whose runs passed
/// [`DecodeSession::check_extend`]: session `i` ingests `runs[i]` as lane
/// `i`. Every layer's weight products run once over all lanes' rows; the
/// final norm and the LM head run once over the surviving lanes' last rows.
/// A lane refused at its arena's floor comes back
/// [`StepError::KvExhausted`] without touching the others' results.
fn forward_lanes(
    sessions: &mut [&mut DecodeSession<'_>],
    runs: &[&[usize]],
) -> Vec<Result<Matrix, StepError>> {
    let model = sessions[0].model;
    let mut lanes: Vec<Lane<'_>> = sessions
        .iter_mut()
        .zip(runs)
        .map(|(session, run)| Lane::new(&mut session.cache, run.len()))
        .collect();
    let h = pipeline::forward_cached(model, &runs.concat(), &mut lanes);
    let outcomes: Vec<_> = lanes
        .into_iter()
        .map(|lane| (lane.rows, lane.macs, lane.int_macs, lane.failed))
        .collect();

    let mut last_rows = Vec::with_capacity(sessions.len());
    let mut end = 0;
    for (session, &(rows, macs, int_macs, failed)) in sessions.iter_mut().zip(&outcomes) {
        end += rows;
        if failed.is_some() {
            continue;
        }
        session.last_step_macs = macs;
        session.last_step_kv_int_macs = int_macs;
        metrics::DECODE_STEPS.add(rows as u64);
        metrics::DECODE_MACS.add(macs);
        last_rows.push(end - 1);
    }
    let logits = (!last_rows.is_empty()).then(|| {
        let last = h.gather_rows(&last_rows);
        let w = model.w;
        let hidden = pipeline::apply_norm(&last, &w.final_gamma, &w.final_beta, w.shape.norm);
        pipeline::lm_head(model, &hidden)
    });
    let mut logits_rows = logits.iter().flat_map(Matrix::iter_rows);
    outcomes
        .into_iter()
        .map(|(_, _, _, failed)| match failed {
            Some(e) => Err(StepError::KvExhausted(e)),
            None => {
                let row = logits_rows
                    .next()
                    .expect("one logits row per surviving lane");
                Ok(Matrix::from_vec(1, row.len(), row.to_vec()).expect("one row"))
            }
        })
        .collect()
}

/// One decode step for several sessions at once: `tokens[i]` is fed to
/// `sessions[i]` exactly as [`DecodeSession::step`] would feed it — same
/// logits, same cache, same MAC counts, bit for bit — but the sessions'
/// rows are stacked into one `M = sessions` product per weight site, so a
/// layer's weights are streamed once per call instead of once per session.
/// Attention stays per session, against its own cache. Sessions are stacked
/// only with sessions of the same model object; a mixed slice is stepped
/// one model at a time.
///
/// Each session gets its own `Result`, as from `step`: the refusals `step`
/// makes before touching the cache ([`StepError::NotPrefilled`],
/// [`StepError::SequenceFull`], [`StepError::TokenOutOfVocab`]) are made
/// per session before *any* cache is touched and leave that session as it
/// was, and a session whose arena refuses an append mid-step is
/// [`StepError::KvExhausted`] (drop it) while the rest keep their logits.
///
/// # Panics
///
/// Panics if `tokens.len() != sessions.len()`.
pub fn step_stacked(
    sessions: &mut [&mut DecodeSession<'_>],
    tokens: &[usize],
) -> Vec<Result<Matrix, StepError>> {
    assert_eq!(sessions.len(), tokens.len(), "one token per session");
    let _span = metrics::DECODE_STEP_TIME.span();
    let mut results: Vec<Option<Result<Matrix, StepError>>> = sessions
        .iter()
        .zip(tokens)
        .map(|(session, token)| {
            let refusal = session.check_extend(std::slice::from_ref(token));
            refusal.err().map(Err)
        })
        .collect();
    metrics::STACKED_STEPS.incr();
    metrics::STACKED_ROWS.add(results.iter().filter(|r| r.is_none()).count() as u64);
    while let Some(first) = results.iter().position(Option::is_none) {
        let model = sessions[first].model;
        let members: Vec<usize> = (first..sessions.len())
            .filter(|&i| results[i].is_none() && sessions[i].model.same_model(&model))
            .collect();
        let mut stack: Vec<&mut DecodeSession<'_>> = sessions
            .iter_mut()
            .enumerate()
            .filter(|(i, _)| members.contains(i))
            .map(|(_, session)| &mut **session)
            .collect();
        let runs: Vec<&[usize]> = members
            .iter()
            .map(|&i| std::slice::from_ref(&tokens[i]))
            .collect();
        for (&i, result) in members.iter().zip(forward_lanes(&mut stack, &runs)) {
            results[i] = Some(result);
        }
    }
    results
        .into_iter()
        .map(|r| r.expect("every session was refused or stacked"))
        .collect()
}

/// Greedy argmax over a `1 × vocab` logits row; ties pick the lowest id.
/// Returns `None` when no logit is finite (every candidate is NaN or
/// ±infinity), which greedy decoding must treat as a degraded step rather
/// than silently emitting token 0.
fn argmax_row(logits: &Matrix, row: usize) -> Option<usize> {
    let mut best: Option<(usize, f32)> = None;
    for c in 0..logits.cols() {
        let v = logits[(row, c)];
        if !v.is_finite() {
            continue;
        }
        match best {
            Some((_, bv)) if v <= bv => {}
            _ => best = Some((c, v)),
        }
    }
    best.map(|(c, _)| c)
}

/// Greedy token choice with the degraded-row fallback: an all-non-finite
/// logits row counts through the degradation ladder
/// (`decode_argmax_sanitized`) and yields the deterministic token
/// `pos % vocab` — position-dependent (so a poisoned rollout does not
/// repeat one token forever) and independent of thread count.
///
/// Public so decode loops outside this crate (the serving scheduler)
/// share the exact fallback semantics instead of re-deriving them.
pub fn greedy_token(logits: &Matrix, row: usize, pos: usize, vocab: usize) -> usize {
    match argmax_row(logits, row) {
        Some(t) => t,
        None => {
            tender_metrics::faults::DECODE_ARGMAX_SANITIZED.incr();
            pos % vocab
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::settle_iteration;
    use crate::test_support::{f32_kv_bytes, paged_arena, tiny, tokens};
    use tender_tensor::arena::DEFAULT_PAGE_ROWS;

    #[test]
    fn resident_and_allocated_bytes_are_distinct_on_a_partial_page() {
        // The original accounting bug: `bytes()` reported len-based bytes
        // while storage was allocated in larger units. The two quantities
        // must be reported separately and differ until the page is full.
        let (shape, model) = tiny();
        let reference = model.reference();
        let mut session = DecodeSession::new(&reference);
        session.prefill(&tokens(5, shape.vocab, 1));
        let cache = session.cache();
        // 5 rows fit in the first default-size page of every plane.
        assert_eq!(cache.capacity(), DEFAULT_PAGE_ROWS);
        assert_eq!(
            cache.bytes(),
            (2 * 5 * shape.d_model * shape.layers * 4) as u64
        );
        assert_eq!(
            cache.allocated_bytes(),
            (2 * DEFAULT_PAGE_ROWS * shape.d_model * shape.layers * 4) as u64
        );
        assert!(cache.allocated_bytes() > cache.bytes());
    }

    #[test]
    fn quantized_modes_shrink_resident_bytes() {
        let (shape, model) = tiny();
        let reference = model.reference();
        let t = tokens(16, shape.vocab, 2);
        let mut bytes = Vec::new();
        for mode in KvCacheMode::ALL {
            let mut s = DecodeSession::with_cache_mode(&reference, mode);
            s.prefill(&t[..8]);
            for &tok in &t[8..] {
                s.step(tok).expect("step");
            }
            assert_eq!(s.cache().mode(), mode);
            assert_eq!(s.len(), 16);
            bytes.push(s.cache().bytes());
        }
        let (f32b, int8b, int4b) = (bytes[0], bytes[1], bytes[2]);
        // The acceptance bar: INT8 resident ≤ 0.3× of f32 at equal length.
        assert!(
            int8b * 10 <= f32b * 3,
            "int8 {int8b} vs f32 {f32b}: ratio above 0.3"
        );
        assert!(int4b < int8b, "int4 must be smaller than int8");
    }

    #[test]
    fn quantized_cache_mode_accounting_matches_formula() {
        let (shape, model) = tiny();
        let reference = model.reference();
        let dh = shape.head_dim();
        for mode in [KvCacheMode::Int8, KvCacheMode::Int4] {
            let mut s = DecodeSession::with_cache_mode(&reference, mode);
            s.prefill(&tokens(7, shape.vocab, 3));
            let planes = 2 * (shape.layers * shape.heads) as u64;
            // 7 rows on default 16-row pages: one page per plane, carrying
            // one scale snapshot per group.
            let pages = 7usize.div_ceil(DEFAULT_PAGE_ROWS) as u64;
            let expect = planes
                * (7 * mode.position_bytes(dh)
                    + pages * mode.num_groups() as u64 * 4
                    + mode.head_overhead_bytes(dh));
            assert_eq!(s.cache().bytes(), expect);
            let expect_alloc = planes
                * (pages
                    * (DEFAULT_PAGE_ROWS as u64 * mode.position_bytes(dh)
                        + mode.num_groups() as u64 * 4)
                    + mode.head_overhead_bytes(dh));
            assert_eq!(s.cache().allocated_bytes(), expect_alloc);
        }
    }

    #[test]
    fn quantized_cache_tracks_f32_decode() {
        // Quantized modes are approximate by design, but must stay close:
        // compare final-step logits against the f32 cache.
        let (shape, model) = tiny();
        let reference = model.reference();
        let t = tokens(12, shape.vocab, 5);
        let run = |mode: KvCacheMode| -> Matrix {
            let mut s = DecodeSession::with_cache_mode(&reference, mode);
            s.prefill(&t[..8]);
            let mut last = Matrix::zeros(1, 1);
            for &tok in &t[8..] {
                last = s.step(tok).expect("step");
            }
            last
        };
        let exact = run(KvCacheMode::F32);
        let norm: f32 = exact.row(0).iter().map(|x| x * x).sum::<f32>().sqrt();
        for (mode, bound) in [(KvCacheMode::Int8, 0.05f32), (KvCacheMode::Int4, 0.25f32)] {
            let approx = run(mode);
            let err: f32 = exact
                .row(0)
                .iter()
                .zip(approx.row(0))
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f32>()
                .sqrt();
            assert!(
                err <= bound * (norm + 1e-6),
                "{} cache drifted: relative error {} > {bound}",
                mode.label(),
                err / (norm + 1e-6)
            );
        }
    }

    #[test]
    fn prefill_cache_matches_full_forward_projections() {
        // After prefill, the cache must hold exactly the K rows the full
        // pass computes — checked indirectly: step() after prefill equals
        // the full forward's last row (the parity suite), and directly
        // here: cache length and geometry match the prompt.
        let (shape, model) = tiny();
        let reference = model.reference();
        let t = tokens(9, shape.vocab, 3);
        let mut session = DecodeSession::new(&reference);
        let logits = session.prefill(&t);
        assert_eq!(logits.shape(), (9, shape.vocab));
        assert_eq!(session.len(), 9);
        assert_eq!(session.cache().head_k(0, 0).shape(), (9, shape.head_dim()));
        // Prefill logits are the full forward's logits, bit for bit.
        assert_eq!(logits, reference.forward(&t));
    }

    #[test]
    fn step_matches_full_forward_last_row() {
        let (shape, model) = tiny();
        let reference = model.reference();
        let t = tokens(12, shape.vocab, 5);
        let mut session = DecodeSession::new(&reference);
        session.prefill(&t[..8]);
        let mut last = Matrix::zeros(1, 1);
        for &tok in &t[8..] {
            last = session.step(tok).expect("in-window step");
        }
        let full = reference.forward(&t);
        assert_eq!(last.row(0), full.row(11), "decode must be bit-identical");
    }

    #[test]
    fn forked_sessions_share_prefix_pages_and_diverge_bit_exactly() {
        // The serving shape: one template prefill, copy-on-write forks.
        let (shape, model) = tiny();
        let reference = model.reference();
        let arena = paged_arena(4, None, 1.0);
        let prompt = tokens(6, shape.vocab, 4);

        let mut template = DecodeSession::with_arena(&reference, KvCacheMode::F32, &arena);
        template.prefill(&prompt);
        let pages_after_prefill = arena.stats().pages_total();
        assert!(pages_after_prefill > 0);

        // Forks share every page: no new allocation at fork time.
        let mut a = template.fork();
        let mut b = template.fork();
        assert_eq!(arena.stats().pages_total(), pages_after_prefill);

        // Divergent appends copy only the shared tail page.
        let la = a.step(1 % shape.vocab).expect("in-window step");
        let lb = b.step(2 % shape.vocab).expect("in-window step");
        assert!(
            arena.stats().cow_copies > 0,
            "divergence must copy-on-write"
        );

        // Each fork's logits are bit-identical to a fresh session that
        // replayed the same tokens without any sharing.
        for (tok, logits) in [(1 % shape.vocab, &la), (2 % shape.vocab, &lb)] {
            let mut fresh = DecodeSession::new(&reference);
            fresh.prefill(&prompt);
            let expect = fresh.step(tok).expect("in-window step");
            assert_eq!(
                logits.row(0),
                expect.row(0),
                "fork diverged from the unshared rollout"
            );
        }

        // Dropping every owner returns all pages to the arena.
        drop(template);
        drop(a);
        drop(b);
        assert_eq!(arena.stats().pages_total(), 0, "refcount leak");
    }

    #[test]
    fn watermark_demotes_cold_pages_and_accounting_tracks_tiers() {
        let (shape, model) = tiny();
        let reference = model.reference();
        // Capacity holds the full f32 prompt exactly; a 0.5 watermark
        // forces sealed pages down the demotion ladder at the boundary
        // after prefill.
        let page_rows = 2usize;
        let prompt_len = 8usize;
        let full_f32 = f32_kv_bytes(&shape, prompt_len);
        let arena = paged_arena(page_rows, Some(full_f32), 0.5);
        let mut s = DecodeSession::with_arena(&reference, KvCacheMode::F32, &arena);
        s.prefill(&tokens(prompt_len, shape.vocab, 6));
        settle_iteration(&arena, &[]);

        let stats = arena.stats();
        assert!(stats.demoted_int8 > 0, "watermark never demoted a page");
        let tiers = s.cache().tier_stats();
        assert_eq!(tiers.pages_total(), stats.pages_total());
        assert_eq!(tiers.resident_total(), stats.resident_total());
        assert_eq!(tiers.allocated_total(), stats.allocated_total());
        assert!(
            stats.allocated_total() <= full_f32,
            "demotion must keep the arena under its cap"
        );

        // Demoted pages still decode to finite values and the session can
        // keep stepping.
        assert!(s.cache().head_k(0, 0).is_finite());
        s.step(1 % shape.vocab).expect("post-demotion step");
    }

    #[test]
    fn demote_and_retry_counts_retries_not_terminal_failures() {
        let (shape, model) = tiny();
        let reference = model.reference();
        let page_rows = 2usize;
        let prompt_len = 8usize;
        let full_f32 = f32_kv_bytes(&shape, prompt_len);
        // Watermark 1.0 disables proactive demotion: the only way this
        // prompt fits under 3/4 of its f32 footprint is the append path's
        // demote-and-retry loop eating refusals at the cap.
        let arena = paged_arena(page_rows, Some(full_f32 * 3 / 4), 1.0);
        let mut s = DecodeSession::with_arena(&reference, KvCacheMode::F32, &arena);
        s.try_prefill(&tokens(prompt_len, shape.vocab, 11))
            .expect("demote-and-retry must fit the prompt under a 3/4-f32 cap");
        let stats = arena.stats();
        assert!(stats.demoted_int8 > 0, "the cap never forced a demotion");
        assert!(
            stats.alloc_retries > 0,
            "refusals at the cap must count as retries"
        );
        assert_eq!(
            stats.evict_failures, 0,
            "a prefill that ultimately succeeds must not count terminal evict failures"
        );
    }

    #[test]
    fn arena_floor_is_a_typed_error() {
        let (shape, model) = tiny();
        let reference = model.reference();
        let arena = paged_arena(4, Some(8), 1.0);
        let mut s = DecodeSession::with_arena(&reference, KvCacheMode::Int4, &arena);
        let err = s
            .try_prefill(&tokens(4, shape.vocab, 2))
            .expect_err("an 8-byte arena cannot hold a page");
        assert!(err.to_string().contains("kv arena exhausted"), "{err}");
        assert!(arena.stats().evict_failures > 0);
    }

    #[test]
    fn step_surfaces_kv_exhaustion_as_typed_error() {
        let (shape, model) = tiny();
        let reference = model.reference();
        let dh = shape.head_dim();
        let planes = 2 * (shape.layers * shape.heads) as u64;
        let mode = KvCacheMode::Int4;
        // Capacity admits exactly one full int4 page per plane (rows plus
        // the committed per-group scale snapshot). Int4 is the ladder
        // floor, so the decode append that needs a second page has nothing
        // to demote and must surface the typed error.
        let page_rows = 4usize;
        let cap =
            planes * (page_rows as u64 * mode.position_bytes(dh) + mode.num_groups() as u64 * 4);
        let arena = paged_arena(page_rows, Some(cap), 1.0);
        let mut s = DecodeSession::with_arena(&reference, mode, &arena);
        s.try_prefill(&tokens(page_rows, shape.vocab, 3))
            .expect("the prompt fits exactly");
        assert!(matches!(
            s.step(1 % shape.vocab),
            Err(StepError::KvExhausted(_))
        ));
    }

    #[test]
    fn step_without_prefill_is_typed_error() {
        let (_, model) = tiny();
        let reference = model.reference();
        let mut session = DecodeSession::new(&reference);
        assert_eq!(session.step(0), Err(StepError::NotPrefilled));
    }

    #[test]
    fn step_past_max_seq_is_sequence_full() {
        let (shape, model) = tiny();
        let reference = model.reference();
        let mut session = DecodeSession::new(&reference);
        // Fill the whole context window via prefill, then one more step
        // must refuse: position max_seq has no positional embedding.
        session.prefill(&tokens(shape.max_seq, shape.vocab, 7));
        assert_eq!(
            session.step(1),
            Err(StepError::SequenceFull {
                max_seq: shape.max_seq
            })
        );
        // The cache is intact and still at max_seq positions.
        assert_eq!(session.len(), shape.max_seq);
    }

    #[test]
    fn step_rejects_out_of_vocab_token() {
        let (shape, model) = tiny();
        let reference = model.reference();
        let mut session = DecodeSession::new(&reference);
        session.prefill(&tokens(3, shape.vocab, 8));
        assert_eq!(
            session.step(shape.vocab),
            Err(StepError::TokenOutOfVocab {
                token: shape.vocab,
                vocab: shape.vocab
            })
        );
    }

    #[test]
    fn extend_refusals_leave_the_session_untouched() {
        let (shape, model) = tiny();
        let reference = model.reference();
        let mut empty = DecodeSession::new(&reference);
        assert_eq!(empty.extend(&[1, 2]), Err(StepError::NotPrefilled));
        assert!(empty.is_empty());

        let mut session = DecodeSession::with_cache_mode(&reference, KvCacheMode::Int8);
        session.prefill(&tokens(shape.max_seq - 3, shape.vocab, 7));
        let before = (session.len(), session.cache().bytes());
        // Three positions are left: the fourth token of a run has none.
        assert_eq!(
            session.extend(&[1, 2, 3, 4]),
            Err(StepError::SequenceFull {
                max_seq: shape.max_seq
            })
        );
        assert_eq!((session.len(), session.cache().bytes()), before);
        // A bad id at the end of a run refuses the rows before it too.
        assert_eq!(
            session.extend(&[1, 2, shape.vocab]),
            Err(StepError::TokenOutOfVocab {
                token: shape.vocab,
                vocab: shape.vocab
            })
        );
        assert_eq!((session.len(), session.cache().bytes()), before);
        let logits = session.extend(&[1, 2, 3]).expect("the run fits exactly");
        assert_eq!(logits.shape(), (1, shape.vocab));
        assert_eq!(session.len(), shape.max_seq);
    }

    #[test]
    fn try_prefill_refusals_are_typed_and_leave_the_session_empty() {
        let (shape, model) = tiny();
        let reference = model.reference();
        let mut session = DecodeSession::with_cache_mode(&reference, KvCacheMode::Int8);
        assert_eq!(session.try_prefill(&[]), Err(StepError::EmptyRun));
        assert_eq!(
            session.try_prefill(&tokens(shape.max_seq + 1, shape.vocab, 7)),
            Err(StepError::SequenceFull {
                max_seq: shape.max_seq
            })
        );
        assert_eq!(
            session.try_prefill(&[1, shape.vocab, 2]),
            Err(StepError::TokenOutOfVocab {
                token: shape.vocab,
                vocab: shape.vocab
            })
        );
        // Nothing was touched: the session is still empty and prefills.
        assert!(session.is_empty());
        assert_eq!(session.arena().stats().pages_total(), 0);
        let logits = session
            .try_prefill(&tokens(shape.max_seq, shape.vocab, 7))
            .expect("a window-sized prompt fits");
        assert_eq!(logits.shape(), (shape.max_seq, shape.vocab));
    }

    #[test]
    #[should_panic(expected = "prefill refused: token id 128 out of vocabulary")]
    fn prefill_keeps_its_panicking_contract() {
        let (shape, model) = tiny();
        let reference = model.reference();
        DecodeSession::new(&reference).prefill(&[shape.vocab]);
    }

    #[test]
    #[should_panic(expected = "empty token sequence")]
    fn extend_rejects_an_empty_run() {
        let (shape, model) = tiny();
        let reference = model.reference();
        let mut session = DecodeSession::new(&reference);
        session.prefill(&tokens(3, shape.vocab, 8));
        let _ = session.extend(&[]);
    }

    #[test]
    #[should_panic(expected = "empty session")]
    fn prefill_rejects_reuse() {
        let (shape, model) = tiny();
        let reference = model.reference();
        let mut session = DecodeSession::new(&reference);
        let t = tokens(4, shape.vocab, 6);
        session.prefill(&t);
        session.prefill(&t);
    }

    #[test]
    fn argmax_skips_non_finite_and_flags_hopeless_rows() {
        let m = Matrix::from_fn(1, 4, |_, c| match c {
            0 => f32::NAN,
            1 => 2.0,
            2 => f32::INFINITY,
            3 => 5.0,
            _ => unreachable!(),
        });
        // +inf is not a usable argmax (it cannot be ranked meaningfully
        // against other poisoned values); the best *finite* logit wins.
        assert_eq!(argmax_row(&m, 0), Some(3));

        let all_nan = Matrix::from_fn(1, 4, |_, _| f32::NAN);
        assert_eq!(argmax_row(&all_nan, 0), None);
        let all_neg_inf = Matrix::from_fn(1, 4, |_, _| f32::NEG_INFINITY);
        assert_eq!(argmax_row(&all_neg_inf, 0), None);

        // The greedy fallback is deterministic and position-dependent.
        let before = tender_metrics::faults::DECODE_ARGMAX_SANITIZED.get();
        assert_eq!(greedy_token(&all_nan, 0, 9, 4), 1);
        assert_eq!(greedy_token(&all_nan, 0, 10, 4), 2);
        assert_eq!(
            tender_metrics::faults::DECODE_ARGMAX_SANITIZED.get(),
            before + 2
        );
    }

    #[test]
    fn step_reports_measured_macs() {
        let (shape, model) = tiny();
        let reference = model.reference();
        let mut session = DecodeSession::new(&reference);
        session.prefill(&tokens(5, shape.vocab, 9));
        session.step(1).expect("in-window step");
        let d = shape.d_model;
        let f = shape.ffn_dim;
        let len = 6; // cache length after the append
        let per_layer =
            (3 * d * d + shape.heads * (shape.head_dim() * len) * 2 + d * d + d * f + f * d) as u64;
        assert_eq!(session.last_step_macs(), per_layer * shape.layers as u64);
    }
}
