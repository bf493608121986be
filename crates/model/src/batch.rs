//! [`BatchEngine`]: many [`DecodeSession`]s advanced together by one
//! batch iteration.

use std::error::Error;
use std::fmt;
use std::sync::{Mutex, MutexGuard};

use tender_metrics::engine as metrics;
use tender_tensor::{pool, EvictError, KvArena, Matrix};

use crate::kv::drain_demotions;
use crate::session::{step_stacked, DecodeSession, StepError};

/// Why a [`BatchEngine`] call could not run as a whole.
///
/// Per-session failures (a single slot's [`StepError`]) are *not* batch
/// errors — [`BatchEngine::try_step_all`] reports those per slot so one
/// full session cannot discard every other session's logits. `BatchError`
/// covers the two batch-level cases: a structurally malformed call
/// (argument length ≠ session count) and, for the collapsed
/// [`BatchEngine::step_all`] signature, the lowest-indexed slot's error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchError {
    /// The caller passed one argument per session but the counts differ.
    LengthMismatch {
        /// Sessions under management.
        expected: usize,
        /// Arguments actually supplied.
        got: usize,
    },
    /// A per-session step failed (collapsed form; see [`BatchEngine::step_all`]).
    Step(StepError),
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::LengthMismatch { expected, got } => {
                write!(f, "batch call expects {expected} arguments, got {got}")
            }
            Self::Step(e) => write!(f, "batch step failed: {e}"),
        }
    }
}

impl Error for BatchError {}

impl From<StepError> for BatchError {
    fn from(e: StepError) -> Self {
        Self::Step(e)
    }
}

/// Runs multiple [`DecodeSession`]s through the shared worker pool.
///
/// Every decode entry point — [`try_step_all`], [`step_all`],
/// [`resume_greedy`], [`generate_greedy`] — advances the batch through the
/// same iteration: a sequential boundary that settles each arena's byte
/// budget in session order, then one `pool::par_map` over contiguous
/// *groups* of sessions, each group one [`step_stacked`] — its sessions'
/// decode rows share one product per weight site. Results come back in
/// session order, no append can contend for a byte cap inside the parallel
/// phase, and a stacked row is bit-identical to a solo step, so output is
/// deterministic at any thread count (which only decides how the batch is
/// cut into groups) whether the sessions share one capped arena or own
/// private ones.
///
/// [`try_step_all`]: BatchEngine::try_step_all
/// [`step_all`]: BatchEngine::step_all
/// [`resume_greedy`]: BatchEngine::resume_greedy
/// [`generate_greedy`]: BatchEngine::generate_greedy
pub struct BatchEngine<'m> {
    slots: Vec<Mutex<DecodeSession<'m>>>,
    /// The distinct arenas the sessions draw pages from, in first-use
    /// order, each with its sessions' indices ascending.
    arenas: Vec<(KvArena, Vec<usize>)>,
}

impl<'m> BatchEngine<'m> {
    /// Wraps the given sessions (typically fresh ones, one per prompt).
    pub fn new(sessions: Vec<DecodeSession<'m>>) -> Self {
        let mut arenas: Vec<(KvArena, Vec<usize>)> = Vec::new();
        for (i, session) in sessions.iter().enumerate() {
            match arenas
                .iter_mut()
                .find(|(a, _)| a.same_arena(session.arena()))
            {
                Some((_, members)) => members.push(i),
                None => arenas.push((session.arena().clone(), vec![i])),
            }
        }
        Self {
            slots: sessions.into_iter().map(Mutex::new).collect(),
            arenas,
        }
    }

    /// `n` copy-on-write forks of a prefilled template session — the
    /// shared-prefix batch shape: the template's prompt is prefilled once
    /// and every fork shares its pages until it diverges.
    pub fn forked(template: &DecodeSession<'m>, n: usize) -> Self {
        Self::new((0..n).map(|_| template.fork()).collect())
    }

    fn session(&self, i: usize) -> MutexGuard<'_, DecodeSession<'m>> {
        self.slots[i].lock().expect("session lock")
    }

    fn check_len(&self, got: usize) -> Result<(), BatchError> {
        let expected = self.slots.len();
        if got == expected {
            Ok(())
        } else {
            Err(BatchError::LengthMismatch { expected, got })
        }
    }

    /// Prefills session `i` with `prompts[i]` in parallel, returning each
    /// session's full-prompt logits in session order. Parallel prefills
    /// contend for a shared byte cap in pool order; on a capped shared
    /// arena use [`BatchEngine::generate_greedy`], which prefills in
    /// session order.
    ///
    /// # Errors
    ///
    /// Returns [`BatchError::LengthMismatch`] when the prompt count
    /// differs from the session count — a malformed caller must not be
    /// able to abort a serving loop with a panic.
    pub fn prefill_all(&mut self, prompts: &[Vec<usize>]) -> Result<Vec<Matrix>, BatchError> {
        self.check_len(prompts.len())?;
        Ok(pool::par_map(self.slots.len(), |i| {
            self.session(i).prefill(&prompts[i])
        }))
    }

    /// The batch iteration: feeds `tokens[i]` to session `i` (sessions
    /// with `None` sit the iteration out) and returns each fed session's
    /// own `Result`.
    ///
    /// Sessions sharing a byte-capped arena compete for one budget, which
    /// is only deterministic if the cap is never contended *inside* the
    /// parallel phase. So each arena's budget is settled first, at a
    /// sequential boundary:
    ///
    /// 1. advance the arena clock (new demotion epoch);
    /// 2. price each live session's append exactly
    ///    ([`KvCache::next_append_alloc_bytes`](crate::kv::KvCache::next_append_alloc_bytes):
    ///    page opens and shared-tail CoW are the only allocations a single
    ///    append can make);
    /// 3. drain the demotion queue ([`drain_demotions`]) until the
    ///    watermark is respected *and* the whole step fits;
    /// 4. reserve each session's need against the live headroom in session
    ///    order, demoting that session's own pages when short; a session
    ///    still short at its floor is refused with
    ///    [`StepError::KvExhausted`] and not stepped;
    /// 5. step every other fed session: the survivors, in session order,
    ///    are cut into contiguous groups of `⌈survivors / threads⌉` and
    ///    `pool::par_map` runs one [`step_stacked`] per group — no append
    ///    can now hit the cap, so no demotion happens off-schedule. At one
    ///    thread the whole batch is one stack (each weight operand is
    ///    streamed once per iteration); at `threads ≥ survivors` every
    ///    group is one session. Equal group sizes make the slowest group as
    ///    short as any split into `threads` groups could, with as few
    ///    passes over the weights as that allows.
    ///
    /// Every decision in 1–4 depends only on session order, queue keys,
    /// and byte arithmetic, and a row's bits do not depend on which rows
    /// it is stacked with, so results are byte-identical at any thread
    /// count. On an uncapped arena every need fits and the drain has no
    /// deficit: the boundary decides nothing.
    fn iterate(&self, tokens: &[Option<usize>]) -> Vec<Option<Result<Matrix, StepError>>> {
        let mut refused: Vec<Option<EvictError>> = vec![None; self.slots.len()];
        for (arena, members) in &self.arenas {
            arena.advance_clock();
            let needs: Vec<(usize, u64)> = members
                .iter()
                .filter(|&&i| tokens[i].is_some())
                .map(|&i| (i, self.session(i).cache().next_append_alloc_bytes()))
                .collect();
            drain_demotions(arena, needs.iter().map(|&(_, need)| need).sum());
            let mut committed = 0u64;
            for (i, need) in needs {
                match self.session(i).cache().reserve_next_append(need, committed) {
                    Ok(()) => committed += need,
                    Err(e) => refused[i] = Some(e),
                }
            }
        }
        let stepping: Vec<usize> = (0..self.slots.len())
            .filter(|&i| tokens[i].is_some() && refused[i].is_none())
            .collect();
        let per_group = stepping.len().div_ceil(pool::current_threads()).max(1);
        let groups: Vec<&[usize]> = stepping.chunks(per_group).collect();
        let stepped = pool::par_map(groups.len(), |g| {
            let mut guards: Vec<_> = groups[g].iter().map(|&i| self.session(i)).collect();
            let mut stack: Vec<&mut DecodeSession<'m>> =
                guards.iter_mut().map(|guard| &mut **guard).collect();
            let fed: Vec<usize> = groups[g].iter().filter_map(|&i| tokens[i]).collect();
            step_stacked(&mut stack, &fed)
        });
        let mut stepped = stepped.into_iter().flatten();
        (0..self.slots.len())
            .map(|i| {
                tokens[i]?;
                Some(match refused[i] {
                    Some(e) => Err(StepError::KvExhausted(e)),
                    None => stepped.next().expect("one result per stepped session"),
                })
            })
            .collect()
    }

    /// Steps session `i` with `tokens[i]` through one batch iteration,
    /// returning each session's own `Result` in session order: one slot
    /// hitting `SequenceFull` (or any other [`StepError`]) does not
    /// discard the logits every other session just computed.
    ///
    /// # Errors
    ///
    /// Returns [`BatchError::LengthMismatch`] when the token count differs
    /// from the session count; per-session failures come back inside the
    /// `Vec`.
    #[allow(clippy::type_complexity)]
    pub fn try_step_all(
        &mut self,
        tokens: &[usize],
    ) -> Result<Vec<Result<Matrix, StepError>>, BatchError> {
        self.check_len(tokens.len())?;
        let fed: Vec<Option<usize>> = tokens.iter().copied().map(Some).collect();
        Ok(self
            .iterate(&fed)
            .into_iter()
            .map(|r| r.expect("every session was fed"))
            .collect())
    }

    /// Collapsed form of [`BatchEngine::try_step_all`]: all logits in
    /// session order, or the lowest-indexed failing session's error.
    ///
    /// # Errors
    ///
    /// [`BatchError::LengthMismatch`] for a malformed call, or
    /// [`BatchError::Step`] carrying the lowest-indexed slot's
    /// [`StepError`]. Callers that need the surviving sessions' logits
    /// should use [`BatchEngine::try_step_all`].
    pub fn step_all(&mut self, tokens: &[usize]) -> Result<Vec<Matrix>, BatchError> {
        self.try_step_all(tokens)?
            .into_iter()
            .map(|r| r.map_err(BatchError::from))
            .collect()
    }

    /// Prefills every session with its prompt, then greedily decodes up to
    /// `steps` tokens per session exactly as
    /// [`BatchEngine::resume_greedy`] does from the prefill's argmax.
    ///
    /// Prefill runs in session order with each arena's demotion queue
    /// drained in between, so demote-and-retry pressure on a shared cap
    /// resolves identically at any thread count (the GEMMs inside each
    /// prefill still use the pool). A session whose prompt cannot fit even
    /// fully demoted is truncated before its first token.
    ///
    /// # Errors
    ///
    /// Returns [`BatchError::LengthMismatch`] when the prompt count
    /// differs from the session count, and [`BatchError::Step`] for the
    /// first prompt that is empty, longer than the context window or out of
    /// vocabulary (sessions before it are already prefilled).
    pub fn generate_greedy(
        &mut self,
        prompts: &[Vec<usize>],
        steps: usize,
    ) -> Result<Vec<Vec<usize>>, BatchError> {
        self.check_len(prompts.len())?;
        let mut next = Vec::with_capacity(prompts.len());
        for (i, prompt) in prompts.iter().enumerate() {
            let mut session = self.session(i);
            session.arena().advance_clock();
            next.push(match session.try_prefill(prompt) {
                Ok(logits) => Some(session.greedy_next(&logits)),
                Err(StepError::KvExhausted(_)) => {
                    metrics::DECODE_TRUNCATED.incr();
                    None
                }
                Err(refusal) => return Err(refusal.into()),
            });
            drain_demotions(session.arena(), 0);
        }
        Ok(self.greedy_rollout(next, steps))
    }

    /// Greedy decode for *already prefilled* sessions (typically forks of
    /// a shared-prefix template): session `i` starts from seed token
    /// `seeds[i]` and decodes up to `steps` tokens (argmax, ties to the
    /// lowest id; a row with no finite logit degrades to the deterministic
    /// fallback token and is counted — see `decode_argmax_sanitized`), one
    /// batch iteration per token.
    ///
    /// A rollout that hits a [`StepError`] — `SequenceFull` when it would
    /// exceed the context window, `KvExhausted` when a capped arena
    /// refuses it at the floor — is *truncated* at the failing step: the
    /// session keeps the tokens decoded so far (the refused token
    /// included) and the truncation is counted in
    /// `metrics::engine::DECODE_TRUNCATED`, so one over-long rollout
    /// cannot poison the batch.
    ///
    /// # Errors
    ///
    /// Returns [`BatchError::LengthMismatch`] when the seed count differs
    /// from the session count.
    pub fn resume_greedy(
        &mut self,
        seeds: &[usize],
        steps: usize,
    ) -> Result<Vec<Vec<usize>>, BatchError> {
        self.check_len(seeds.len())?;
        Ok(self.greedy_rollout(seeds.iter().copied().map(Some).collect(), steps))
    }

    /// Up to `steps` batch iterations with greedy feedback from `next`
    /// (`None` = the session is already retired).
    fn greedy_rollout(&self, mut next: Vec<Option<usize>>, steps: usize) -> Vec<Vec<usize>> {
        let mut outs: Vec<Vec<usize>> = next.iter().map(|_| Vec::with_capacity(steps)).collect();
        for _ in 0..steps {
            if next.iter().all(Option::is_none) {
                break;
            }
            for (i, result) in self.iterate(&next).into_iter().enumerate() {
                let (Some(token), Some(result)) = (next[i], result) else {
                    continue;
                };
                outs[i].push(token);
                next[i] = match result {
                    Ok(logits) => Some(self.session(i).greedy_next(&logits)),
                    Err(_) => {
                        metrics::DECODE_TRUNCATED.incr();
                        None
                    }
                };
            }
        }
        outs
    }

    /// Consumes the engine, returning its sessions in order.
    pub fn into_sessions(self) -> Vec<DecodeSession<'m>> {
        self.slots
            .into_iter()
            .map(|m| m.into_inner().expect("session lock"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::KvCacheMode;
    use crate::test_support::{paged_arena, tiny, tokens};
    use tender_tensor::ArenaConfig;

    /// One session's greedy rollout from `next`, stepped by hand: what the
    /// batch paths must reproduce.
    fn serial_rollout(
        session: &mut DecodeSession<'_>,
        mut next: usize,
        steps: usize,
    ) -> Vec<usize> {
        let mut out = Vec::new();
        for _ in 0..steps {
            out.push(next);
            let logits = session.step(next).expect("in-window step");
            next = session.greedy_next(&logits);
        }
        out
    }

    #[test]
    fn shared_capped_batch_matches_private_arena_rollouts_when_unpressured() {
        let (shape, model) = tiny();
        let reference = model.reference();
        let prompts: Vec<Vec<usize>> = (0..3).map(|s| tokens(5 + s, shape.vocab, 20 + s)).collect();
        let steps = 6;

        // Private, unbounded arenas: the boundary has nothing to decide.
        let solo_sessions: Vec<_> = (0..3).map(|_| DecodeSession::new(&reference)).collect();
        let mut solo = BatchEngine::new(solo_sessions);
        let want = solo.generate_greedy(&prompts, steps);

        // One shared, capped (but ample) arena: the boundary prices and
        // reserves every append, and must not change a token while the
        // budget is never contended.
        let arena = KvArena::new(ArenaConfig {
            capacity_bytes: Some(64 << 20),
            ..ArenaConfig::default()
        });
        let shared_sessions: Vec<_> = (0..3)
            .map(|_| DecodeSession::with_arena(&reference, KvCacheMode::F32, &arena))
            .collect();
        let mut shared = BatchEngine::new(shared_sessions);
        let got = shared.generate_greedy(&prompts, steps);
        assert!(got.is_ok());
        assert_eq!(got, want, "a shared cap changed an unpressured rollout");
        assert_eq!(arena.stats().evict_failures, 0);
    }

    #[test]
    fn batch_engine_matches_serial_sessions() {
        let (shape, model) = tiny();
        let reference = model.reference();
        let prompts: Vec<Vec<usize>> = (0..3).map(|s| tokens(6 + s, shape.vocab, s)).collect();

        let serial: Vec<Vec<usize>> = prompts
            .iter()
            .map(|p| {
                let mut session = DecodeSession::new(&reference);
                let logits = session.prefill(p);
                let first = session.greedy_next(&logits);
                serial_rollout(&mut session, first, 5)
            })
            .collect();

        let sessions = prompts
            .iter()
            .map(|_| DecodeSession::new(&reference))
            .collect();
        let mut engine = BatchEngine::new(sessions);
        let batched = engine
            .generate_greedy(&prompts, 5)
            .expect("one prompt per session");
        assert_eq!(batched, serial);
        for (i, s) in engine.into_sessions().into_iter().enumerate() {
            assert_eq!(s.len(), prompts[i].len() + 5);
        }
    }

    #[test]
    fn forked_batch_matches_unshared_rollouts() {
        // BatchEngine::forked + resume_greedy must reproduce the exact
        // transcripts of sessions that never shared a page.
        let (shape, model) = tiny();
        let reference = model.reference();
        let arena = paged_arena(4, None, 1.0);
        let prompt = tokens(6, shape.vocab, 9);
        let seeds: Vec<usize> = (0..3).map(|s| (s * 13 + 1) % shape.vocab).collect();

        let serial: Vec<Vec<usize>> = seeds
            .iter()
            .map(|&seed| {
                let mut session = DecodeSession::new(&reference);
                session.prefill(&prompt);
                serial_rollout(&mut session, seed, 4)
            })
            .collect();

        let mut template = DecodeSession::with_arena(&reference, KvCacheMode::F32, &arena);
        template.prefill(&prompt);
        let mut engine = BatchEngine::forked(&template, seeds.len());
        let shared = engine
            .resume_greedy(&seeds, 4)
            .expect("one seed per session");
        assert_eq!(shared, serial, "prefix sharing changed a transcript");
    }

    #[test]
    fn try_step_all_isolates_per_session_errors() {
        let (shape, model) = tiny();
        let reference = model.reference();
        // Session 0 is at the context window; session 1 has room.
        let full = tokens(shape.max_seq, shape.vocab, 7);
        let short = tokens(4, shape.vocab, 3);

        let mut serial = DecodeSession::new(&reference);
        serial.prefill(&short);
        let expected = serial.step(1).expect("in-window step");

        let mut s0 = DecodeSession::new(&reference);
        s0.prefill(&full);
        let mut s1 = DecodeSession::new(&reference);
        s1.prefill(&short);
        let mut engine = BatchEngine::new(vec![s0, s1]);
        let results = engine.try_step_all(&[1, 1]).expect("well-formed call");
        assert_eq!(results.len(), 2);
        assert_eq!(
            results[0],
            Err(StepError::SequenceFull {
                max_seq: shape.max_seq
            })
        );
        // The surviving session's logits are not discarded and match the
        // serial rollout bit-for-bit.
        let logits = results[1].as_ref().expect("session 1 survives");
        assert_eq!(logits.shape(), expected.shape());
        for c in 0..expected.cols() {
            assert_eq!(logits[(0, c)], expected[(0, c)]);
        }

        // The collapsed legacy form reports the lowest-indexed error.
        let mut s0 = DecodeSession::new(&reference);
        s0.prefill(&full);
        let mut s1 = DecodeSession::new(&reference);
        s1.prefill(&short);
        let mut engine = BatchEngine::new(vec![s0, s1]);
        assert_eq!(
            engine.step_all(&[1, 1]),
            Err(BatchError::Step(StepError::SequenceFull {
                max_seq: shape.max_seq
            }))
        );
    }

    #[test]
    fn batch_calls_report_length_mismatch_instead_of_panicking() {
        let (shape, model) = tiny();
        let reference = model.reference();
        let mut engine = BatchEngine::new(vec![
            DecodeSession::new(&reference),
            DecodeSession::new(&reference),
        ]);
        let mismatch = BatchError::LengthMismatch {
            expected: 2,
            got: 1,
        };
        assert_eq!(
            engine
                .prefill_all(&[tokens(3, shape.vocab, 1)])
                .expect_err("mismatched prefill must fail"),
            mismatch
        );
        assert_eq!(engine.try_step_all(&[0]).err(), Some(mismatch));
        assert_eq!(engine.step_all(&[0]).err(), Some(mismatch));
        assert_eq!(
            engine.generate_greedy(&[tokens(3, shape.vocab, 1)], 2),
            Err(mismatch)
        );
        assert_eq!(engine.resume_greedy(&[0], 2), Err(mismatch));
        assert!(mismatch.to_string().contains("expects 2 arguments"));
    }

    #[test]
    fn generate_greedy_reports_a_bad_prompt_instead_of_panicking() {
        let (shape, model) = tiny();
        let reference = model.reference();
        let mut engine = BatchEngine::new(vec![
            DecodeSession::new(&reference),
            DecodeSession::new(&reference),
        ]);
        let bad = StepError::TokenOutOfVocab {
            token: shape.vocab,
            vocab: shape.vocab,
        };
        assert_eq!(
            engine.generate_greedy(&[tokens(3, shape.vocab, 1), vec![shape.vocab]], 2),
            Err(BatchError::Step(bad))
        );
    }

    #[test]
    fn generate_greedy_truncates_at_context_window() {
        let (shape, model) = tiny();
        let reference = model.reference();
        // Session 0's prompt leaves room for only 4 cache appends; session
        // 1 has plenty. The over-long rollout truncates instead of
        // panicking inside the pool task, and the batch survives.
        let prompts = vec![
            tokens(shape.max_seq - 4, shape.vocab, 5),
            tokens(6, shape.vocab, 2),
        ];
        let sessions = prompts
            .iter()
            .map(|_| DecodeSession::new(&reference))
            .collect();
        let mut engine = BatchEngine::new(sessions);
        let before = metrics::DECODE_TRUNCATED.get();
        let out = engine
            .generate_greedy(&prompts, 10)
            .expect("one prompt per session");
        assert_eq!(metrics::DECODE_TRUNCATED.get(), before + 1);
        // 4 in-window extensions plus the final predicted-but-unappended
        // token; the healthy session decodes all 10.
        assert_eq!(out[0].len(), 5);
        assert_eq!(out[1].len(), 10);
        let sessions = engine.into_sessions();
        assert_eq!(sessions[0].len(), shape.max_seq);
        assert_eq!(sessions[1].len(), 16);
    }
}
