//! The boundary drain of an arena's demotion queue — the one place
//! watermark pressure is acted on.

use tender_metrics::kv_arena as arena_metrics;
use tender_tensor::{pool, DemoteKey, KvArena, PageTier};

use super::quant::demote_if_smaller;

/// Outcome of one boundary drain of an arena's demotion queue.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrainStats {
    /// Pages requantized down the ladder.
    pub demoted: usize,
    /// Allocated bytes freed.
    pub freed_bytes: u64,
}

/// Candidates popped per drain round, bounding how far one round can
/// overshoot the watermark once it frees enough bytes.
const DRAIN_BATCH: usize = 16;

/// Drains `arena`'s demotion queue at a deterministic iteration boundary:
/// pops candidates in clock-key order while the arena sits above its
/// watermark or holds less than `headroom` bytes under its cap, and
/// requantizes each batch on pool workers, one page lock per candidate. A
/// candidate that died, got shared, or changed tier since it was enqueued
/// is revalidated away (its queue entry owns nothing, so a dead page
/// simply fails to upgrade); a page demoted to int8 is re-enqueued under
/// the current clock so a later drain can take it to the int4 floor.
///
/// Which pages end up demoted depends only on the queue's structural keys
/// and this boundary's byte deficit — never on pool interleaving — so
/// transcripts stay byte-identical at any thread count.
pub fn drain_demotions(arena: &KvArena, headroom: u64) -> DrainStats {
    let mut stats = DrainStats::default();
    let page_rows = arena.page_rows();
    while arena.over_watermark() || arena.headroom_bytes() < headroom {
        let batch = arena.pop_demotions(DRAIN_BATCH);
        if batch.is_empty() {
            break;
        }
        // One pool task per candidate; `demote_if_exclusive` commits only
        // if the page is still live, sole-owned, sealed and at the enqueued
        // tier. A non-shrinking requantization is skipped (and not
        // re-enqueued).
        let freed: Vec<Option<u64>> = pool::par_map(batch.len(), |i| {
            let cand = &batch[i];
            cand.page
                .demote_if_exclusive(cand.tier, |p| demote_if_smaller(p, page_rows))
        });
        for (cand, freed) in batch.into_iter().zip(freed) {
            let Some(freed) = freed else { continue };
            stats.demoted += 1;
            stats.freed_bytes += freed;
            arena_metrics::ASYNC_DEMOTED_PAGES.incr();
            arena_metrics::ASYNC_DEMOTED_BYTES.add(freed);
            let now_tier = cand
                .tier
                .demoted()
                .expect("a demoted page was above the floor");
            if now_tier != PageTier::Int4 {
                let key = DemoteKey {
                    clock: arena.clock(),
                    ..cand.key
                };
                arena.enqueue_demotion(key, cand.page, now_tier);
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::{demote_payload, KvCacheMode};
    use tender_tensor::{ArenaConfig, ArenaStats, Matrix, PagePayload};

    fn f32_page(page_rows: usize, cols: usize) -> PagePayload {
        PagePayload::F32(Matrix::from_fn(page_rows, cols, |r, c| {
            (r * cols + c) as f32 * 0.1
        }))
    }

    /// An arena whose cap leaves `slack` bytes over `held` and whose
    /// watermark sits at half of it, so a drain has a deficit.
    fn pressured_arena(page_rows: usize, held: u64, slack: u64) -> KvArena {
        KvArena::new(ArenaConfig {
            page_rows,
            capacity_bytes: Some(held + slack),
            watermark: 0.5,
            ..ArenaConfig::default()
        })
    }

    fn key(arena: &KvArena, page_idx: u32) -> DemoteKey {
        DemoteKey {
            clock: arena.clock(),
            owner: 0,
            plane: 0,
            page_idx,
        }
    }

    #[test]
    fn drain_skips_demotions_that_would_not_shrink() {
        let page_rows = 2usize;
        let int8_page = demote_payload(&f32_page(page_rows, 4), KvCacheMode::Int8);
        let before = int8_page.allocated_bytes(page_rows);
        // Premise: at 4 columns the int4 rung's per-group scale snapshot
        // outweighs its code savings, so the next rung would *grow*.
        assert!(
            demote_payload(&int8_page, KvCacheMode::Int4).allocated_bytes(page_rows) >= before,
            "geometry no longer pathological; shrink the column count"
        );
        let arena = pressured_arena(page_rows, before, 8);
        let page = arena.alloc(int8_page).expect("page fits under the cap");
        assert!(arena.over_watermark(), "the drain must have a byte deficit");
        arena.enqueue_demotion(key(&arena, 0), page.downgrade(), PageTier::Int8);
        let stats = drain_demotions(&arena, 0);
        assert_eq!(stats.demoted, 0, "a non-shrinking demotion must be skipped");
        assert_eq!(
            arena.allocated_bytes(),
            before,
            "allocation must not grow past the cap"
        );
        assert_eq!(page.tier(), PageTier::Int8);
    }

    #[test]
    fn drain_skips_a_page_whose_last_owner_dropped_while_queued() {
        let (page_rows, cols) = (4usize, 16usize);
        let bytes = f32_page(page_rows, cols).allocated_bytes(page_rows);
        let arena = pressured_arena(page_rows, 2 * bytes, 0);
        let dead = arena.alloc(f32_page(page_rows, cols)).expect("fits");
        let live = arena.alloc(f32_page(page_rows, cols)).expect("fits");
        arena.enqueue_demotion(key(&arena, 0), dead.downgrade(), PageTier::F32);
        arena.enqueue_demotion(key(&arena, 1), live.downgrade(), PageTier::F32);
        // Being queued does not keep a page alive: its bytes are back in
        // the budget the moment the last owner goes.
        drop(dead);
        assert_eq!(arena.allocated_bytes(), bytes);
        assert_eq!(arena.stats().pages, [1, 0, 0]);
        let stats = drain_demotions(&arena, bytes + 1);
        assert_eq!(stats.demoted, 1, "only the live page is demoted");
        assert_eq!(arena.stats().demoted_int8, 1);
        assert_eq!(live.tier(), PageTier::Int8);
        drop(live);
        assert_eq!(arena.stats().pages, [0; 3]);
        assert_eq!(arena.stats().resident_total(), 0);
        assert_eq!(arena.stats().allocated_total(), 0);
        assert_eq!(arena.allocated_bytes(), 0);
        // The dead page's entry was popped and dropped, not re-enqueued:
        // only the live page's int8 → int4 follow-up is left.
        assert_eq!(arena.demotion_queue_len(), 1);
        assert_eq!(drain_demotions(&arena, u64::MAX).demoted, 0);
        assert_eq!(arena.demotion_queue_len(), 0);
        assert_eq!(
            ArenaStats {
                demoted_int8: 1,
                ..ArenaStats::default()
            },
            arena.stats()
        );
    }

    #[test]
    fn a_page_queued_under_two_keys_is_demoted_exactly_once() {
        let (page_rows, cols) = (4usize, 64usize);
        let bytes = f32_page(page_rows, cols).allocated_bytes(page_rows);
        let arena = pressured_arena(page_rows, bytes, 0);
        let page = arena.alloc(f32_page(page_rows, cols)).expect("fits");
        arena.enqueue_demotion(key(&arena, 0), page.downgrade(), PageTier::F32);
        arena.enqueue_demotion(key(&arena, 1), page.downgrade(), PageTier::F32);
        assert!(page.is_exclusive(), "queue entries are not owners");
        arena.advance_clock();
        // Unsatisfiable headroom: drain until the queue runs dry.
        let stats = drain_demotions(&arena, u64::MAX);
        // Both candidates share a batch, so pool workers may hold the page
        // at once: neither may count the other as an owner (that would skip
        // both), and the loser must see the winner's tier change. The
        // winner's int8 → int4 follow-up then commits in a later round.
        assert_eq!(stats.demoted, 2, "f32 → int8 once, int8 → int4 once");
        let arena_stats = arena.stats();
        assert_eq!(arena_stats.demoted_int8, 1);
        assert_eq!(arena_stats.demoted_int4, 1);
        assert_eq!(arena_stats.pages, [0, 0, 1]);
        assert_eq!(stats.freed_bytes, bytes - arena.allocated_bytes());
        assert_eq!(arena.demotion_queue_len(), 0);
        assert!(page.is_exclusive());
    }
}
