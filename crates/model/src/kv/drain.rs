//! The boundary drain of an arena's deferred-demotion queue.

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
/// requantizes each batch on pool workers from payload snapshots taken
/// outside any shard lock. A candidate that died, got shared, or changed
/// tier since it was enqueued is revalidated away (generation-checked);
/// a page demoted to int8 is re-enqueued under the current clock so a
/// later drain can take it to the int4 floor.
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
        // Requantize off the shard locks, one pool task per candidate;
        // `replace_if_exclusive` commits only if the page is still live,
        // exclusive, and at the snapshot tier. A non-shrinking
        // requantization is skipped (and not re-enqueued).
        let freed: Vec<Option<u64>> = pool::par_map(batch.len(), |i| {
            let cand = batch[i];
            let payload = arena.try_payload(cand.id)?;
            if payload.tier() != cand.tier || payload.rows() != page_rows {
                return None;
            }
            let (refs, _, _) = arena.page_meta(cand.id)?;
            if refs != 1 {
                return None;
            }
            let demoted = demote_if_smaller(&payload, page_rows)?;
            arena.replace_if_exclusive(cand.id, cand.tier, demoted)
        });
        for (cand, freed) in batch.iter().zip(freed) {
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
                arena.enqueue_demotion(key, cand.id, now_tier);
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::{demote_payload, KvCacheMode};
    use tender_tensor::{ArenaConfig, Matrix, PagePayload};

    #[test]
    fn drain_skips_demotions_that_would_not_shrink() {
        let page_rows = 2usize;
        let cols = 4usize;
        let f32_page = PagePayload::F32(Matrix::from_fn(page_rows, cols, |r, c| {
            (r * cols + c) as f32 * 0.1
        }));
        let int8_page = demote_payload(&f32_page, KvCacheMode::Int8);
        let before = int8_page.allocated_bytes(page_rows);
        // Premise: at 4 columns the int4 rung's per-group scale snapshot
        // outweighs its code savings, so the next rung would *grow*.
        assert!(
            demote_payload(&int8_page, KvCacheMode::Int4).allocated_bytes(page_rows) >= before,
            "geometry no longer pathological; shrink the column count"
        );
        let arena = KvArena::new(ArenaConfig {
            page_rows,
            capacity_bytes: Some(before + 8),
            watermark: 0.5,
            deferred_demotion: true,
            ..ArenaConfig::default()
        });
        let id = arena.alloc(int8_page).expect("page fits under the cap");
        assert!(arena.over_watermark(), "the drain must have a byte deficit");
        arena.enqueue_demotion(
            DemoteKey {
                clock: arena.clock(),
                owner: 0,
                plane: 0,
                page_idx: 0,
            },
            id,
            PageTier::Int8,
        );
        let stats = drain_demotions(&arena, 0);
        assert_eq!(stats.demoted, 0, "a non-shrinking demotion must be skipped");
        assert_eq!(
            arena.allocated_bytes(),
            before,
            "allocation must not grow past the cap"
        );
        assert_eq!(arena.payload(id).tier(), PageTier::Int8);
        arena.release(id);
    }
}
