//! The operands, caches and per-layer read loops shared by the `kv_read`
//! A/B bench and its tripwire `kv_read_smoke.rs`, so the gate times exactly
//! what the committed snapshot records. Included by path from both.

use tender_model::engine::{drain_demotions, KvCache, KvCacheMode};
use tender_model::ModelShape;
use tender_tensor::rng::DetRng;
use tender_tensor::{ops, ArenaConfig, KvArena, Matrix, PageTier};

/// Same shape as the decode bench: step cost dominated by layer GEMMs and
/// the attention read, small enough for the bench budget.
pub fn bench_shape() -> ModelShape {
    let mut shape = ModelShape::tiny_test();
    shape.d_model = 128;
    shape.ffn_dim = 256;
    shape.heads = 8;
    shape.max_seq = 256;
    shape
}

/// A deterministic query row (`head_dim` wide) and probability row
/// (`len` wide, positive, sums to one) for the read kernels.
pub fn read_operands(head_dim: usize, len: usize) -> (Vec<f32>, Vec<f32>) {
    let qh: Vec<f32> = (0..head_dim)
        .map(|i| ((i * 13 + 5) % 17) as f32 / 8.0 - 1.0)
        .collect();
    let raw: Vec<f32> = (0..len).map(|j| 1.0 + ((j * 7 + 3) % 11) as f32).collect();
    let total: f32 = raw.iter().sum();
    (qh, raw.into_iter().map(|p| p / total).collect())
}

/// One layer's worth of integer-domain reads: per head, score the query
/// against K and reduce the probabilities against V, on the packed codes.
pub fn read_integer(cache: &KvCache, heads: usize, qh: &[f32], probs: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for head in 0..heads {
        let scores = cache.attn_scores_quant(0, head, qh).expect("quant plane");
        let attn = cache
            .attn_values_quant(0, head, probs)
            .expect("quant plane");
        acc += scores[(0, 0)] + attn[(0, 0)];
    }
    acc
}

/// One layer's worth of in-place f32 reads of an f32-mode cache.
pub fn read_f32_inplace(cache: &mut KvCache, heads: usize, qh: &[f32], probs: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for head in 0..heads {
        let scores = cache.attn_scores_f32(0, head, qh).expect("f32 cache");
        let attn = cache.attn_values_f32(0, head, probs).expect("f32 cache");
        acc += scores[(0, 0)] + attn[(0, 0)];
    }
    acc
}

/// The gathered equivalent of either: materialize each plane (dequantizing
/// what is quantized), then run the f32 products over it.
pub fn read_dequant(cache: &KvCache, heads: usize, qh: &Matrix, probs: &Matrix) -> f32 {
    let mut acc = 0.0f32;
    for head in 0..heads {
        let k = cache.head_k(0, head);
        let scores = ops::row_dot_nt(qh, &k);
        let v = cache.head_v(0, head);
        let attn = probs.matmul(&v).expect("1×len · len×dh");
        acc += scores[(0, 0)] + attn[(0, 0)];
    }
    acc
}

/// An f32-mode cache holding `len` positions in layer 0, appended in one
/// run per entry of `floors` (oldest first) on a capped arena whose boundary
/// drain takes each run down to its floor tier before the next arrives.
pub fn f32_cache(shape: &ModelShape, len: usize, floors: &[PageTier]) -> KvCache {
    let arena = KvArena::new(ArenaConfig {
        capacity_bytes: Some(u64::MAX),
        ..ArenaConfig::default()
    });
    let mut cache = KvCache::with_arena(shape, KvCacheMode::F32, &arena);
    let mut rng = DetRng::new(7);
    for floor in floors {
        let rows = len / floors.len();
        let k = rng.normal_matrix(rows, shape.d_model, 0.1, 1.5);
        let v = rng.normal_matrix(rows, shape.d_model, -0.2, 0.7);
        cache.append(0, &k, &v).expect("unreachable cap");
        arena.advance_clock();
        // One byte of deficit pops one batch, oldest first: the run's f32
        // pages go before the int8 pages the drain re-enqueues.
        let above_floor = || arena.stats().pages[..floor.index()].iter().any(|&n| n > 0);
        while above_floor() && drain_demotions(&arena, arena.headroom_bytes() + 1).demoted > 0 {}
    }
    assert_eq!(cache.len(), len, "runs must divide the length");
    let pages = cache.tier_stats().pages;
    for tier in floors {
        assert!(pages[tier.index()] > 0, "no {tier:?} page in {pages:?}");
    }
    cache
}
