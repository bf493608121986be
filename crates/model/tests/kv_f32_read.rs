//! The in-place f32 read (`KvCache::attn_scores_f32` / `attn_values_f32`)
//! against its oracle, the gathered read (`head_k` / `head_v` + the f32
//! products): bit for bit on single planes of every geometry and tier mix,
//! and end to end on a capped-arena rollout, where `KvReadPath::Dequant`
//! switches a session to the gathered read.

use std::process::Command;

use proptest::prelude::*;
use tender_model::engine::{
    drain_demotions, BatchEngine, DecodeSession, KvCache, KvCacheMode, KvReadPath,
};
use tender_model::{ModelShape, SyntheticLlm};
use tender_tensor::rng::DetRng;
use tender_tensor::{ops, ArenaConfig, KvArena, Matrix};

/// A one-layer, two-head f32-mode cache of `head_dim`-wide planes on a
/// capped arena, filled in three runs of `runs` rows. After each of the
/// first two a boundary drain has to free the share `free` of the bytes then
/// allocated, so old pages have been through the drain twice (int4 where the
/// geometry lets a page shrink), younger ones once (int8), and the last run
/// is still f32.
fn tiered_cache(
    head_dim: usize,
    page_rows: usize,
    runs: [usize; 3],
    free: [f64; 2],
    seed: u64,
) -> KvCache {
    let shape = ModelShape {
        d_model: 2 * head_dim,
        heads: 2,
        layers: 1,
        ..ModelShape::tiny_test()
    };
    let pages = 4 * runs.iter().sum::<usize>().div_ceil(page_rows) as u64;
    let arena = KvArena::new(ArenaConfig {
        page_rows,
        capacity_bytes: Some(pages * KvCacheMode::F32.page_alloc_bytes(head_dim, page_rows)),
        ..ArenaConfig::default()
    });
    let mut cache = KvCache::with_arena(&shape, KvCacheMode::F32, &arena);
    let mut rng = DetRng::new(seed);
    for (run, &rows) in runs.iter().enumerate() {
        let k = rng.normal_matrix(rows, shape.d_model, 0.1, 1.5);
        let v = rng.normal_matrix(rows, shape.d_model, -0.2, 0.7);
        cache.append(0, &k, &v).expect("the cap holds every row");
        if let Some(share) = free.get(run) {
            arena.advance_clock();
            let deficit = (arena.allocated_bytes() as f64 * share) as u64;
            drain_demotions(&arena, arena.headroom_bytes() + deficit);
        }
    }
    cache
}

/// Bit patterns of `m`, every NaN folded to one: which NaN an `∞ − ∞` or a
/// `NaN + NaN` yields depends on the operand order the compiler picks for a
/// commutative add, which Rust leaves unspecified.
fn bits(m: &Matrix) -> Vec<u32> {
    let canonical = |x: &f32| if x.is_nan() { f32::NAN } else { *x }.to_bits();
    m.as_slice().iter().map(canonical).collect()
}

/// Both in-place products of every plane of `cache` against the products
/// over the gathered plane.
fn assert_walker_equals_gather(cache: &mut KvCache, qh: &[f32], probs: &[f32]) {
    let qh_m = Matrix::from_vec(1, qh.len(), qh.to_vec()).expect("query row");
    let probs_m = Matrix::from_vec(1, probs.len(), probs.to_vec()).expect("probs row");
    for head in 0..2 {
        let scores = cache.attn_scores_f32(0, head, qh).expect("f32 cache");
        let want = ops::row_dot_nt(&qh_m, &cache.head_k(0, head));
        assert_eq!(bits(&scores), bits(&want), "scores, head {head}");
        let attn = cache.attn_values_f32(0, head, probs).expect("f32 cache");
        let want = probs_m
            .matmul(&cache.head_v(0, head))
            .expect("1×len · len×dh");
        assert_eq!(bits(&attn), bits(&want), "values, head {head}");
    }
}

/// A query row with signed zeros and non-finite entries where `kinds` says
/// so, and a probability row with exact zeros.
fn operands(head_dim: usize, len: usize, kinds: &[u8], seed: u64) -> (Vec<f32>, Vec<f32>) {
    let mut rng = DetRng::new(seed ^ 0x51);
    let qh = (0..head_dim)
        .map(|c| match kinds[c % kinds.len()] {
            0 => 0.0,
            1 => -0.0,
            2 => f32::NAN,
            3 => f32::INFINITY,
            4 => f32::NEG_INFINITY,
            _ => rng.normal(0.0, 1.0),
        })
        .collect();
    let probs = (0..len)
        .map(|j| match kinds[(j + 7) % kinds.len()] {
            0..=2 => 0.0,
            _ => rng.uniform() / len as f32,
        })
        .collect();
    (qh, probs)
}

#[test]
fn one_plane_holds_all_three_tiers_and_reads_the_same_in_place() {
    let mut cache = tiered_cache(16, 4, [16, 16, 6], [0.5, 0.3], 5);
    let pages = cache.tier_stats().pages;
    assert!(
        pages.iter().all(|&n| n > 0),
        "fixture must mix f32, int8 and int4 pages: {pages:?}"
    );
    let (qh, probs) = operands(16, cache.len(), &[9, 0, 9, 9, 1, 9, 9], 5);
    assert_walker_equals_gather(&mut cache, &qh, &probs);
    // `Dequant` hands the cache back to the gathered read.
    cache.set_read_path(KvReadPath::Dequant);
    assert!(cache.attn_scores_f32(0, 0, &qh).is_none());
    assert!(cache.attn_values_f32(0, 0, &probs).is_none());
}

#[test]
fn quantized_caches_are_not_the_f32_walkers() {
    let shape = ModelShape::tiny_test();
    let mut cache = KvCache::with_mode(&shape, KvCacheMode::Int8);
    let rows = Matrix::from_fn(3, shape.d_model, |r, c| (r + c) as f32);
    cache.append(0, &rows, &rows).expect("uncapped arena");
    assert!(cache.attn_scores_f32(0, 0, &[0.5; 16]).is_none());
    assert!(cache.attn_values_f32(0, 0, &[0.25; 3]).is_none());
}

#[test]
#[should_panic(expected = "query row for (layer 0, head 1) is 17 wide, head_dim is 16")]
fn attn_scores_f32_rejects_wrong_width_query() {
    let _ = tiered_cache(16, 4, [3, 0, 0], [0.0, 0.0], 1).attn_scores_f32(0, 1, &[0.5; 17]);
}

#[test]
#[should_panic(
    expected = "probability row for (layer 0, head 0) is 4 wide, the plane caches 3 positions"
)]
fn attn_values_f32_rejects_long_probs() {
    let _ = tiered_cache(16, 4, [3, 0, 0], [0.0, 0.0], 1).attn_values_f32(0, 0, &[0.25; 4]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every head width (non-multiples of 4 take `decode_shifted_into`'s
    /// per-element arm), page size and plane length across page edges;
    /// planes that went through the real drain; operands with signed zeros,
    /// NaN and ±∞.
    #[test]
    fn f32_walker_equals_the_gathered_read(
        head_dim in 1_usize..=33,
        page_rows in 1_usize..=17,
        runs in (0_usize..40, 0_usize..40, 0_usize..20),
        free in (0.05_f64..0.7, 0.05_f64..0.5),
        kinds in proptest::collection::vec(0_u8..12, 5..40),
        seed in any::<u64>(),
    ) {
        let runs = [runs.0, runs.1, runs.2];
        let mut cache = tiered_cache(head_dim, page_rows, runs, [free.0, free.1], seed);
        let (qh, probs) = operands(head_dim, cache.len(), &kinds, seed);
        assert_walker_equals_gather(&mut cache, &qh, &probs);
    }
}

/// Per-step logits of a capped-arena f32 rollout — a template prefilled
/// once, three copy-on-write forks decoded through the batch iteration,
/// demotions landing mid-rollout — as bit patterns.
fn capped_rollout(path: KvReadPath) -> (Vec<u32>, (u64, u64)) {
    let shape = ModelShape::tiny_test();
    let model = SyntheticLlm::generate(&shape, 73);
    let reference = model.reference();
    let (page_rows, prefix, forks, steps) = (4usize, 10usize, 3usize, 14usize);
    let planes = 2 * (shape.layers * shape.heads) as u64;
    let page = planes * KvCacheMode::F32.page_alloc_bytes(shape.head_dim(), page_rows);
    // Room for the shared prefix plus about half of what the forks append
    // at f32: the rollout only fits because pages are demoted under it.
    let cap = page * (3 + (forks * steps).div_ceil(2 * page_rows) as u64);
    let arena = KvArena::new(ArenaConfig {
        page_rows,
        capacity_bytes: Some(cap),
        watermark: 0.5,
        ..ArenaConfig::default()
    });
    let mut template = DecodeSession::with_arena(&reference, KvCacheMode::F32, &arena);
    template.set_kv_read_path(path);
    template.prefill(
        &(0..prefix)
            .map(|i| (i * 7 + 3) % shape.vocab)
            .collect::<Vec<_>>(),
    );
    let mut engine = BatchEngine::forked(&template, forks);
    drop(template);
    let mut next: Vec<usize> = (0..forks).map(|i| (i * 13 + 2) % shape.vocab).collect();
    let mut logits_bits = Vec::new();
    for step in 0..steps {
        let results = engine.try_step_all(&next).expect("one token per session");
        for (i, result) in results.into_iter().enumerate() {
            let logits = result.expect("the cap is feasible");
            logits_bits.extend(bits(&logits));
            next[i] = tender_model::greedy_token(&logits, 0, prefix + step + 1, shape.vocab);
        }
    }
    let st = arena.stats();
    (logits_bits, (st.demoted_int8, st.demoted_int4))
}

/// At the pool's current size: the default (in-place) read and the gathered
/// read return the same logits at every step. Prints a digest so the test
/// below can compare pool sizes across processes.
#[test]
fn capped_f32_rollout_reads_the_same_in_place_and_gathered() {
    let in_place = capped_rollout(KvReadPath::Integer);
    let gathered = capped_rollout(KvReadPath::Dequant);
    let (int8, int4) = in_place.1;
    assert!(
        int8 > 0 && int4 > 0,
        "the rollout must demote down both rungs: {int8} int8, {int4} int4"
    );
    assert!(in_place == gathered, "the in-place f32 read moved a logit");
    let digest = in_place.0.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    });
    println!("digest {digest:#x} {:?}", in_place.1);
}

#[test]
fn capped_f32_rollout_reads_the_same_at_1_and_4_threads() {
    let digest = |threads: &str| {
        let exe = std::env::current_exe().expect("test binary path");
        let out = Command::new(exe)
            .args([
                "--exact",
                "capped_f32_rollout_reads_the_same_in_place_and_gathered",
                "--nocapture",
            ])
            .env("TENDER_THREADS", threads)
            .output()
            .expect("spawn the test binary");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(
            out.status.success(),
            "TENDER_THREADS={threads} failed:\n{stdout}"
        );
        stdout
            .lines()
            .find_map(|l| l.find("digest ").map(|at| l[at..].to_string()))
            .unwrap_or_else(|| panic!("no digest at TENDER_THREADS={threads}:\n{stdout}"))
    };
    assert_eq!(digest("1"), digest("4"));
}
