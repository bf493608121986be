//! Fixtures shared by the unit tests of this crate.

use tender_tensor::{ArenaConfig, KvArena};

use crate::shape::ModelShape;
use crate::synthetic::SyntheticLlm;

/// The tiny test shape and a seeded synthetic model over it.
pub(crate) fn tiny() -> (ModelShape, SyntheticLlm) {
    let shape = ModelShape::tiny_test();
    let model = SyntheticLlm::generate(&shape, 11);
    (shape, model)
}

/// `n` in-vocab token ids, varied by `salt`.
pub(crate) fn tokens(n: usize, vocab: usize, salt: usize) -> Vec<usize> {
    (0..n).map(|i| (i * 31 + salt * 17 + 5) % vocab).collect()
}

/// An arena of `page_rows`-row pages under byte cap `cap`, whose boundary
/// drain demotes above `watermark × cap`.
pub(crate) fn paged_arena(page_rows: usize, cap: Option<u64>, watermark: f64) -> KvArena {
    KvArena::new(ArenaConfig {
        page_rows,
        capacity_bytes: cap,
        watermark,
        ..ArenaConfig::default()
    })
}

/// Bytes of `positions` cached f32 positions across every K and V plane.
pub(crate) fn f32_kv_bytes(shape: &ModelShape, positions: usize) -> u64 {
    2 * (shape.layers * shape.heads * positions * shape.head_dim() * 4) as u64
}
