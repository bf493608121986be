//! The paged, tiered KV cache: storage modes ([`mode`]), the row codec
//! and demotion step ([`quant`]), the per-session cache ([`cache`]) and
//! the boundary drain of the arena's demotion queue ([`drain`]).

mod cache;
mod drain;
mod mode;
mod quant;

pub use cache::{KvCache, KvTierStats};
pub use drain::{drain_demotions, DrainStats};
pub use mode::{KvCacheMode, KvReadPath};
pub use quant::demote_payload;
