//! The paged, tiered KV cache: storage modes ([`mode`]), the row codec
//! and demotion step ([`quant`]), the per-session cache ([`cache`]) and
//! the arena's iteration boundary ([`drain`]): clock, demotion drain and
//! append reservation.

mod cache;
mod drain;
mod mode;
mod quant;

pub use cache::{KvCache, KvTierStats};
pub use drain::{drain_demotions, settle_iteration, DrainStats};
pub use mode::{KvCacheMode, KvReadPath};
pub use quant::demote_payload;
