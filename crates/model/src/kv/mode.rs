//! Cache storage modes, read paths, and the constants every KV module
//! shares.

use tender_tensor::PageTier;

/// Group spacing factor: power-of-two thresholds and scales (Eq. 3), the
/// choice that makes runtime requantization a group-index bump / 1-bit
/// shift.
pub(crate) const ALPHA: u32 = 2;

/// Activation-side precision of the integer read path: query and
/// attention-probability rows are quantized to this many bits before
/// being dotted against the packed cache codes (the paper's INT8
/// activation datapath).
pub(crate) const KV_ACT_BITS: u32 = 8;

/// How cache planes are read during decode attention. A test oracle, not a
/// tuning knob: the cache picks the read per call, and `Dequant` exists so
/// the in-place reads can be checked against the gathered planes.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KvReadPath {
    /// In place, page by page. Quantized planes dot the packed codes
    /// directly: each page decoded once into codes that carry their group's
    /// α = 2 combine weight, one integer accumulator and one scale
    /// application per dot. f32-mode planes dot the pages where they lie.
    #[default]
    Integer,
    /// Gather-on-read: materialize the (dequantized) f32 plane, then run
    /// the ordinary f32 attention product — the oracle both in-place reads
    /// are tested against.
    Dequant,
}

impl KvReadPath {
    /// Canonical lower-case name.
    pub fn label(self) -> &'static str {
        match self {
            Self::Integer => "integer",
            Self::Dequant => "dequant",
        }
    }
}

/// Storage precision of the KV cache: the tier a cache appends its rows at
/// is a rung of the arena's page-tier ladder, so the two are one type. The
/// byte-accounting table is on [`PageTier`].
pub type KvCacheMode = PageTier;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kv_cache_mode_parses_cli_spellings() {
        assert_eq!(KvCacheMode::Int4, PageTier::Int4);
        assert_eq!(KvCacheMode::parse("f32"), Some(KvCacheMode::F32));
        assert_eq!(KvCacheMode::parse("FP32"), Some(KvCacheMode::F32));
        assert_eq!(KvCacheMode::parse("Int8"), Some(KvCacheMode::Int8));
        assert_eq!(KvCacheMode::parse("INT4"), Some(KvCacheMode::Int4));
        assert_eq!(KvCacheMode::parse("int2"), None);
        for tier in PageTier::ALL {
            assert_eq!(KvCacheMode::parse(tier.label()), Some(tier));
        }
    }
}
