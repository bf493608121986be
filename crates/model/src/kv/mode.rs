//! Cache storage modes, read paths, and the constants every KV module
//! shares.

/// Group spacing factor: power-of-two thresholds and scales (Eq. 3), the
/// choice that makes runtime requantization a group-index bump / 1-bit
/// shift.
pub(crate) const ALPHA: u32 = 2;

/// Activation-side precision of the integer read path: query and
/// attention-probability rows are quantized to this many bits before
/// being dotted against the packed cache codes (the paper's INT8
/// activation datapath).
pub(crate) const KV_ACT_BITS: u32 = 8;

/// How quantized cache planes are read during decode attention.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KvReadPath {
    /// Dot the packed codes directly: each page decoded once into codes
    /// that carry their group's α = 2 combine weight, one integer
    /// accumulator and one scale application per dot (the fast path).
    #[default]
    Integer,
    /// Dequantize-on-read: materialize the f32 plane, then run the
    /// ordinary f32 attention product. The f32 read path, and the oracle
    /// the integer path is tested against.
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

/// Storage precision of the KV cache.
///
/// Byte accounting (per cached position, per head, per K or V plane):
///
/// | mode | payload                                  | per-plane constants |
/// |------|------------------------------------------|---------------------|
/// | f32  | `4 × head_dim`                           | none                |
/// | int8 | `head_dim`                               | `TMax` (4) + f16 bias (`2 × head_dim`) |
/// | int4 | `⌈head_dim/2⌉ + `⌈head_dim/4⌉` (2-bit group indices) | same |
///
/// With paged storage each page additionally carries its frozen group-scale
/// snapshot (4 bytes per group); demoted pages also carry a page-local
/// bias/`TMax` (they re-derive both from their own rows). The plane bias is
/// kept at f16 precision (values are rounded through `f16_round`) and
/// counted at two bytes per channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvCacheMode {
    /// Exact `f32` rows — the bit-parity path.
    F32,
    /// INT8 per-head symmetric quantization (one group).
    Int8,
    /// INT4 per-head with four power-of-two groups (Tender Eq. 3).
    Int4,
}

impl KvCacheMode {
    /// Every mode, in documentation order.
    pub const ALL: [KvCacheMode; 3] = [KvCacheMode::F32, KvCacheMode::Int8, KvCacheMode::Int4];

    /// Parses a CLI spelling (`f32` / `int8` / `int4`, case-insensitive).
    pub fn parse(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "f32" | "fp32" => Some(Self::F32),
            "int8" => Some(Self::Int8),
            "int4" => Some(Self::Int4),
            _ => None,
        }
    }

    /// Canonical lower-case name.
    pub fn label(self) -> &'static str {
        match self {
            Self::F32 => "f32",
            Self::Int8 => "int8",
            Self::Int4 => "int4",
        }
    }

    /// Element width in bits.
    pub fn bits(self) -> u32 {
        match self {
            Self::F32 => 32,
            Self::Int8 => 8,
            Self::Int4 => 4,
        }
    }

    /// Power-of-two decomposition groups (1 = plain symmetric).
    pub fn num_groups(self) -> usize {
        match self {
            Self::F32 | Self::Int8 => 1,
            Self::Int4 => 4,
        }
    }

    /// Stored bytes per cached position, per head, per K or V plane.
    pub fn position_bytes(self, head_dim: usize) -> u64 {
        match self {
            Self::F32 => 4 * head_dim as u64,
            Self::Int8 => head_dim as u64,
            Self::Int4 => (head_dim.div_ceil(2) + head_dim.div_ceil(4)) as u64,
        }
    }

    /// Per-plane constant bytes (quantization metadata), per K or V plane.
    pub fn head_overhead_bytes(self, head_dim: usize) -> u64 {
        match self {
            Self::F32 => 0,
            Self::Int8 | Self::Int4 => 4 + 2 * head_dim as u64,
        }
    }

    /// Allocated bytes of one empty page at this mode's append tier: the
    /// full page of rows plus (quantized modes) one `f32` scale per group.
    pub fn page_alloc_bytes(self, head_dim: usize, page_rows: usize) -> u64 {
        let scales = match self {
            Self::F32 => 0,
            Self::Int8 | Self::Int4 => 4 * self.num_groups() as u64,
        };
        page_rows as u64 * self.position_bytes(head_dim) + scales
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kv_cache_mode_parses_cli_spellings() {
        assert_eq!(KvCacheMode::parse("f32"), Some(KvCacheMode::F32));
        assert_eq!(KvCacheMode::parse("FP32"), Some(KvCacheMode::F32));
        assert_eq!(KvCacheMode::parse("Int8"), Some(KvCacheMode::Int8));
        assert_eq!(KvCacheMode::parse("INT4"), Some(KvCacheMode::Int4));
        assert_eq!(KvCacheMode::parse("int2"), None);
        for mode in KvCacheMode::ALL {
            assert_eq!(KvCacheMode::parse(mode.label()), Some(mode));
        }
    }
}
