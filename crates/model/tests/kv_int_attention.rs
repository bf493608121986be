//! Property tests for integer-domain KV attention: the packed-code dot
//! path must track the legacy dequantize-on-read path within a pinned
//! L2 bound (the only daylight between them is the one-shot 8-bit
//! quantization of the query and probability rows), and it must be
//! bit-deterministic — same inputs → byte-identical logits on a rerun,
//! for INT8 and INT4 caches alike.
//!
//! Thread-count invariance is enforced separately by the CI subprocess
//! byte-diff; these tests pin the numeric and determinism halves.

use proptest::prelude::*;
use tender_model::engine::{DecodeSession, KvCacheMode, KvReadPath};
use tender_model::{ModelShape, SyntheticLlm};
use tender_tensor::Matrix;

/// Final-step logits of a prefill + decode rollout under `mode`/`path`.
fn decode_logits(
    shape: &ModelShape,
    seed: u64,
    t: &[usize],
    mode: KvCacheMode,
    path: KvReadPath,
) -> Matrix {
    let model = SyntheticLlm::generate(shape, seed);
    let reference = model.reference();
    let mut s = DecodeSession::with_cache_mode(&reference, mode);
    s.set_kv_read_path(path);
    let split = (t.len() / 2).max(1);
    let prefill = s.prefill(&t[..split]);
    let mut last = Matrix::from_fn(1, prefill.cols(), |_, c| prefill[(prefill.rows() - 1, c)]);
    for &tok in &t[split..] {
        last = s.step(tok).expect("in-window step");
    }
    last
}

/// Normalized L2 distance between two logits rows.
fn rel_err(exact: &Matrix, approx: &Matrix) -> f32 {
    let norm: f32 = exact.row(0).iter().map(|x| x * x).sum::<f32>().sqrt();
    let err: f32 = exact
        .row(0)
        .iter()
        .zip(approx.row(0))
        .map(|(a, b)| (a - b) * (a - b))
        .sum::<f32>()
        .sqrt();
    err / (norm + 1e-6)
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.row(0).iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Integer-domain attention tracks dequantize-on-read within a pinned
    /// bound and is byte-identical on rerun.
    #[test]
    fn integer_path_tracks_dequant_and_is_bit_deterministic(
        seed in any::<u64>(),
        heads in 2_usize..5,
        raw in proptest::collection::vec(0_usize..128, 6..24),
    ) {
        let mut shape = ModelShape::tiny_test();
        shape.heads = heads;
        shape.d_model = heads * 16; // keep head_dim = 16
        shape.ffn_dim = 2 * shape.d_model;

        for mode in [KvCacheMode::Int8, KvCacheMode::Int4] {
            let dequant = decode_logits(&shape, seed, &raw, mode, KvReadPath::Dequant);
            let int = decode_logits(&shape, seed, &raw, mode, KvReadPath::Integer);
            // The two read paths share the same cache codes; the integer
            // path additionally quantizes the query and probability rows
            // to 8 bits, so the gap is small but nonzero.
            let err = rel_err(&dequant, &int);
            prop_assert!(
                err <= 0.15,
                "integer path drifted from dequant: relative error {} > 0.15 \
                 ({} cache, seed {}, heads {}, len {})",
                err, mode.label(), seed, heads, raw.len()
            );
            // Rerun bit-identity: the integer path is approximate relative
            // to f32, never nondeterministic.
            let rerun = decode_logits(&shape, seed, &raw, mode, KvReadPath::Integer);
            prop_assert_eq!(
                bits(&int),
                bits(&rerun),
                "integer-path logits diverge on rerun ({} cache)",
                mode.label()
            );
        }
    }
}
